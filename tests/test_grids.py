from grids import (character_grid, closed_form_grid, interpolation_grid, kernel_grid,
                   level_rule_grid, measure_check_grid, odd_character_grid)


def test_measure_check_grid_is_pinned():
    # 2961 argvs; a change that moves any stdout, stderr or exit code on
    # purpose records the digest old -> new
    cases, failures, digest = measure_check_grid()
    assert (cases, failures) == ({0: 1095, 2: 1866}, [])
    assert digest == "143b4abffd454655"


def test_interpolation_grid_is_pinned():
    # 1470 argvs, every one a pass with sign +
    cases, failures, digest = interpolation_grid()
    assert (cases, failures) == ({0: 1470}, [])
    assert digest == "b39022f529835a1b"


def test_level_rule_grid_is_pinned():
    # 1080 argvs; a call that cannot certify --target digits is refused
    cases, failures, digest = level_rule_grid()
    assert (cases, failures) == ({0: 276, 2: 804}, [])
    assert digest == "756ccd970523a2b2"


def test_character_grid_is_pinned():
    # 1670 argvs over 134 table characters chi_d omega^e at level d p: every
    # call answers, every verify passes with sign +, and the residue labels
    # char-info prints are the file's; a B_(n,chi) that is exactly 0 prints
    # as the exact zero, with the exact value "0/1"
    cases, failures, digest = character_grid()
    assert (cases, failures) == ({0: 1670}, [])
    assert digest == "706a5d63ba437368"


def test_odd_character_grid_is_pinned():
    # 1098 argvs over the 67 odd characters omega^e and chi_d omega^e: each
    # lp-eval answers the exact zero, which the kernel's own sum at level 10
    # confirms to its 10 digits, and each verify passes with the sign "both";
    # a closed form that is exactly 0 prints as the exact zero
    cases, failures, digest = odd_character_grid()
    assert (cases, failures) == ({0: 1098}, [])
    assert digest == "d2b305af8e7bb423"


def test_kernel_grid_is_pinned():
    # 1912 kernel sums over 32 even characters chi_d omega^e, each equal to
    # its brute oracle; the mutation y1 = end in _unit_sum fails 914
    cases, failures, digest = kernel_grid()
    assert (cases, failures) == ({"riemann": 1330, "twisted": 582}, [])
    assert digest == "dff6a65db2cadffb"


def test_closed_form_grid_is_pinned():
    # 1072 label sums B_(n,chi) over the 134 characters chi_d omega^e, n = 1..8,
    # and 1464 closed forms of the even ones, each equal to its oracle, or
    # the exact zero where its Euler factor is 0; the mutation that drops
    # the Euler factor in _euler_label_sum fails 204
    cases, failures, digest = closed_form_grid()
    assert (cases, failures) == ({"coeffs": 1072, "closed-form": 1464}, [])
    assert digest == "97c1a10e92d29aa4"
