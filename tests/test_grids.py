from grids import interpolation_grid, level_rule_grid, measure_check_grid


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
