from grids import measure_check_grid


def test_measure_check_grid_is_pinned():
    # 2961 argvs; a change that moves any stdout, stderr or exit code on
    # purpose records the digest old -> new
    cases, failures, digest = measure_check_grid()
    assert (cases, failures) == ({0: 1095, 2: 1866}, [])
    assert digest == "143b4abffd454655"
