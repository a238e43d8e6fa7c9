import json

import pytest

from padiclf import dirichlet
from padiclf.cli import _build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_bernoulli_value(capsys):
    code, out, err = run_cli(capsys, "bernoulli", "--n", "12")
    assert code == 0
    obj = json.loads(out)
    assert obj == {
        "n": 12,
        "value": "-691/2730",
        "poly": json.loads(json.dumps(obj["poly"])),
    }
    assert obj["poly"][-1] == "1/1" and len(obj["poly"]) == 13


def test_stdout_is_single_json_document(capsys):
    code, out, err = run_cli(capsys, "bernoulli", "--n", "3")
    assert code == 0
    parsed = json.loads(out)  # would raise on trailing junk
    assert json.loads(json.dumps(parsed)) == parsed


def test_genbernoulli(capsys):
    code, out, _ = run_cli(capsys, "genbernoulli", "--p", "5", "--char", "triv", "--n", "2")
    assert code == 0
    obj = json.loads(out)
    assert obj["exact"] == "1/6"
    assert obj["value"]["valuation"] == 0


def test_genbernoulli_table_char(capsys, tmp_path):
    path = tmp_path / "chi.json"
    path.write_text(json.dumps({"p": 5, "modulus": 3, "entries": {"1": 1, "2": 4}}))
    code, out, _ = run_cli(capsys, "genbernoulli", "--p", "5",
                           "--char", f"table:{path}", "--n", "1")
    assert code == 0
    assert json.loads(out)["exact"] == "-1/3"


@pytest.mark.parametrize("prec", [5, 11])
def test_genbernoulli_value_has_the_requested_precision(capsys, prec):
    # a character is exact: the precision of B_(n,chi) is the one asked for
    code, out, _ = run_cli(capsys, "--prec", str(prec), "genbernoulli", "--p", "5",
                           "--char", "omega^2", "--n", "4")
    assert code == 0
    assert json.loads(out)["value"]["relprec"] == prec


def test_char_info(capsys):
    code, out, _ = run_cli(capsys, "char-info", "--p", "5", "--char", "omega^2")
    assert code == 0
    obj = json.loads(out)
    assert obj["level"] == 5 and obj["conductor"] == 5
    assert obj["parity"] == "even" and obj["order"] == 2


def test_invalid_prime_rejected(capsys):
    code, out, err = run_cli(capsys, "char-info", "--p", "4", "--char", "triv")
    assert code == 2 and out == ""
    assert "odd prime" in err


def test_bad_table_names_pair(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"p": 5, "modulus": 8,
                                "entries": {"1": 1, "3": 4, "5": 4, "7": 4}}))
    code, out, err = run_cli(capsys, "char-info", "--p", "5", "--char", f"table:{path}")
    assert code == 2
    assert "pair (" in err


@pytest.mark.parametrize("table, message", [
    ({"p": 5, "modulus": 5, "entries": [1, 2]},
     "the 'entries' of a character table file must be a JSON object"),
    ({"p": 5, "modulus": 5, "entries": {"1": 1, "2": None, "3": 3, "4": 4}},
     "the character table label at 2 must be an integer, not None"),
    ({"p": 5, "modulus": None, "entries": {"1": 1}},
     "the character table's 'modulus' must be an integer, not None"),
    (5, "a character table file must hold a JSON object"),
    ({"p": 5.5, "modulus": 5, "entries": {"1": 1, "2": 2, "3": 3, "4": 4}},
     "the character table's 'p' must be an integer, not 5.5"),
    ({"p": 5, "modulus": 5, "entries": {"1": 1, "2": 4.7, "3": 3, "4": 4}},
     "the character table label at 2 must be an integer, not 4.7"),
], ids=["entries-list", "null-label", "null-modulus", "top-level-int", "float-p",
        "float-label"])
def test_malformed_table_file_is_a_usage_error(capsys, tmp_path, table, message):
    # exit 1 means "verification failed"; a bad input file is exit 2
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(table))
    code, out, err = run_cli(capsys, "char-info", "--p", "5", "--char", f"table:{path}")
    assert (code, out, err) == (2, "", f"error: {message}\n")


# json.dumps cannot write a repeated key, so these files are written as text;
# at the first two, int() reads both keys as one residue
@pytest.mark.parametrize("entries, message", [
    ('"1": 1, "2": 3, "3": 3, "4": 4, " 02": 2',
     "character table keys '2' and ' 02' name one residue 2"),
    ('"1": 1, "2": 3, "3": 2, "4": 4, "+4": 4',
     "character table keys '4' and '+4' name one residue 4"),
    ('"1": 1, "2": 3, "2": 2, "3": 3, "4": 4',
     "character table file repeats the key '2'"),
], ids=["padded-key", "signed-key", "repeated-key"])
def test_keys_naming_one_residue_are_refused(capsys, tmp_path, entries, message):
    path = tmp_path / "dup.json"
    path.write_text('{"p": 5, "modulus": 5, "entries": {' + entries + '}}')
    code, out, err = run_cli(capsys, "char-info", "--p", "5", "--char", f"table:{path}")
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_unknown_flag_usage_error(capsys):
    code, _, _ = run_cli(capsys, "bernoulli", "--wat", "1")
    assert code == 2


def test_parser_reused_across_calls(capsys):
    # one process, three calls on the parser that is built once: a usage
    # error that sets the global --prec, then the same lp-eval twice
    lp = ["lp-eval", "--p", "5", "--d", "1", "--m", "1", "--char", "omega^2",
          "--c", "2", "--weight-k", "1"]
    code, out, err = run_cli(capsys, "--prec", "3", *lp, "--jmax", "seven")
    assert code == 2 and out == "" and "--jmax" in err
    first = run_cli(capsys, *lp)
    second = run_cli(capsys, *lp)
    assert first == second
    code, out, err = first
    assert code == 0 and err == ""
    # the default --prec 8 and --jmax 7, not the usage error's --prec 3
    assert json.loads(out)["level_used"] == 7
    assert _build_parser() is _build_parser()
    assert _build_parser().parse_args(lp) == _build_parser.__wrapped__().parse_args(lp)


def test_measure_check_passes(capsys):
    code, out, _ = run_cli(capsys, "measure-check", "--p", "3", "--d", "2",
                           "--c", "7", "--max-level", "2")
    assert code == 0
    obj = json.loads(out)
    assert obj["pass"] is True and obj["counterexamples"] == []


def test_measure_check_invalid_params(capsys):
    code, _, err = run_cli(capsys, "measure-check", "--p", "5", "--d", "5", "--c", "2")
    assert code == 2
    assert "gcd" in err


@pytest.mark.parametrize("argv, message", [
    (("--p", "7", "--d", "4", "--c", "3", "--max-level", "-1"),
     "error: max_level must be >= 0, got -1\n"),
    # 8*4*(7^10-1)/6 evaluations; this argv used to hang
    (("--p", "7", "--d", "4", "--c", "3", "--max-level", "9"),
     "error: a compatibility sweep to level 9 needs 1506534656 E_c evaluations, "
     "over the limit of 2000000\n"),
    # just past the limit: 8*13*(7^6-1)/6 = 2039232
    (("--p", "7", "--d", "13", "--c", "2", "--max-level", "5"),
     "error: a compatibility sweep to level 5 needs 2039232 E_c evaluations, "
     "over the limit of 2000000\n"),
])
def test_measure_check_refuses_bad_max_level(capsys, argv, message):
    code, out, err = run_cli(capsys, "measure-check", *argv)
    assert (code, out, err) == (2, "", message)


def test_lp_eval_report(capsys):
    code, out, _ = run_cli(capsys, "lp-eval", "--p", "5", "--d", "1", "--m", "1",
                           "--char", "omega^2", "--c", "2", "--weight-k", "1",
                           "--prec", "12", "--jmax", "7", "--target", "4")
    assert code == 0
    obj = json.loads(out)
    assert obj["converged"] is True
    assert set(obj) == {"value", "level_used", "converged"}


def test_verify_pass_exit_zero(capsys):
    code, out, _ = run_cli(capsys, "verify", "--p", "5", "--d", "1", "--m", "1",
                           "--char", "omega^2", "--c", "2", "--n", "2",
                           "--prec", "12", "--target", "4")
    assert code == 0
    obj = json.loads(out)
    assert set(obj) == {"lhs", "rhs", "sign", "valuation_of_difference",
                        "valuation_is_exact", "pass"}
    assert obj["pass"] is True and obj["sign"] in ("+", "-")


def test_verify_valuation_is_a_lower_bound(capsys):
    # L - R vanishes to all 7 certified digits of S_7 (L = R = 1 here), so
    # 7 only bounds the valuation of the difference from below
    code, out, _ = run_cli(capsys, "verify", "--p", "5", "--d", "1", "--m", "1",
                           "--char", "omega^2", "--c", "2", "--n", "2",
                           "--prec", "12", "--target", "4")
    assert code == 0
    obj = json.loads(out)
    assert obj["valuation_of_difference"] == 7
    assert obj["valuation_is_exact"] is False


def test_level_3125_matches_level_5(capsys):
    # omega^2 at level 5^5 and at level 5 both sum S_8 over the same
    # primitive psi = omega, so the L-values agree
    args = ["--p", "5", "--d", "1", "--char", "omega^2", "--c", "3",
            "--weight-k", "2", "--prec", "8", "--jmax", "8"]
    reports = []
    for m in ("5", "1"):
        code, out, _ = run_cli(capsys, "lp-eval", *args, "--m", m)
        assert code == 0
        reports.append(json.loads(out))
    assert reports[0] == reports[1]
    assert reports[0]["value"]["unit"] == 85986 and reports[0]["level_used"] == 8


def test_char_info_large_table(capsys, tmp_path):
    # omega * (2/.) * (./3) at level 2^3 * 3 * 5^4 = 15000 (4000 units):
    # conductor 5 * 8 * 3, order lcm(4, 2, 2), parity (-1)(+1)(-1)
    level = 15000
    entries = {}
    for a in range(level):
        if a % 2 and a % 3 and a % 5:
            sign = (1 if a % 8 in (1, 7) else -1) * (1 if a % 3 == 1 else -1)
            entries[str(a)] = sign * a % 5
    path = tmp_path / "chi.json"
    path.write_text(json.dumps({"p": 5, "modulus": level, "entries": entries}))
    code, out, _ = run_cli(capsys, "char-info", "--p", "5", "--char", f"table:{path}")
    assert code == 0
    obj = json.loads(out)
    assert obj["level"] == level and len(obj["table"]) == 4000
    assert obj["conductor"] == 120 and obj["order"] == 4
    assert obj["parity"] == "even" and obj["is_primitive"] is False


def test_high_levels_at_p11_finish(capsys):
    # levels 9-12 at p=11 hold about 2.4e10 units in all; the sums are
    # computed in closed form per residue progression instead
    args = ["--p", "11", "--d", "1", "--m", "1", "--char", "omega^2", "--c", "2",
            "--jmin", "9", "--jmax", "12", "--prec", "8"]
    code, out, _ = run_cli(capsys, "lp-eval", *args, "--weight-k", "3")
    assert code == 0
    report = json.loads(out)
    assert report["converged"] is True and 9 <= report["level_used"] <= 12
    code, out, _ = run_cli(capsys, "verify", *args, "--n", "4")
    assert code == 0
    obj = json.loads(out)
    assert obj["pass"] is True and obj["sign"] == "+"
    assert obj["lhs"] == report["value"]


def test_verify_failing_target_exit_one(capsys):
    code, out, _ = run_cli(capsys, "verify", "--p", "5", "--d", "1", "--m", "1",
                           "--char", "omega^2", "--c", "3", "--n", "2",
                           "--prec", "12", "--jmax", "3", "--target", "8")
    assert code == 1
    assert json.loads(out)["pass"] is False


def test_verify_odd_character_rejected(capsys):
    code, _, err = run_cli(capsys, "verify", "--p", "5", "--d", "1", "--m", "1",
                           "--char", "omega^1", "--c", "2", "--n", "2")
    assert code == 2 and "even" in err


def test_lp_eval_odd_character_rejected(capsys):
    # LpParams makes the evenness check; the CLI passes its error through
    code, out, err = run_cli(capsys, "lp-eval", "--p", "5", "--d", "1", "--m", "1",
                             "--char", "omega^1", "--c", "2", "--weight-k", "1")
    assert (code, out, err) == (2, "", "error: chi must be even\n")


@pytest.mark.parametrize("command, weight", [("lp-eval", "--weight-k"), ("verify", "--n")])
def test_subcommand_prec_overrides_the_global_flag(command, weight):
    argv = [command, "--p", "5", "--d", "1", "--m", "1", "--char", "omega^2",
            "--c", "2", weight, "2"]
    parse = _build_parser().parse_args
    assert parse(["--prec", "3", *argv, "--prec", "12"]).prec == 12
    assert parse(["--prec", "3", *argv]).prec == 3
    assert parse(argv).prec == 8


def test_subcommand_prec_zero_is_refused(capsys):
    # the subcommand's 0 is not mistaken for an absent flag
    code, out, err = run_cli(capsys, "--prec", "12", "lp-eval", "--p", "5", "--d", "1",
                             "--m", "1", "--char", "omega^2", "--c", "2",
                             "--weight-k", "1", "--prec", "0")
    assert (code, out, err) == (2, "", "error: --prec must be >= 1\n")


def test_missing_jmin_starts_at_m(capsys):
    # with --prec below m the level used is the start of the range, m
    args = ["lp-eval", "--p", "5", "--d", "1", "--m", "3", "--char", "omega^2",
            "--c", "2", "--weight-k", "2", "--prec", "2", "--target", "2"]
    without = run_cli(capsys, *args)
    with_m = run_cli(capsys, *args, "--jmin", "3")
    assert without == with_m and without[0] == 0
    assert json.loads(without[1])["level_used"] == 3


def test_verify_global_prec_flag(capsys):
    code, out, _ = run_cli(capsys, "--prec", "12", "verify", "--p", "5", "--d", "1",
                           "--m", "1", "--char", "omega^2", "--c", "2", "--n", "2",
                           "--target", "4")
    assert code == 0 and json.loads(out)["pass"] is True


def test_suite_fast_profile(capsys):
    code, out, err = run_cli(capsys, "suite", "--profile", "fast")
    assert code == 0
    obj = json.loads(out)
    assert obj["pass"] is True
    numbers = [r["criterion"] for r in obj["results"]]
    assert numbers == [1, 2, 3, 4, 5, 6, 11]
    assert "criterion 1" in err  # human-readable lines go to stderr


@pytest.mark.parametrize("spec", ["omega^2", "triv"])
def test_character_spec_round_trip_through_cli(capsys, spec):
    code, out, _ = run_cli(capsys, "char-info", "--p", "5", "--char", spec)
    assert code == 0
    obj = json.loads(out)
    assert json.loads(json.dumps(obj)) == obj


@pytest.mark.parametrize("m", [12, 40])
def test_lp_eval_cost_is_flat_in_the_character_level(capsys, monkeypatch, m):
    # chi = omega^2 at level 5^m is read only through the primitive
    # chi omega^(-3) = omega^3 of level 5, so the level costs nothing: the
    # value equals the level-5 character's at the same J, and no label
    # table is built above level 5
    built = []
    build = dirichlet._label_table

    def counted(p, n, gens, exponents):
        if n > 5:
            raise AssertionError(f"label table built at level {n}")
        built.append(n)
        return build(p, n, gens, exponents)

    monkeypatch.setattr(dirichlet, "_label_table", counted)
    J = max(m, 12)
    args = ["lp-eval", "--p", "5", "--d", "1", "--char", "omega^2", "--c", "2",
            "--weight-k", "2", "--prec", "12", "--jmax", str(J)]
    reports = []
    for argv in (["--m", str(m)], ["--m", "1", "--jmin", str(J)]):
        code, out, err = run_cli(capsys, *args, *argv)
        assert (code, err) == (0, "")
        reports.append(json.loads(out))
    assert reports[0] == reports[1]
    assert reports[0]["value"] == {"p": 5, "valuation": 0, "unit": 7540471, "relprec": 12}
    assert reports[0]["level_used"] == J
    assert set(built) == {5}


def test_verify_builds_the_twist_table_once(capsys, monkeypatch):
    # riemann_sum at weight n - 1 and twisted_mean_limit at n both read
    # chi omega^(-n) = omega^4, which is made and tabled once; the other
    # table is chi = omega^2 itself, read for chi(c) in the closed form
    built = []
    build = dirichlet._label_table

    def counted(p, n, gens, exponents):
        built.append((n, exponents))
        return build(p, n, gens, exponents)

    monkeypatch.setattr(dirichlet, "_label_table", counted)
    code, out, err = run_cli(capsys, "verify", "--p", "7", "--d", "1", "--m", "1",
                             "--char", "omega^2", "--c", "3", "--n", "4", "--prec", "8")
    assert (code, err) == (0, "")
    assert json.loads(out)["pass"] is True
    assert built == [(7, (4,)), (7, (2,))]


@pytest.mark.parametrize("modulus, missing", [
    (10**18 + 3, [2, 3, 4, 5, 6]),
    (10**60, [3, 7, 9, 11, 13]),
])
def test_table_with_huge_modulus_is_refused(capsys, tmp_path, modulus, missing):
    # phi(n) >= sqrt(n/2), so one entry cannot cover the units; the table
    # is refused before the modulus is factored or its units listed
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"p": 5, "modulus": modulus, "entries": {"1": 1}}))
    code, out, err = run_cli(capsys, "char-info", "--p", "5", "--char", f"table:{path}")
    assert (code, out) == (2, "")
    assert err == f"error: character table is missing units {missing}\n"


def test_large_p_costs_nothing_in_p(capsys, tmp_path):
    # the trivial character and a table of modulus 3 over p = 10^9 + 7 are
    # read without walking the p - 1 powers of the root mod p
    _three_calls_over(capsys, tmp_path, 10**9 + 7)


def test_p_near_10_18_is_decided_at_once(capsys, tmp_path):
    # primality of p by Miller-Rabin, not by trial division to sqrt(p)
    _three_calls_over(capsys, tmp_path, 10**18 + 3)


def test_p_beyond_the_primality_limit_is_refused(capsys):
    # 10^60 + 7 has no factor up to 41, and Miller-Rabin on the 13 bases
    # up to 41 is exact only below 3317044064679887385961981
    code, out, err = run_cli(capsys, "char-info", "--p", str(10**60 + 7), "--char", "triv")
    assert (code, out) == (2, "")
    assert err == (f"error: primality of {10**60 + 7} is decided only below "
                   "3317044064679887385961981\n")


def test_p_minus_one_with_a_large_prime_factor(capsys, tmp_path):
    # 1000000000000007243 - 1 = 2 q with q prime: factoring stops at q
    _three_calls_over(capsys, tmp_path, 1000000000000007243)


def test_p_minus_one_beyond_trial_division_is_refused(capsys, tmp_path):
    # p - 1 = 2 (10^9 + 7)(10^9 + 9): the root mod p needs p - 1 factored,
    # which trial division up to MAX_TRIAL_DIVISOR does not do; the trivial
    # character needs no root
    p = 2 * (10**9 + 7) * (10**9 + 9) + 1
    path = tmp_path / "quadratic.json"
    path.write_text(json.dumps({"p": p, "modulus": 3, "entries": {"1": 1, "2": -1}}))
    code, out, err = run_cli(capsys, "char-info", "--p", str(p), "--char", f"table:{path}")
    assert (code, out) == (2, "")
    assert err == (f"error: factoring {(p - 1) // 2} would need trial division past "
                   f"{dirichlet.MAX_TRIAL_DIVISOR}\n")
    code, out, err = run_cli(capsys, "char-info", "--p", str(p), "--char", "triv")
    assert (code, err) == (0, "")


def test_table_of_omega_k_over_large_p_is_refused(capsys):
    # omega^2 at level p = 10^18 + 3 has p - 1 entries: refused before one is built
    p = 10**18 + 3
    code, out, err = run_cli(capsys, "char-info", "--p", str(p), "--char", "omega^2")
    assert (code, out) == (2, "")
    assert err == (f"error: a label table mod {p} has {p - 1} entries, over the limit "
                   f"of {dirichlet.MAX_TABLE_UNITS}\n")


def _three_calls_over(capsys, tmp_path, p):
    code, out, err = run_cli(capsys, "char-info", "--p", str(p), "--char", "triv")
    assert (code, err) == (0, "")
    assert json.loads(out)["table"] == {"0": 1}
    path = tmp_path / "quadratic.json"
    path.write_text(json.dumps({"p": p, "modulus": 3, "entries": {"1": 1, "2": p - 1}}))
    code, out, err = run_cli(capsys, "char-info", "--p", str(p), "--char", f"table:{path}")
    assert (code, err) == (0, "")
    info = json.loads(out)
    assert (info["conductor"], info["parity"], info["table"]) == (3, "odd", {"1": 1, "2": p - 1})
    code, out, err = run_cli(capsys, "genbernoulli", "--p", str(p), "--char", "triv", "--n", "2")
    assert (code, err) == (0, "")
    assert json.loads(out)["exact"] == "1/6"
