import contextlib
import functools
import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import padiclf
from oracles import bernoulli_distribution_over_p, level_period
from padiclf import cli, dirichlet, genbernoulli, lfunction, measure, modarith
from padiclf.cli import COMMANDS, GLOBAL_FLAGS, main, parse_argv
from padiclf.padic import PadicNum


def run_cli(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def clear_character_caches():
    # characters are interned, table files kept by text and residue passes
    # by their level, so the tables and passes that earlier calls in this
    # process built would otherwise be reused
    dirichlet.DirichletCharacter._of.cache_clear()
    dirichlet._table_character.cache_clear()
    genbernoulli._residue_pass.cache_clear()


@pytest.fixture
def empty_character_caches():
    clear_character_caches()


@contextlib.contextmanager
def int_str_limit(limit):
    """Python's limit on the digits of str(int) set to `limit` (0: none)."""
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(before)


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


def test_an_exact_zero_label_sum_prints_as_the_exact_zero(capsys):
    # B_(2, omega) at p = 3 vanishes by parity, its two labels cancelling:
    # the value is the exact zero, beside the exact value 0
    code, out, _ = run_cli(capsys, "--prec", "12", "genbernoulli", "--p", "3",
                           "--char", "omega^1", "--n", "2")
    obj = json.loads(out)
    assert (code, obj["value"], obj["exact"]) == (0, {"p": 3, "zero": True}, "0/1")
    # and so does B_(2, omega^(-1)) in the closed form of an odd character
    code, out, _ = run_cli(capsys, "verify", "--p", "7", "--d", "1", "--m", "1",
                           "--char", "omega^1", "--c", "3", "--n", "2",
                           "--prec", "8", "--jmax", "8")
    obj = json.loads(out)
    assert (code, obj["lhs"], obj["rhs"]) == (0, {"p": 7, "zero": True}, {"p": 7, "zero": True})


def test_genbernoulli_table_char(capsys, tmp_path):
    path = tmp_path / "chi.json"
    path.write_text(json.dumps({"p": 5, "modulus": 3, "entries": {"1": 1, "2": 4}}))
    code, out, _ = run_cli(capsys, "genbernoulli", "--p", "5",
                           "--char", f"table:{path}", "--n", "1")
    assert code == 0
    assert json.loads(out)["exact"] == "-1/3"


def test_table_labels_are_read_mod_p(capsys, tmp_path):
    # 6 and -1 are the labels 1 and 4 mod 5
    path = tmp_path / "chi.json"
    path.write_text(json.dumps({"p": 5, "modulus": 3, "entries": {"1": 6, "2": -1}}))
    code, out, _ = run_cli(capsys, "char-info", "--p", "5", "--char", f"table:{path}")
    assert code == 0
    assert json.loads(out)["table"] == {"1": 1, "2": 4}


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
    # p is checked before the digits of its units are
    for argv in (["char-info", "--p", "4", "--char", "triv"],
                 ["--prec", str(10**9), "genbernoulli", "--p", "4", "--char", "triv",
                  "--n", "2"]):
        code, out, err = run_cli(capsys, *argv)
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
    # operator.index reads true as 1 and false as 0
    ({"p": 5, "modulus": 3, "entries": {"1": True, "2": 4}},
     "the character table label at 1 must be an integer, not True"),
    ({"p": 5, "modulus": 3, "entries": {"1": 1, "2": False}},
     "the character table label at 2 must be an integer, not False"),
    ({"p": True, "modulus": 3, "entries": {"1": 1, "2": 4}},
     "the character table's 'p' must be an integer, not True"),
    ({"p": 5, "modulus": True, "entries": {"0": 1}},
     "the character table's 'modulus' must be an integer, not True"),
], ids=["entries-list", "null-label", "null-modulus", "top-level-int", "float-p",
        "float-label", "true-label", "false-label", "true-p", "true-modulus"])
def test_malformed_table_file_is_a_usage_error(capsys, tmp_path, table, message):
    # exit 1 means "verification failed"; a bad input file is exit 2
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(table))
    code, out, err = run_cli(capsys, "char-info", "--p", "5", "--char", f"table:{path}")
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_a_table_file_is_checked_again_when_its_text_changes(capsys, tmp_path):
    # the checked character is kept by the file's text, not by its path,
    # and an error is never kept
    path = tmp_path / "chi.json"
    good = json.dumps({"p": 5, "modulus": 8, "entries": {"1": 1, "3": 4, "5": 1, "7": 4}})
    path.write_text(good)
    argv = ["char-info", "--p", "5", "--char", f"table:{path}"]
    first = run_cli(capsys, *argv)
    assert first[0] == 0 and json.loads(first[1])["conductor"] == 4
    path.write_text(json.dumps({"p": 5, "modulus": 8,
                                "entries": {"1": 1, "3": 4, "5": 4, "7": 4}}))
    for _ in range(2):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: character table is not multiplicative at the pair (")
    path.write_text(good)
    assert run_cli(capsys, *argv) == first



def test_a_table_file_is_read_as_utf8(capsys, tmp_path):
    # the bytes are decoded as UTF-8 whatever the locale: under the C locale
    # with UTF-8 mode off, whose encoding is ASCII, a non-ASCII key is still
    # read, and refused as a key; a file that is not UTF-8 is a usage error
    path = tmp_path / "chi.json"
    path.write_bytes('{"p": 5, "modulus": 5, "entries": {"1": 1, "\u00e9": 2}}'.encode())
    env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0",
           "PYTHONPATH": os.path.dirname(os.path.dirname(padiclf.__file__))}
    out = subprocess.run([sys.executable, "-m", "padiclf.cli", "char-info", "--p", "5",
                          "--char", f"table:{path}"], env=env, capture_output=True, timeout=60)
    assert (out.returncode, out.stdout) == (2, b"")
    assert out.stderr == b"error: invalid literal for int() with base 10: '\\xe9'\n"
    path.write_bytes(b'\xff{"p": 5, "modulus": 5, "entries": {"1": 1}}')
    code, out, err = run_cli(capsys, "char-info", "--p", "5", "--char", f"table:{path}")
    assert (code, out, err) == (
        2, "", "error: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte\n")


# json.loads raises RecursionError past its nesting limit: sys.getrecursionlimit()
# (1000) up to Python 3.11, the C recursion limit (10000 on Linux) on 3.12 and
# 3.13; 100000 levels is past both
@pytest.mark.parametrize("text", [
    "[" * 100000 + "]" * 100000,
    '{"p": 5, "modulus": 5, "entries": ' + '{"a": ' * 100000 + "1" + "}" * 100000 + "}",
], ids=["nested-lists", "nested-entries"])
@pytest.mark.parametrize("argv", [
    ["char-info", "--p", "5"],
    ["genbernoulli", "--p", "5", "--n", "1"],
    ["lp-eval", "--p", "5", "--d", "1", "--m", "1", "--c", "2", "--weight-k", "2"],
    ["verify", "--p", "5", "--d", "1", "--m", "1", "--c", "3", "--n", "4"],
], ids=["char-info", "genbernoulli", "lp-eval", "verify"])
def test_a_table_file_nested_too_deeply_is_a_usage_error(capsys, tmp_path, text, argv):
    path = tmp_path / "deep.json"
    path.write_text(text)
    code, out, err = run_cli(capsys, *argv, "--char", f"table:{path}")
    assert (code, out, err) == (
        2, "", "error: a character table file nests JSON past Python's recursion limit\n")


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


def assert_one_line_usage_error(capsys, argv, named):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error:") and err.count("\n") == 1 and err.endswith("\n")
    assert named in err


def test_unknown_flag_usage_error(capsys):
    assert_one_line_usage_error(capsys, ["bernoulli", "--wat", "1"], "--wat")


@pytest.mark.parametrize("argv, abbreviated", [
    # --p before the subcommand is not a prefix of the global --prec
    pytest.param(["--p", "5", "genbernoulli", "--p", "7", "--char", "omega^2", "--n", "2"],
                 "'--p'", id="argv0"),
    pytest.param(["--pre", "5", "bernoulli", "--n", "2"], "'--pre'", id="argv1"),
    pytest.param(["measure-check", "--p", "5", "--d", "1", "--c", "2", "--max", "1"],
                 "'--max'", id="argv2"),
    pytest.param(["lp-eval", "--p", "5", "--d", "1", "--m", "1", "--char", "omega^2",
                  "--c", "2", "--weight", "1"], "'--weight'", id="argv3"),
])
def test_abbreviated_flag_is_a_usage_error(capsys, argv, abbreviated):
    assert_one_line_usage_error(capsys, argv, abbreviated)


@pytest.mark.parametrize("argv, named", [
    (["lp-eval", "--p", "5", "--jmax", "x"], "--jmax"),
    (["bernoulli", "--n=seven"], "--n"),
    (["--prec", "1.5", "bernoulli", "--n", "2"], "--prec"),
    (["suite", "--profile", "fastest"], "--profile"),
    ([], "command"),
    (["--prec", "12"], "command"),
    (["bernoli", "--n", "2"], "bernoli"),
    (["lp-eval", "--p", "5", "--d", "1", "--m", "1", "--char", "omega^2", "--weight-k", "1"],
     "--c"),
    (["bernoulli", "--n"], "--n"),
    (["genbernoulli", "--p", "5", "--char", "--n", "2"], "--char"),
    (["bernoulli", "--n", "2", "3"], "'3'"),
    (["bernoulli", "--n", "2", "--prec", "5"], "--prec"),
    (["verify", "--p", "5", "--d", "1", "--m", "1", "--char", "omega^2", "--c", "2",
      "--n", "2", "--seed", "1"], "--seed"),
    # a token is quoted, so a newline in it stays on the one line
    (["bernoulli", "--n", "2", "--a\nb"], "'--a\\nb'"),
], ids=["invalid-int", "invalid-int-after-equals", "float-prec", "invalid-choice",
        "no-argv", "no-command", "unknown-command", "missing-required-flag",
        "missing-value", "flag-as-value", "stray-argument", "global-flag-after-command",
        "seed-after-verify", "newline-in-flag"])
def test_usage_error_is_one_stderr_line(capsys, argv, named):
    assert_one_line_usage_error(capsys, argv, named)


@pytest.mark.parametrize("argv, commands", [
    (["--help"], list(COMMANDS)),
    (["--prec", "12", "-h"], list(COMMANDS)),
    (["verify", "--p", "5", "--help"], ["verify"]),
    (["suite", "-h", "--wat"], ["suite"]),
])
def test_help_names_every_flag(capsys, argv, commands):
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert out.startswith("usage: padiclf ")
    for command in commands:
        assert f"\n{command} " in out
        assert all(flag in out for flag in [*GLOBAL_FLAGS, *COMMANDS[command][2]])
    assert all(f"\n{name} " not in out for name in COMMANDS if name not in commands)


def test_importing_the_cli_leaves_argparse_out():
    src = os.path.dirname(os.path.dirname(padiclf.__file__))
    code = subprocess.run(
        [sys.executable, "-c", "import sys, padiclf.cli; sys.exit('argparse' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": src}, timeout=60).returncode
    assert code == 0


@pytest.mark.parametrize("argv, degree", [
    (["bernoulli", "--n", "20000"], 20000),
    (["lp-eval", "--p", "5", "--d", "1", "--m", "1", "--char", "omega^2", "--c", "2",
      "--weight-k", "20000"], 20001),
    (["genbernoulli", "--p", "5", "--char", "omega^2", "--n", "20000"], 20000),
    (["verify", "--p", "5", "--d", "1", "--m", "1", "--char", "omega^2", "--c", "2",
      "--n", "2001"], 2001),
])
def test_bernoulli_degree_past_the_limit_is_refused(capsys, argv, degree):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: B_{degree} is past the maximum Bernoulli degree 2000\n"


def test_genbernoulli_prints_an_exact_value_past_the_int_string_limit(capsys):
    # B_(2000, omega^2) is inside the degree bound, and its numerator has
    # more digits than Python's default limit of 4300 on str(int)
    code, out, err = run_cli(capsys, "genbernoulli", "--p", "5", "--char", "omega^2",
                             "--n", "2000")
    assert (code, err) == (0, "")
    obj = json.loads(out)
    num, den = obj["exact"].split("/")
    assert len(num) > 4300
    with int_str_limit(0):
        exact = Fraction(int(num), int(den))
    assert PadicNum.from_rational(5, exact, obj["value"]["relprec"]).to_json() == obj["value"]


@pytest.mark.parametrize("argv", [
    ["genbernoulli", "--p", "5", "--char", "triv", "--n", "2"],
    ["verify", "--p", "5", "--d", "1", "--m", "1", "--char", "omega^2", "--c", "3", "--n", "4"],
    # the value has min(prec, jmax) digits
    ["lp-eval", "--p", "5", "--d", "1", "--m", "1", "--char", "omega^2", "--c", "2",
     "--weight-k", "2", "--jmax", str(10**9)],
], ids=["genbernoulli", "verify", "lp-eval"])
def test_units_past_the_int_string_limit_are_refused_before_any_work(capsys, monkeypatch,
                                                                      argv):
    # 5^6151 < 10^4300 < 5^6152, so a unit mod 5^6152 can pass MAX_UNIT_DIGITS;
    # the bound is the same whatever Python's own limit on str(int) is (0:
    # none, 640 the least it allows, 4300 its default).  At 10^9 digits no
    # power of 5 is built
    def work(*args):
        raise AssertionError("the computation started")

    for name in ("general_bernoulli_coeffs", "p_adic_L", "verify_interpolation"):
        monkeypatch.setattr(cli, name, work)
    assert cli.MAX_UNIT_DIGITS == 4300
    for limit in (0, 640, 4300):
        for prec in (6152, 10**9):
            with int_str_limit(limit):
                code, out, err = run_cli(capsys, "--prec", str(prec), *argv)
            assert (code, out) == (2, "")
            assert err == (f"error: a 5-adic unit to {prec} digits can have more than 4300 "
                           "decimal digits, the most that is printed\n")


def test_an_exploding_horner_accumulator_is_refused(capsys):
    # (k + 1) log2(5^6000) is about 2.8 * 10^7 bits at k = 1999, and more than
    # (k + 1) * 6000 * 2 = 2.4 * 10^7, the bound 5^6000 >= 2^12000 gives
    code, out, err = run_cli(capsys, "lp-eval", "--p", "5", "--d", "1", "--m", "1",
                             "--char", "omega^2", "--c", "2", "--weight-k", "1999",
                             "--prec", "6000", "--jmax", "6000")
    assert (code, out) == (2, "")
    assert err == ("error: a unit sum of degree 1999 at level 6000 would run Horner's rule "
                   "on ints of more than 24000000 bits, over the limit of 1500000\n")


LARGEST_C = 2**63 - 1  # the largest c whose carry weights range has a len on a 64-bit build


@pytest.mark.parametrize("command, weight", [("lp-eval", "--weight-k"), ("verify", "--n")])
def test_a_c_past_what_the_pass_walks_is_refused(capsys, command, weight):
    code, out, err = run_cli(capsys, command, "--p", "5", "--d", "1", "--m", "1",
                             "--char", "omega^2", "--c", str(LARGEST_C + 4), weight, "2")
    assert (code, out) == (2, "")
    assert err == f"error: c is past {LARGEST_C}, the largest c the residue pass walks\n"


@pytest.mark.parametrize("command, weight, digest", [
    ("lp-eval", "--weight-k", "d1e3aa0355f2705efc8c557b2525703e"),
    ("verify", "--n", "db443d490aab2bdc801a7676f94ffb2c"),
])
def test_the_largest_c_the_pass_walks_answers(capsys, command, weight, digest):
    code, out, err = run_cli(capsys, command, "--p", "5", "--d", "1", "--m", "1",
                             "--char", "omega^2", "--c", str(LARGEST_C), weight, "2")
    assert (code, err) == (0, "")
    assert hashlib.md5(out.encode()).hexdigest() == digest


def test_a_huge_level_is_refused_before_it_is_built(capsys):
    # 5^(10^7) >= 2^(2 * 10^7), so the ints of a degree-2 sum there have more
    # than 6 * 10^7 bits: refused by that bound, before the level is built
    m = str(10**7)
    code, out, err = run_cli(capsys, "lp-eval", "--p", "5", "--d", "1", "--m", m,
                             "--char", "omega^2", "--c", "2", "--weight-k", "2", "--jmax", m)
    assert (code, out) == (2, "")
    assert err == (f"error: a unit sum of degree 2 at level {m} would run Horner's rule "
                   "on ints of more than 60000000 bits, over the limit of 1500000\n")


@pytest.mark.parametrize("command, weight", [("lp-eval", "--weight-k"), ("verify", "--n")])
def test_a_level_past_the_default_jmax_is_refused_at_once(capsys, command, weight):
    code, out, err = run_cli(capsys, command, "--p", "5", "--d", "1", "--m", "2000000",
                             "--char", "omega^2", "--c", "2", weight, "2")
    assert (code, out, err) == (2, "", "error: j_max=7 is below max(j_min=1, "
                                       "m=2000000)\n")


@pytest.mark.parametrize("command, weight", [("lp-eval", "--weight-k"), ("verify", "--n")])
def test_lp_call_reads_chi_at_its_own_level(capsys, monkeypatch, tmp_path,
                                             empty_character_caches, command, weight):
    # chi is never lifted to d*p^m: no change of level, and no generators
    # of d*p^m are asked for
    def lifted(self, m):
        raise AssertionError(f"chi lifted to level {m}")

    seen = []
    generators = dirichlet._generators

    def recorded(n):
        seen.append(n)
        return generators(n)

    monkeypatch.setattr(dirichlet.DirichletCharacter, "change_level", lifted)
    monkeypatch.setattr(dirichlet, "_generators", recorded)
    # chi_4 omega at level 20, the real character mod 4 times omega
    path = tmp_path / "chi4-omega.json"
    path.write_text(json.dumps({"p": 5, "modulus": 20, "entries": {
        str(a): (1 if a % 4 == 1 else -1) * a % 5
        for a in range(20) if a % 2 and a % 5}}))
    for d, char in (("1", "omega^2"), ("4", f"table:{path}")):
        code, out, err = run_cli(capsys, command, "--p", "5", "--d", d, "--m", "3",
                                 "--char", char, "--c", "3", weight, "2")
        assert (code, err) == (0, "")
        assert int(d) * 5**3 not in seen


def test_units_inside_the_int_string_limit_are_printed(capsys):
    # 5^915 < 10^640 < 5^916: under Python's least limit on str(int), 640,
    # units mod 5^916, which can have 641 digits, print all the same
    genbernoulli = ["genbernoulli", "--p", "5", "--char", "triv"]
    with int_str_limit(640):
        code, out, err = run_cli(capsys, "--prec", "916", *genbernoulli, "--n", "2")
        assert (code, err) == (0, "")
        with int_str_limit(0):
            assert json.loads(out)["value"]["relprec"] == 916
        # B_12 has valuation -1 at 5: its unit to 915 absolute digits has 916
        code, out, err = run_cli(capsys, "--prec", "915", *genbernoulli, "--n", "12")
        assert (code, err) == (0, "")
        with int_str_limit(0):
            assert json.loads(out)["value"]["relprec"] == 916
        # lp-eval prints min(prec, jmax) digits, 7 at the default --jmax
        code, out, err = run_cli(capsys, "--prec", "916", "lp-eval", "--p", "5", "--d", "1",
                                 "--m", "1", "--char", "omega^2", "--c", "2", "--weight-k", "2")
        assert (code, err) == (0, "") and json.loads(out)["value"]["relprec"] == 7
        assert sys.get_int_max_str_digits() == 640


def test_genbernoulli_units_carry_the_valuation_of_the_denominator(capsys):
    # B_12 = -691/2730 has valuation -1 at 5, so its unit to 6151 absolute
    # digits is known mod 5^6152 and has 4301 digits: the bound reads
    # --prec alone, so it prints
    code, out, err = run_cli(capsys, "--prec", "6151", "genbernoulli", "--p", "5",
                             "--char", "triv", "--n", "12")
    assert (code, err) == (0, "")
    with int_str_limit(0):
        obj = json.loads(out)
    assert obj["exact"] == "-691/2730" and obj["value"]["relprec"] == 6152
    assert obj["value"]["unit"] >= 10**4300
    expected = PadicNum.from_rational(5, Fraction(-691, 2730), 6152)
    assert (expected.abs_precision, expected.to_json()) == (6151, obj["value"])


@pytest.mark.parametrize("n", [0, 7, 10**599, -(10**600), 10**4300 - 1, -(10**5000) // 7,
                               3**20000],
                         ids=["0", "7", "10^599", "-10^600", "10^4300-1", "-10^5000/7", "3^20000"])
def test_int_str_writes_every_length(capsys, n):
    # _emit writes every int and every Fraction at any length, under
    # Python's least limit on str(int), and leaves that limit as it was
    with int_str_limit(0):
        expected = f'[{n}, "{n}/7"]\n' if n % 7 else f'[{n}, "{n // 7}/1"]\n'
    with int_str_limit(640):
        cli._emit([n, Fraction(n, 7)])
        assert sys.get_int_max_str_digits() == 640
    assert capsys.readouterr().out == expected


def test_emit_restores_the_int_string_limit_when_writing_fails(capsys):
    with int_str_limit(640):
        with pytest.raises(TypeError, match="object is not JSON serializable"):
            cli._emit([10**1000, object()])
        assert sys.get_int_max_str_digits() == 640
    assert capsys.readouterr().out == ""


def test_parser_reused_across_calls(capsys):
    # one process, three calls: a usage error that sets the global --prec,
    # then the same lp-eval twice
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
    assert parse_argv(lp) == parse_argv(lp)


def test_measure_check_passes(capsys):
    code, out, _ = run_cli(capsys, "measure-check", "--p", "3", "--d", "2",
                           "--c", "7", "--max-level", "2")
    assert code == 0
    obj = json.loads(out)
    assert obj["pass"] is True and obj["counterexamples"] == []


def test_measure_check_cost_is_independent_of_prec(capsys):
    # at --prec 1000000 this argv used to run for more than a minute
    argv = ("--seed", "5", "measure-check", "--p", "7", "--d", "4", "--c", "3",
            "--max-level", "3")
    assert run_cli(capsys, "--prec", "1000000", *argv) == run_cli(capsys, "--prec", "12", *argv)


def test_measure_check_invalid_params(capsys):
    code, _, err = run_cli(capsys, "measure-check", "--p", "5", "--d", "5", "--c", "2")
    assert code == 2
    assert "gcd" in err


@pytest.mark.parametrize("argv, message", [
    (("--p", "7", "--d", "4", "--c", "3", "--max-level", "-1"),
     "error: max_level must be >= 0, got -1\n"),
    # a huge level is refused at no cost: 2 (L + 1) + 1 values read, 3 (2 L + 1)
    # terms summed
    (("--p", "3", "--d", "1", "--c", "2", "--max-level", "1000000000"),
     "error: a sweep to level 1000000000 reads 2000000003 values and sums 6000000003 "
     "terms, over the limit of 2000000\n"),
    # just past the limit: 8 L + 6 = 2000006 at L = 250000, where 249999 answers
    (("--p", "3", "--d", "1", "--c", "2", "--max-level", "250000"),
     "error: a sweep to level 250000 reads 500003 values and sums 1500003 "
     "terms, over the limit of 2000000\n"),
])
def test_measure_check_refuses_bad_max_level(capsys, argv, message):
    code, out, err = run_cli(capsys, "measure-check", *argv)
    assert (code, out, err) == (2, "", message)


@pytest.mark.parametrize("argv", [("--p", "7", "--d", "4", "--c", "3", "--max-level", "9"),
                                  ("--p", "7", "--d", "13", "--c", "2", "--max-level", "5"),
                                  ("--p", "3", "--d", "1", "--c", "2", "--max-level", "40")])
def test_measure_check_answers_past_whole_table_size(capsys, argv):
    # refused while the limit counted whole level tables ((p + 1) d sum p^m
    # values: 1506534656, 2039232 and more than 10^19); the sweep reads one
    # period of c values a level, so each answers
    code, out, err = run_cli(capsys, "measure-check", *argv)
    assert (code, err) == (0, "")
    assert json.loads(out)["pass"] is True



def test_measure_check_reports_an_unbounded_reading(capsys, monkeypatch):
    # with the sweep reading E_c / p, still a distribution, the 41 residues of
    # levels 0 to 2 where E_c is not 0 are counterexamples, ||E_c(U) / p|| = 5 > K = 3
    monkeypatch.setattr(cli, "measure_failures", functools.partial(
        measure.measure_failures, values=level_period(bernoulli_distribution_over_p)))
    code, out, err = run_cli(capsys, "measure-check", "--p", "5", "--d", "2", "--c", "3",
                             "--max-level", "2")
    obj = json.loads(out)
    assert (code, err, obj["pass"]) == (1, "", False)
    assert len(obj["counterexamples"]) == 41
    assert obj["counterexamples"][0] == {"kind": "boundedness", "level": 0, "x": 0,
                                         "lhs": "5/1", "rhs": "3/1"}
    assert {(e["kind"], e["lhs"], e["rhs"]) for e in obj["counterexamples"]} == \
        {("boundedness", "5/1", "3/1")}


def test_measure_check_does_not_read_the_seed(capsys):
    argv = ("measure-check", "--p", "7", "--d", "4", "--c", "3", "--max-level", "3")
    first = run_cli(capsys, "--seed", "0", *argv)
    assert first[0] == 0 and json.loads(first[1])["pass"] is True
    assert run_cli(capsys, "--seed", "12345", *argv) == first

def test_lp_eval_report(capsys):
    code, out, _ = run_cli(capsys, "lp-eval", "--p", "5", "--d", "1", "--m", "1",
                           "--char", "omega^2", "--c", "2", "--weight-k", "1",
                           "--prec", "12", "--jmax", "7", "--target", "4")
    assert code == 0
    obj = json.loads(out)
    assert set(obj) == {"value", "level_used"}
    assert obj["level_used"] == 7 and obj["value"]["relprec"] == 7


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


@pytest.mark.parametrize("p, e", [(37, 32), (59, 44), (67, 58)])
@pytest.mark.parametrize("n", ["2", "3"])
def test_verify_passes_where_both_sides_vanish(capsys, p, e, n):
    # at an irregular pair v(R) >= 1, and with one certified digit L and R are
    # both zero to precision 1: neither sign is provable, both congruences
    # hold to the target, so the call passes with the sign "both"
    code, out, _ = run_cli(capsys, "verify", "--p", str(p), "--d", "1", "--m", "1",
                           "--char", f"omega^{e}", "--c", "2", "--n", n,
                           "--prec", "1", "--jmax", "1", "--target", "1")
    assert code == 0
    zero = {"p": p, "zero_to_precision": 1}
    assert json.loads(out) == {"lhs": zero, "rhs": zero, "sign": "both",
                               "valuation_of_difference": None,
                               "valuation_is_exact": None, "pass": True}


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
    # 8 digits certified, summed at the first level of the range
    assert report["level_used"] == 9 and report["value"]["relprec"] == 8
    code, out, _ = run_cli(capsys, "verify", *args, "--n", "4")
    assert code == 0
    obj = json.loads(out)
    assert obj["pass"] is True and obj["sign"] == "+"
    assert obj["lhs"] == report["value"]


@pytest.mark.parametrize("command, weight", [("lp-eval", "--weight-k"), ("verify", "--n")])
def test_a_call_short_of_target_is_refused_before_any_sum(capsys, monkeypatch, command,
                                                           weight):
    # min(prec, jmax) = 3 digits cannot reach --target 8
    def summed(*args):
        raise AssertionError("a sum was taken")

    monkeypatch.setattr(lfunction, "riemann_sum", summed)
    code, out, err = run_cli(capsys, command, "--p", "5", "--d", "1", "--m", "1",
                             "--char", "omega^2", "--c", "3", weight, "2",
                             "--prec", "12", "--jmax", "3", "--target", "8")
    assert (code, out, err) == (2, "", "error: min(relprec=12, j_max=3) = 3 certified digits "
                                       "do not reach the target valuation 8\n")


def test_verify_odd_character_passes_with_both_signs(capsys):
    # L = 0 exactly and R = 0 to every digit: neither sign is provable and
    # both congruences hold
    code, out, err = run_cli(capsys, "verify", "--p", "5", "--d", "1", "--m", "1",
                             "--char", "omega^1", "--c", "2", "--n", "2")
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["lhs"] == {"p": 5, "zero": True}
    assert (report["sign"], report["pass"]) == ("both", True)


def test_lp_eval_odd_character_answers_the_exact_zero(capsys):
    # L_p vanishes for odd chi: the exact zero, {"zero": true}, not a zero
    # to some precision
    code, out, err = run_cli(capsys, "lp-eval", "--p", "5", "--d", "1", "--m", "1",
                             "--char", "omega^1", "--c", "2", "--weight-k", "1")
    assert (code, err) == (0, "")
    assert json.loads(out) == {"value": {"p": 5, "zero": True}, "level_used": 7}


@pytest.mark.parametrize("command, weight", [("lp-eval", "--weight-k"), ("verify", "--n")])
def test_lp_call_checks_p_d_c_once(capsys, monkeypatch, command, weight):
    # LpParams checks (p, d, c) first, as the one owner of the call's checks;
    # the CLI checks nothing of it itself
    checked = []
    post_init = measure.BernoulliParams.__post_init__

    def counted(self):
        checked.append((self.p, self.d, self.c))
        post_init(self)

    monkeypatch.setattr(measure.BernoulliParams, "__post_init__", counted)
    for _ in range(2):
        code, out, err = run_cli(capsys, command, "--p", "5", "--d", "1", "--m", "1",
                                 "--char", "omega^2", "--c", "2", weight, "2")
        assert (code, err) == (0, "")
    assert checked == [(5, 1, 2)] * 2


@pytest.mark.parametrize("flags, message", [
    (("--m", "0", "--c", "2"), "m must be >= 1"),
    (("--m", "1", "--c", "1"), "c must be >= 2"),
    (("--m", "8", "--c", "2"), "j_max=7 is below max(j_min=1, m=8)"),
    (("--m", "1", "--c", "2", "--jmin", "9", "--jmax", "8"), "j_max=8 is below max(j_min=9, m=1)"),
], ids=["m", "c", "jmax", "jmin"])
@pytest.mark.parametrize("command, weight", [("lp-eval", "--weight-k"), ("verify", "--n")])
def test_lp_call_checks_its_scalars_before_reading_a_table(capsys, monkeypatch, tmp_path,
                                                           command, weight, flags, message):
    # LpParams parses --char after (p, d, c), m and the level range, so a
    # call that one of them refuses never reads the table file
    def load(path):
        raise AssertionError(f"{path} read")

    monkeypatch.setattr(dirichlet, "load_table_character", load)
    path = tmp_path / "omega2.json"
    path.write_text(json.dumps({"p": 5, "modulus": 5,
                                "entries": {"1": 1, "2": 4, "3": 4, "4": 1}}))
    code, out, err = run_cli(capsys, command, "--p", "5", "--d", "1", *flags,
                             "--char", f"table:{path}", weight, "1")
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("command, weight", [("lp-eval", "--weight-k"), ("verify", "--n")])
def test_lp_call_tests_p_for_primality_once(capsys, monkeypatch, command, weight):
    # the measure parameters and omega^2's Teichmuller character both check
    # that p is an odd prime; only the first runs the test
    modarith._is_odd_prime.cache_clear()
    tested = []
    is_prime = modarith.is_prime

    def counted(n):
        tested.append(n)
        return is_prime(n)

    monkeypatch.setattr(modarith, "is_prime", counted)
    code, out, err = run_cli(capsys, command, "--p", "7", "--d", "1", "--m", "1",
                             "--char", "omega^2", "--c", "2", weight, "2")
    assert (code, err) == (0, "")
    assert tested.count(7) == 1


@pytest.mark.parametrize("p", ["1", "2", "4", "9"])
@pytest.mark.parametrize("command, weight", [("lp-eval", "--weight-k"), ("verify", "--n")])
def test_lp_call_refuses_a_p_that_is_not_an_odd_prime_every_time(capsys, command, weight, p):
    # the kept answer is the refusal itself, with the same line and exit code
    for _ in range(2):
        code, out, err = run_cli(capsys, command, "--p", p, "--d", "1", "--m", "1",
                                 "--char", "omega^2", "--c", "3", weight, "2")
        assert (code, out, err) == (2, "", "error: p must be an odd prime\n")


@pytest.mark.parametrize("p, d, c, message", [
    ("4", "1", "2", "p must be an odd prime"),
    ("5", "0", "2", "d must be a positive integer"),
    ("5", "5", "2", "gcd(d=5, p=5) != 1"),
    ("5", "1", "1", "c must be >= 2"),
    ("5", "2", "10", "gcd(c=10, dp=10) != 1"),
])
@pytest.mark.parametrize("command, weight", [("lp-eval", "--weight-k"), ("verify", "--n")])
def test_lp_call_refuses_bad_p_d_c(capsys, command, weight, p, d, c, message):
    code, out, err = run_cli(capsys, command, "--p", p, "--d", d, "--m", "1",
                             "--char", "omega^2", "--c", c, weight, "2")
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("command, weight", [("lp-eval", "--weight-k"), ("verify", "--n")])
def test_subcommand_prec_overrides_the_global_flag(command, weight):
    argv = [command, "--p", "5", "--d", "1", "--m", "1", "--char", "omega^2",
            "--c", "2", weight, "2"]
    parse = parse_argv
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
def test_lp_eval_cost_is_flat_in_the_character_level(capsys, monkeypatch, m,
                                                     empty_character_caches):
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


def test_lp_eval_sums_only_the_certified_digits(capsys, monkeypatch):
    # J = jmax = 7 certifies 7 digits, so at --prec 3000 the kernel works
    # mod 5^7, not mod 5^3000, and prints what --prec 7 prints
    moduli = []
    kernel = lfunction._unit_sum

    def counted(psi, d, j, k, relprec, weights=(1,)):
        moduli.append(psi.p**relprec)
        return kernel(psi, d, j, k, relprec, weights)

    monkeypatch.setattr(lfunction, "_unit_sum", counted)
    reports = []
    for prec in ("3000", "7"):
        code, out, err = run_cli(capsys, "--prec", prec, "lp-eval", "--p", "5", "--d", "1",
                                 "--m", "1", "--char", "omega^2", "--c", "2", "--weight-k", "2")
        assert (code, err) == (0, "")
        reports.append(json.loads(out))
    assert moduli == [5**7, 5**7]
    assert reports[0] == reports[1]
    assert reports[0]["value"]["relprec"] == 7


def test_verify_builds_the_twist_table_once(capsys, monkeypatch, empty_character_caches):
    # riemann_sum at weight n - 1 and the closed form at n, both its
    # B_(n, chi omega^(-n)) and its chi(c) <c>^n, read only chi omega^(-n) =
    # omega^4, which is made and tabled once; chi = omega^2 is never tabled
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
    assert built == [(7, (4,))]


def test_outputs_do_not_depend_on_the_order_of_calls(capsys, tmp_path):
    # interned characters and kept table files carry tables, conductors and
    # twists from one call to the next; no output may depend on which call
    # built them first
    omega2 = tmp_path / "omega2.json"
    omega2.write_text(json.dumps({"p": 5, "modulus": 5,
                                  "entries": {"1": 1, "2": 4, "3": 4, "4": 1}}))
    # omega times the character mod 3: even, of conductor 15
    mod15 = tmp_path / "mod15.json"
    mod15.write_text(json.dumps({"p": 5, "modulus": 15, "entries": {
        str(a): (a if a % 3 == 1 else -a) % 5 for a in range(15) if a % 3 and a % 5}}))
    lp = ["--c", "2", "--prec", "10"]
    argvs = [
        ["lp-eval", "--p", "5", "--d", "1", "--m", "2", "--char", f"table:{omega2}",
         "--weight-k", "3", *lp],
        ["verify", "--p", "5", "--d", "3", "--m", "1", "--char", f"table:{mod15}",
         "--n", "2", *lp],
        ["char-info", "--p", "5", "--char", f"table:{mod15}"],
        ["genbernoulli", "--p", "5", "--char", f"table:{mod15}", "--n", "4"],
        ["lp-eval", "--p", "5", "--d", "3", "--m", "2", "--char", f"table:{mod15}",
         "--weight-k", "2", *lp],
        ["verify", "--p", "5", "--d", "1", "--m", "2", "--char", "omega^2", "--n", "4", *lp],
        ["char-info", "--p", "5", "--char", "omega^2"],
        ["genbernoulli", "--p", "5", "--char", f"table:{omega2}", "--n", "6"],
        ["lp-eval", "--p", "5", "--d", "1", "--m", "1", "--char", "omega^2",
         "--weight-k", "3", *lp],
    ]
    runs = []
    for order in (argvs, argvs[::-1]):
        clear_character_caches()
        runs.append({tuple(argv): run_cli(capsys, *argv) for argv in order})
    assert runs[0] == runs[1]
    assert all(code in (0, 1) and err == "" for code, _, err in runs[0].values())


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
    # nor does its Bernoulli label sum, whose exponents are all 0
    code, out, err = run_cli(capsys, "genbernoulli", "--p", str(p), "--char", "triv", "--n", "2")
    assert (code, err) == (0, "")
    assert hashlib.md5(out.encode()).hexdigest() == "c1e0cda4f8807396593c9d763555c6c6"


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
