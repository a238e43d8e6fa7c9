"""Verification grids: each runs one standard grid of calls and returns
(cases, failures, digest of the outputs), so that a change that must not
move an output can be checked on the whole grid, and one that moves it on
purpose records the digest old -> new.

Run as a script to print each grid's result:

    PYTHONPATH=src python tests/grids.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import tempfile
from collections import Counter
from pathlib import Path

from fractions import Fraction

from oracles import (
    general_bernoulli_coeffs_fraction,
    riemann_sum_bruteforce,
    special_value_closed_form_padic,
    twisted_unit_sum_bruteforce,
)
from padiclf import cli
from padiclf.dirichlet import DirichletCharacter
from padiclf.genbernoulli import _unit_sum, chi_omega_minus_k, general_bernoulli_coeffs
from padiclf.lfunction import LpParams, Weight, riemann_sum, special_value_closed_form
from padiclf.padic import PadicNum, eq_mod


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _run_grid(argvs, answered_ok, tmp: str = "") -> tuple[Counter, list, str]:
    """(the count of calls by exit code, the argvs that break the contract,
    the first 16 hex digits of the sha256 of every argv, exit code, stdout
    and stderr) over argvs.  A nonempty tmp, the directory of the files the
    argvs read, is hashed as `<tmp>`, so that the digest does not depend
    on where the files are.

    The contract: a call exits 0 with one JSON document that answered_ok
    accepts and nothing on stderr, or is refused with exit 2, nothing on
    stdout and one `error:` line on stderr.
    """
    cases, failures, digest = Counter(), [], hashlib.sha256()
    for argv in argvs:
        code, out, err = run_cli(argv)
        cases[code] += 1
        line = json.dumps([argv, code, out, err])
        digest.update((line.replace(tmp, "<tmp>") if tmp else line).encode() + b"\n")
        if code == 0:
            ok = err == "" and answered_ok(argv, json.loads(out))
        else:
            ok = code == 2 and out == "" and err.startswith("error: ") and err.count("\n") == 1
        if not ok:
            failures.append(argv)
    return cases, failures, digest.hexdigest()[:16]


def measure_check_argvs() -> list[list[str]]:
    """`--seed s measure-check --p p --d d --c c --max-level m` over p in
    {3, 5, 7, 11, 13}, d from 1 to 6, c from 2 to 8, m in {-1, 0, 1, 2, 3}
    with d p^m <= 3000, and s in {0, 1, 7}: admissible and refused
    (p, d, c) alike."""
    return [["--seed", str(seed), "measure-check", "--p", str(p), "--d", str(d),
             "--c", str(c), "--max-level", str(level)]
            for p in (3, 5, 7, 11, 13) for d in range(1, 7) for c in range(2, 9)
            for level in (-1, 0, 1, 2, 3) if level < 0 or d * p**level <= 3000
            for seed in (0, 1, 7)]


def measure_check_grid() -> tuple[Counter, list, str]:
    """_run_grid over measure_check_argvs(): the genuine E_c passes, so
    every answer passes."""
    return _run_grid(measure_check_argvs(), lambda argv, obj: obj["pass"] is True)


def interpolation_argvs() -> list[list[str]]:
    """`verify --p p --d 1 --m 1 --char omega^e --c c --n n --prec 12
    --jmax 12` over p in {3, 5, 7, 11, 13}, every even e < p - 1, c from 2
    to 15 prime to p, and n from 2 to 8: every even character of
    conductor 1 or p."""
    return [["verify", "--p", str(p), "--d", "1", "--m", "1", "--char", f"omega^{e}",
             "--c", str(c), "--n", str(n), "--prec", "12", "--jmax", "12"]
            for p in (3, 5, 7, 11, 13) for e in range(0, p - 1, 2)
            for c in range(2, 16) if c % p for n in range(2, 9)]


def _interpolates(argv, obj) -> bool:
    return obj["pass"] is True and obj["sign"] == "+"


def interpolation_grid() -> tuple[Counter, list, str]:
    """_run_grid over interpolation_argvs(): the integral at weight n - 1
    agrees with the closed form at n, with sign +, in every call."""
    return _run_grid(interpolation_argvs(), _interpolates)


def level_rule_argvs() -> list[list[str]]:
    """`lp-eval ... --weight-k 2` and `verify ... --n 2` with `--p p --d 1
    --m 1 --char omega^2 --c 2` over p in {3, 5, 7}, --prec in {2, 6, 12},
    --jmin in {1, 3, 9}, --jmax in {1, 2, 3, 5, 8} and --target in
    {1, 3, 4, 8}: level ranges empty and not, and precisions below and
    above the target."""
    return [[command, "--p", str(p), "--d", "1", "--m", "1", "--char", "omega^2",
             "--c", "2", weight, "2", "--prec", str(prec), "--jmin", str(jmin),
             "--jmax", str(jmax), "--target", str(target)]
            for command, weight in (("lp-eval", "--weight-k"), ("verify", "--n"))
            for p in (3, 5, 7) for prec in (2, 6, 12) for jmin in (1, 3, 9)
            for jmax in (1, 2, 3, 5, 8) for target in (1, 3, 4, 8)]


def _certified_digits(value: dict) -> int:
    """The absolute precision of a PadicNum from its JSON form."""
    if "zero_to_precision" in value:
        return value["zero_to_precision"]
    return value["valuation"] + value["relprec"]


def _answers_to_target(argv, obj) -> bool:
    if argv[0] == "verify":
        return _interpolates(argv, obj)
    return _certified_digits(obj["value"]) >= int(argv[argv.index("--target") + 1])


def level_rule_grid() -> tuple[Counter, list, str]:
    """_run_grid over level_rule_argvs(): every answer certifies --target
    digits, and every verify answer passes with sign +."""
    return _run_grid(level_rule_argvs(), _answers_to_target)


# chi_d(a) for the real primitive character mod d in {1, 3, 4, 8}; mod 8 it is
# the even one, the Kronecker symbol (8/a)
_REAL_CHARACTER = {1: lambda a: 1, 3: lambda a: 1 if a % 3 == 1 else -1,
                   4: lambda a: 1 if a % 4 == 1 else -1,
                   8: lambda a: 1 if a % 8 in (1, 7) else -1}


def character_tables() -> list[tuple[int, int, int, dict]]:
    """(p, d, e, table) for chi_d omega^e at level d p, with p in {3, 5, 7,
    11, 13}, d in {1, 3, 4, 8} prime to p, every e < p - 1, chi_d the real
    primitive character mod d, and table {"a": chi_d(a) a^e mod p} over
    the units a mod d p: the residue label of each value."""
    return [(p, d, e, {str(a): _REAL_CHARACTER[d](a) * pow(a, e, p) % p
                       for a in range(d * p) if math.gcd(a, d * p) == 1})
            for p in (3, 5, 7, 11, 13) for d in (1, 3, 4, 8) if math.gcd(d, p) == 1
            for e in range(p - 1)]


def character_argvs(tmp: str) -> list[list[str]]:
    """Over the characters of character_tables(), each written to a table
    file in the directory tmp: `char-info`, `--prec 12 genbernoulli --n n`
    for n from 1 to 6, and, for an even character, `verify --d d --m 1
    --c c --n n --prec 12 --jmax 12` for c in {2, 3, 7, 11} prime to d p
    and n from 2 to 5."""
    argvs = []
    for p, d, e, table in character_tables():
        path = Path(tmp, f"chi{d}-omega{e}-p{p}.json")
        path.write_text(json.dumps({"p": p, "modulus": d * p, "entries": table}))
        char = ["--p", str(p), "--char", f"table:{path}"]
        argvs.append(["char-info", *char])
        argvs += [["--prec", "12", "genbernoulli", *char, "--n", str(n)] for n in range(1, 7)]
        if table[str(d * p - 1)] == 1:
            argvs += [["verify", *char, "--d", str(d), "--m", "1", "--c", str(c), "--n", str(n),
                       "--prec", "12", "--jmax", "12"]
                      for c in (2, 3, 7, 11) if math.gcd(c, d * p) == 1 for n in range(2, 6)]
    return argvs


def character_grid() -> tuple[Counter, list, str]:
    """_run_grid over character_argvs(): every call answers, and every
    verify answer passes with sign +."""
    with tempfile.TemporaryDirectory() as tmp:
        return _run_grid(character_argvs(tmp),
                         lambda argv, obj: argv[0] != "verify" or _interpolates(argv, obj), tmp)


def odd_character_argvs(tmp: str) -> list[list[str]]:
    """`lp-eval --weight-k k` for k in {0, 1, 2, 5} and `verify --n n` for n
    in {2, 3}, each with `--d d --m 1 --c c --prec 10 --jmax 10` and c in
    {2, 3, 7, 11} prime to d p, over every odd character: omega^e for odd
    e < p - 1 (d = 1) and the odd tame chi_d omega^e of character_tables()
    (d > 1), each written to a table file in the directory tmp."""
    argvs = []
    for p, d, e, table in character_tables():
        if table[str(d * p - 1)] == 1:
            continue
        if d == 1:
            char = ["--p", str(p), "--char", f"omega^{e}"]
        else:
            path = Path(tmp, f"chi{d}-omega{e}-p{p}.json")
            path.write_text(json.dumps({"p": p, "modulus": d * p, "entries": table}))
            char = ["--p", str(p), "--char", f"table:{path}"]
        for c in (2, 3, 7, 11):
            if math.gcd(c, d * p) == 1:
                level = [*char, "--d", str(d), "--m", "1", "--c", str(c),
                         "--prec", "10", "--jmax", "10"]
                argvs += [["lp-eval", *level, "--weight-k", str(k)] for k in (0, 1, 2, 5)]
                argvs += [["verify", *level, "--n", str(n)] for n in (2, 3)]
    return argvs


def _vanishes(argv, obj) -> bool:
    """An odd chi: lp-eval answers the exact zero at level 10, and the
    kernel's own sum there is 0 to its 10 digits; verify passes with the
    exact zero on the left and the sign "both"."""
    def arg(flag):
        return argv[argv.index(flag) + 1]

    p = int(arg("--p"))
    if argv[0] == "verify":
        return (obj["pass"] is True and obj["sign"] == "both"
                and obj["lhs"] == {"p": p, "zero": True})
    params = LpParams(p=p, d=int(arg("--d")), c=int(arg("--c")), m=1, chi=arg("--char"),
                      relprec=10, j_max=10)
    kernel = riemann_sum(params, Weight(int(arg("--weight-k"))), 10, 10)
    return (obj == {"value": {"p": p, "zero": True}, "level_used": 10}
            and kernel.is_zero_at_precision() and kernel.abs_precision == 10)


def odd_character_grid() -> tuple[Counter, list, str]:
    """_run_grid over odd_character_argvs(): every answer is the exact zero
    that the kernel's sum confirms to its digits, and every verify passes
    with the sign "both"."""
    with tempfile.TemporaryDirectory() as tmp:
        return _run_grid(odd_character_argvs(tmp), _vanishes, tmp)


def _character(p: int, d: int, table: dict) -> DirichletCharacter:
    """The character of a character_tables() entry, at its level d p."""
    return DirichletCharacter(p, d * p, {int(a): t for a, t in table.items()})


def kernel_cases() -> list[tuple]:
    """(p, d, e, chi, j) over the even characters chi = chi_d omega^e of
    character_tables() with p in {3, 5, 7, 11} and d in {1, 3, 4}, and the
    levels j from 1 to 4 with d p^j <= 3000."""
    return [(p, d, e, chi, j)
            for p, d, e, table in character_tables()
            if p <= 11 and d <= 4 and table[str(d * p - 1)] == 1
            for chi in [_character(p, d, table)]
            for j in range(1, 5) if d * p**j <= 3000]


def kernel_grid() -> tuple[Counter, list, str]:
    """The progression-sum kernel genbernoulli._unit_sum against the brute
    oracles, relprec 8, over kernel_cases(): riemann_sum(params, Weight(k),
    j) at k = 0 .. 6 and c in {2, 3, 11} prime to d p, against
    riemann_sum_bruteforce; and the twisted sum _unit_sum(chi omega^(-k),
    d, j, e, 8) at k in {2, 4, 6} and e in {k, k - 1}, against
    twisted_unit_sum_bruteforce.  Returns (the count of cases by kind, the
    cases that differ from their oracle, the first 16 hex digits of the
    sha256 of every case and its value's state)."""
    cases, failures, digest = Counter(), [], hashlib.sha256()

    def check(case, fast, slow):
        cases[case[0]] += 1
        digest.update(json.dumps([case, fast.state()]).encode() + b"\n")
        if fast != slow:
            failures.append(case)

    for p, d, e, chi, j in kernel_cases():
        for c in (2, 3, 11):
            if math.gcd(c, d * p) == 1:
                params = LpParams(p=p, d=d, c=c, m=1, chi=chi, relprec=8, j_max=j)
                for k in range(7):
                    check(("riemann", p, d, e, j, c, k), riemann_sum(params, Weight(k), j),
                          riemann_sum_bruteforce(params, Weight(k), j))
        for k in (2, 4, 6):
            psi = chi_omega_minus_k(chi, k)
            for x in (k, k - 1):
                check(("twisted", p, d, e, j, k, x),
                      PadicNum.from_int_mod(p, _unit_sum(psi, d, j, x, 8), 8),
                      twisted_unit_sum_bruteforce(chi, k, j, x, 8))
    return cases, failures, digest.hexdigest()[:16]


def closed_form_grid() -> tuple[Counter, list, str]:
    """The closed form against its Fraction and PadicNum oracles over every
    character chi = chi_d omega^e of character_tables() and n from 1 to 8:
    general_bernoulli_coeffs(chi, n) against general_bernoulli_coeffs_fraction,
    and, for an even chi, special_value_closed_form(params, n) at relprec 12
    with c in {2, 3, 7, 11} prime to d p, which must carry exactly 12 digits
    and agree with special_value_closed_form_padic on every digit both
    certify, or be the exact zero where that oracle vanishes to every digit
    it certifies (n = 1 with an Euler factor 1 - psi(p) of 0).  Returns (the count of cases by kind, the cases that differ
    from their oracle, the first 16 hex digits of the sha256 of every case
    and its output)."""
    cases, failures, digest = Counter(), [], hashlib.sha256()

    def check(case, output, ok):
        cases[case[0]] += 1
        digest.update(json.dumps([case, output]).encode() + b"\n")
        if not ok:
            failures.append(case)

    for p, d, e, table in character_tables():
        chi = _character(p, d, table)
        even = table[str(d * p - 1)] == 1
        for n in range(1, 9):
            nums, den = general_bernoulli_coeffs(chi, n)
            check(("coeffs", p, d, e, n), [sorted(nums.items()), den],
                  {t: Fraction(num, den) for t, num in nums.items()}
                  == general_bernoulli_coeffs_fraction(chi, n))
            for c in (2, 3, 7, 11) if even else ():
                if math.gcd(c, d * p) == 1:
                    params = LpParams(p=p, d=d, c=c, m=1, chi=chi, relprec=12, j_max=12)
                    got = special_value_closed_form(params, n)
                    want = special_value_closed_form_padic(params, n)
                    check(("closed-form", p, d, e, c, n), got.state(),
                          want.is_zero_at_precision() if got.is_exact_zero()
                          else got.abs_precision == 12
                          and eq_mod(got, want, min(12, want.abs_precision)))
    return cases, failures, digest.hexdigest()[:16]


if __name__ == "__main__":
    for name, grid in (("measure-check", measure_check_grid),
                       ("interpolation", interpolation_grid),
                       ("level-rule", level_rule_grid),
                       ("character", character_grid),
                       ("odd-character", odd_character_grid),
                       ("kernel", kernel_grid),
                       ("closed-form", closed_form_grid)):
        cases, failures, digest = grid()
        print(json.dumps({"grid": name, "cases": dict(sorted(cases.items())),
                          "failures": failures, "digest": digest}))
