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
from collections import Counter

from padiclf import cli


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


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
    """(the count of calls by exit code, the argvs that break the contract,
    the first 16 hex digits of the sha256 of every argv, exit code, stdout
    and stderr) over measure_check_argvs().

    The contract: the genuine E_c passes, so a call exits 0 with one JSON
    document that passes and nothing on stderr, or is refused with exit 2,
    nothing on stdout and one `error:` line on stderr.
    """
    cases, failures, digest = Counter(), [], hashlib.sha256()
    for argv in measure_check_argvs():
        code, out, err = run_cli(argv)
        cases[code] += 1
        digest.update(json.dumps([argv, code, out, err]).encode() + b"\n")
        if code == 0:
            ok = err == "" and json.loads(out)["pass"] is True
        else:
            ok = code == 2 and out == "" and err.startswith("error: ") and err.count("\n") == 1
        if not ok:
            failures.append(argv)
    return cases, failures, digest.hexdigest()[:16]


if __name__ == "__main__":
    cases, failures, digest = measure_check_grid()
    print(json.dumps({"grid": "measure-check", "cases": dict(sorted(cases.items())),
                      "failures": failures, "digest": digest}))
