"""Command-line front end.

stdout carries exactly one JSON document per invocation; anything
human-oriented goes to stderr.  Exit codes: 0 success or verification
pass, 1 verification failure, 2 usage or validation error.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
from fractions import Fraction

from . import suite as suite_mod
from .bernoulli import bernoulli, bernoulli_poly
from .dirichlet import parse_character_spec
from .errors import PadicLFError
from .genbernoulli import _embed_label_sum, _exact_label_sum, general_bernoulli_coeffs
from .lfunction import LpParams, Weight, p_adic_L, verify_interpolation
from .measure import BernoulliParams, compatibility_failures, norm_bound_check
from .modarith import require_odd_prime
from .padic import DEFAULT_RELPREC
from .suite import random_cylinder

USAGE_ERROR = 2


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")


def _frac_str(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # built once per process: building costs about 15 times a parse
    top = argparse.ArgumentParser(
        prog="padiclf",
        description="Exact p-adic L-values from Bernoulli-measure Riemann sums.",
    )
    top.add_argument("--prec", type=int, default=DEFAULT_RELPREC,
                     help="working relative precision")
    top.add_argument("--seed", type=int, default=0, help="seed for randomized sweeps")
    sub = top.add_subparsers(dest="command", required=True)

    q = sub.add_parser("bernoulli", help="exact Bernoulli number and polynomial")
    q.add_argument("--n", type=int, required=True)
    q.set_defaults(run=_cmd_bernoulli)

    g = sub.add_parser("genbernoulli", help="generalized Bernoulli number")
    g.add_argument("--p", type=int, required=True)
    g.add_argument("--char", required=True, help='"triv" | "omega^<k>" | "table:<path>"')
    g.add_argument("--n", type=int, required=True)
    g.set_defaults(run=_cmd_genbernoulli)

    ci = sub.add_parser("char-info", help="level, conductor, parity of a character")
    ci.add_argument("--p", type=int, required=True)
    ci.add_argument("--char", required=True)
    ci.set_defaults(run=_cmd_char_info)

    mc = sub.add_parser("measure-check", help="distribution and boundedness sweeps")
    mc.add_argument("--p", type=int, required=True)
    mc.add_argument("--d", type=int, required=True)
    mc.add_argument("--c", type=int, required=True)
    mc.add_argument("--max-level", type=int, default=3)
    mc.set_defaults(run=_cmd_measure_check)

    for name, weight, help_, run in (
            ("lp-eval", "--weight-k", "evaluate the p-adic L-function at a weight", _cmd_lp_eval),
            ("verify", "--n", "check interpolation at a negative integer", _cmd_verify)):
        lp = sub.add_parser(name, help=help_)
        for flag in ("--p", "--d", "--m", "--c", weight):
            lp.add_argument(flag, type=int, required=True)
        lp.add_argument("--jmax", type=int, default=LpParams.j_max)
        lp.add_argument("--jmin", type=int, default=LpParams.j_min)
        lp.add_argument("--target", type=int, default=LpParams.target_valuation)
        lp.add_argument("--char", required=True)
        # writes the global --prec when given
        lp.add_argument("--prec", type=int, default=argparse.SUPPRESS,
                        help="override the global precision")
        lp.set_defaults(run=run)

    st = sub.add_parser("suite", help="run the bundled verification suite")
    st.add_argument("--profile", choices=("fast", "full"), default="fast")
    st.set_defaults(run=_cmd_suite)
    return top


def _make_lp_params(args) -> LpParams:
    # validate (p, d, c) before the level d*p^m is built from them
    BernoulliParams(args.p, args.d, args.c)
    if args.m < 1:
        raise ValueError("m must be >= 1")
    level = args.d * args.p**args.m
    chi = parse_character_spec(args.char, args.p)
    if level % chi.level:
        raise ValueError(
            f"character level {chi.level} does not divide d*p^m = {level}"
        )
    chi = chi.change_level(level)
    return LpParams(p=args.p, d=args.d, c=args.c, m=args.m, chi=chi,
                    relprec=args.prec, j_min=args.jmin, j_max=args.jmax,
                    target_valuation=args.target)


def _cmd_bernoulli(args) -> int:
    if args.n < 0:
        raise ValueError("n must be >= 0")
    _emit({
        "n": args.n,
        "value": _frac_str(bernoulli(args.n)),
        "poly": [_frac_str(c) for c in bernoulli_poly(args.n)],
    })
    return 0


def _cmd_genbernoulli(args) -> int:
    require_odd_prime(args.p)
    if args.n < 0:
        raise ValueError("n must be >= 0")
    chi = parse_character_spec(args.char, args.p)
    # one coefficient dict gives both the p-adic value and the exact Fraction
    coeffs = general_bernoulli_coeffs(chi, args.n)
    value = _embed_label_sum(chi.p, coeffs, args.prec)
    exact = _exact_label_sum(chi.p, coeffs)
    _emit({
        "p": args.p,
        "char": args.char,
        "n": args.n,
        "value": value.to_json(),
        "exact": _frac_str(exact) if exact is not None else None,
    })
    return 0


def _cmd_char_info(args) -> int:
    require_odd_prime(args.p)
    chi = parse_character_spec(args.char, args.p)
    _emit({
        "p": chi.p,
        "level": chi.level,
        "conductor": chi.conductor(),
        "is_primitive": chi.is_primitive(),
        "parity": chi.parity(),
        "order": chi.order(),
        "table": chi.to_json()["entries"],
    })
    return 0


def _cmd_measure_check(args) -> int:
    params = BernoulliParams(args.p, args.d, args.c)
    counterexamples = [
        {"kind": "compatibility", "level": m, "x": x,
         "coarse": _frac_str(coarse), "refined_sum": _frac_str(fine)}
        for m, x, coarse, fine in compatibility_failures(params, args.max_level)
    ]
    rng = random.Random(args.seed)
    for i in range(100):
        level = rng.randint(0, min(args.max_level, 3))
        # the sample is not bound to a name, so it is freed before the next is drawn
        lhs, rhs, ok = norm_bound_check(
            params, random_cylinder(rng, args.p, args.d, level, args.prec), args.prec)
        if not ok:
            counterexamples.append({
                "kind": "boundedness", "sample": i,
                "lhs": _frac_str(lhs), "rhs": _frac_str(rhs),
            })
    _emit({
        "p": args.p, "d": args.d, "c": args.c, "max_level": args.max_level,
        "pass": not counterexamples,
        "counterexamples": counterexamples,
    })
    return 0 if not counterexamples else 1


def _cmd_lp_eval(args) -> int:
    params = _make_lp_params(args)
    report = p_adic_L(params, Weight(args.weight_k))
    _emit(report.to_json())
    return 0


def _cmd_verify(args) -> int:
    params = _make_lp_params(args)
    report = verify_interpolation(params, args.n)
    _emit(report.to_json())
    return 0 if report.passed else 1


def _cmd_suite(args) -> int:
    results = suite_mod.run_profile(args.profile, args.seed)
    for r in results:
        print(f"[{'PASS' if r.passed else 'FAIL'}] criterion {r.number}: {r.name}",
              file=sys.stderr)
    _emit({
        "profile": args.profile,
        "seed": args.seed,
        "pass": all(r.passed for r in results),
        "results": [r.to_json() for r in results],
    })
    return 0 if all(r.passed for r in results) else 1


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.prec < 1:
        print("error: --prec must be >= 1", file=sys.stderr)
        return USAGE_ERROR
    try:
        return args.run(args)
    except (PadicLFError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
