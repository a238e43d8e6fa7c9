"""Command-line front end.

stdout carries exactly one JSON document per invocation, written by
_emit, the one output path: an exact rational is the string "n/d" and
every int prints at any length.  The one bound on --prec is
MAX_UNIT_DIGITS: a call whose p-adic units could have more decimal
digits is refused before any work.  Anything human-oriented goes to
stderr.  Exit codes: 0 success or verification pass, 1 verification
failure, 2 usage or validation error.

The command line is read from one flag table: GLOBAL_FLAGS, given before
the command, and COMMANDS, which maps each command to its function, its
help line and its flags.  Each flag maps to its type (int, str or a
tuple of choices) and its default, or REQUIRED; it sets the attribute
named after it (--max-level sets max_level).  parse_argv reads an argv
by that table:

- a flag is spelled out in full, as `--flag value` or `--flag=value`,
  and the last of a repeated flag wins; a value may be a negative
  number, but no other token starting with '-';
- --prec and --seed go before the command.  After it, lp-eval and
  verify take --prec, which overrides the global one;
- -h or --help prints the usage, made from the same table, to stdout
  and exits 0.

Any other argv (an unknown or abbreviated flag, a missing or unknown
command, a missing required flag or value, a value that is not an int
or not a choice, a stray argument) is a UsageError: main prints it as
one `error:` line on stderr and exits 2.
"""

from __future__ import annotations

import json
import re
import sys
from fractions import Fraction
from types import SimpleNamespace

from . import suite as suite_mod
from .bernoulli import bernoulli, bernoulli_poly
from .dirichlet import parse_character_spec
from .errors import CostLimitExceeded, PadicLFError
from .genbernoulli import _embed_label_sum, _exact_label_sum, general_bernoulli_coeffs
from .lfunction import LpParams, Weight, p_adic_L, verify_interpolation
from .measure import BernoulliParams, measure_failures
from .padic import DEFAULT_RELPREC

USAGE_ERROR = 2


# the most decimal digits a printed p-adic unit may have, and so the one
# bound on --prec: the default of Python's limit on str(int), so that the
# calls refused are those refused at that default, whatever the setting
MAX_UNIT_DIGITS = 4300


def _fraction_str(obj) -> str:
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _emit(obj) -> None:
    """Write obj as one JSON line, a Fraction as "n/d".  Python refuses to
    convert an int of more than sys.get_int_max_str_digits() digits to a
    string, a guard meant for parsing untrusted text; it is lifted only
    while obj is written, so that every int prints at any length while a
    table file is still read under it."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        text = json.dumps(obj, default=_fraction_str)
    finally:
        sys.set_int_max_str_digits(limit)
    sys.stdout.write(text + "\n")


def _require_printable_units(p: int, digits: int) -> None:
    """Refuse, before any work, units mod p^digits that can have more than
    MAX_UNIT_DIGITS decimal digits, that is p^digits > 10^MAX_UNIT_DIGITS.

    With b = p.bit_length(), p^digits < 2^(b digits), which is at most
    10^MAX_UNIT_DIGITS when b digits 0.30103 <= MAX_UNIT_DIGITS (log10 2 <
    0.30103), and p^digits >= 2^((b - 1) digits), which is over it when
    (b - 1) digits >= 4 MAX_UNIT_DIGITS.  Only between the two is p^digits
    built.
    """
    b = p.bit_length()
    if b * digits * 30103 <= MAX_UNIT_DIGITS * 100000:
        return
    if (b - 1) * digits >= 4 * MAX_UNIT_DIGITS or p**digits > 10**MAX_UNIT_DIGITS:
        raise CostLimitExceeded(
            f"a {p}-adic unit to {digits} digits can have more than {MAX_UNIT_DIGITS} "
            f"decimal digits, the most that is printed")


def _make_lp_params(args) -> LpParams:
    return LpParams(p=args.p, d=args.d, c=args.c, m=args.m, chi=args.char,
                    relprec=args.prec, j_min=args.jmin, j_max=args.jmax,
                    target_valuation=args.target)


def _cmd_bernoulli(args) -> int:
    _emit({
        "n": args.n,
        "value": bernoulli(args.n),
        "poly": bernoulli_poly(args.n),
    })
    return 0


def _cmd_genbernoulli(args) -> int:
    chi = parse_character_spec(args.char, args.p)
    # refused on prec, before any sum; the v_p(den) digits more that the
    # unit carries are printed as the others are
    _require_printable_units(args.p, args.prec)
    # one label sum gives both the p-adic value and the exact Fraction
    nums, den = general_bernoulli_coeffs(chi, args.n)
    value = _embed_label_sum(chi.p, nums, den, args.prec)
    exact = _exact_label_sum(chi.p, nums, den)
    _emit({
        "p": args.p,
        "char": args.char,
        "n": args.n,
        "value": value.to_json(),
        "exact": exact,
    })
    return 0


def _cmd_char_info(args) -> int:
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
    compatibility, boundedness = measure_failures(
        BernoulliParams(args.p, args.d, args.c), args.max_level)
    counterexamples = [
        {"kind": "compatibility", "level": m, "x": x,
         "coarse": coarse, "refined_sum": fine}
        for m, x, coarse, fine in compatibility
    ]
    counterexamples += [
        {"kind": "boundedness", "level": m, "x": x, "lhs": lhs, "rhs": rhs}
        for m, x, lhs, rhs in boundedness
    ]
    _emit({
        "p": args.p, "d": args.d, "c": args.c, "max_level": args.max_level,
        "pass": not counterexamples,
        "counterexamples": counterexamples,
    })
    return 0 if not counterexamples else 1


def _cmd_lp_eval(args) -> int:
    params = _make_lp_params(args)
    _require_printable_units(params.p, params.digits)
    report = p_adic_L(params, Weight(args.weight_k))
    _emit(report.to_json())
    return 0


def _cmd_verify(args) -> int:
    params = _make_lp_params(args)
    # the closed form, printed as rhs, carries prec digits
    _require_printable_units(params.p, args.prec)
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


# ---------------- the flag table and its parser ----------------

REQUIRED = object()  # a flag's default when the flag must be given

_PREC = (int, DEFAULT_RELPREC)
GLOBAL_FLAGS = {"--prec": _PREC, "--seed": (int, 0)}


def _lp_flags(weight: str) -> dict:
    flags = {flag: (int, REQUIRED) for flag in ("--p", "--d", "--m", "--c", weight)}
    return {**flags,
            "--char": (str, REQUIRED),
            "--jmax": (int, LpParams.j_max),
            "--jmin": (int, LpParams.j_min),
            "--target": (int, LpParams.target_valuation),
            # given after the command, it overrides the global --prec
            "--prec": _PREC}


COMMANDS = {
    "bernoulli": (_cmd_bernoulli, "exact Bernoulli number and polynomial",
                  {"--n": (int, REQUIRED)}),
    "genbernoulli": (_cmd_genbernoulli, "generalized Bernoulli number",
                     {"--p": (int, REQUIRED), "--char": (str, REQUIRED),
                      "--n": (int, REQUIRED)}),
    "char-info": (_cmd_char_info, "level, conductor, parity of a character",
                  {"--p": (int, REQUIRED), "--char": (str, REQUIRED)}),
    "measure-check": (_cmd_measure_check, "compatibility and boundedness of E_c "
                      "at levels 0..--max-level",
                      {"--p": (int, REQUIRED), "--d": (int, REQUIRED),
                       "--c": (int, REQUIRED), "--max-level": (int, 3)}),
    "lp-eval": (_cmd_lp_eval, "evaluate the p-adic L-function at a weight",
                _lp_flags("--weight-k")),
    "verify": (_cmd_verify, "check interpolation at a negative integer",
               _lp_flags("--n")),
    "suite": (_cmd_suite, "run the bundled verification suite",
              {"--profile": (("fast", "full"), "fast")}),
}


class UsageError(Exception):
    """An argv the flag table refuses; main prints it on one stderr line."""


class HelpRequested(Exception):
    """-h or --help; the exception's text is the usage to print."""


def _attribute(flag: str) -> str:
    return flag[2:].replace("-", "_")


def _compile(flags: dict) -> tuple:
    """({flag: (attribute, type)}, {attribute: default}, [(flag, attribute)
    of each required flag]) of one table of flags."""
    return ({flag: (_attribute(flag), kind) for flag, (kind, _) in flags.items()},
            {_attribute(flag): default for flag, (_, default) in flags.items()
             if default is not REQUIRED},
            [(flag, _attribute(flag)) for flag, (_, default) in flags.items()
             if default is REQUIRED])


_GLOBAL = _compile(GLOBAL_FLAGS)
_COMPILED = {name: (run, *_compile(flags)) for name, (run, _, flags) in COMMANDS.items()}

# the tokens that are values although they start with '-'
_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")


def _is_flag(token: str) -> bool:
    return token[:1] == "-" and token != "-" and not _NEGATIVE_NUMBER.match(token)


def _value(flag: str, kind, text: str):
    if kind is int:
        try:
            return int(text)
        except ValueError:
            raise UsageError(f"{flag}: invalid int value: {text!r}") from None
    if kind is not str and text not in kind:
        raise UsageError(f"{flag}: invalid choice: {text!r} (choose from {', '.join(kind)})")
    return text


def parse_argv(argv) -> SimpleNamespace:
    """Read argv by the flag table (module docstring).

    The namespace has the command, its function as `run`, and one
    attribute for each global flag and each flag of the command, given
    or defaulted.  Raises UsageError on an argv the table refuses, and
    HelpRequested on -h or --help.
    """
    flags, values, required = _GLOBAL
    values = dict(values)
    command = None
    tokens = iter(argv)
    for token in tokens:
        flag, eq, text = token.partition("=")
        if flag in flags:
            attribute, kind = flags[flag]
            if not eq:
                text = next(tokens, None)
                if text is None or _is_flag(text):
                    raise UsageError(f"{flag} needs a value")
            values[attribute] = _value(flag, kind, text)
        elif token == "-h" or token == "--help":
            raise HelpRequested(_usage(command))
        elif _is_flag(token):
            where = f"for {command}" if command else "before the command"
            raise UsageError(f"unknown flag {flag!r} {where}")
        elif command is not None:
            raise UsageError(f"unexpected argument {token!r} after {command}")
        elif token not in _COMPILED:
            raise UsageError(f"unknown command {token!r} (choose from {', '.join(COMMANDS)})")
        else:
            command = token
            run, flags, defaults, required = _COMPILED[token]
            # a command's default never overrides a global flag
            values = {**defaults, **values, "command": token, "run": run}
    if command is None:
        raise UsageError(f"a command is required (choose from {', '.join(COMMANDS)})")
    missing = [flag for flag, attribute in required if attribute not in values]
    if missing:
        raise UsageError(f"{command} needs {', '.join(missing)}")
    return SimpleNamespace(**values)


def _flags_usage(flags: dict) -> str:
    words = []
    for flag, (kind, default) in flags.items():
        meta = "{" + ",".join(kind) + "}" if isinstance(kind, tuple) else _attribute(flag).upper()
        words.append(f"{flag} {meta}" if default is REQUIRED else f"[{flag} {meta}={default}]")
    return " ".join(words)


def _usage(command: str | None) -> str:
    """The usage of one command, or of all of them, from the flag table."""
    lines = [f"usage: padiclf {_flags_usage(GLOBAL_FLAGS)} COMMAND FLAGS",
             "Exact p-adic L-values from Bernoulli-measure Riemann sums.",
             ""]
    for name in [command] if command else COMMANDS:
        _, help_, flags = COMMANDS[name]
        lines += [f"{name} {_flags_usage(flags)}", f"    {help_}"]
    lines += ["",
              "CHAR is triv, omega^<k> or table:<path>.  A bracketed flag is optional,",
              "with its default after '='; --prec after lp-eval or verify overrides",
              "the --prec before the command.  -h or --help prints this."]
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    try:
        args = parse_argv(sys.argv[1:] if argv is None else argv)
    except HelpRequested as help_:
        sys.stdout.write(str(help_))
        return 0
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
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
