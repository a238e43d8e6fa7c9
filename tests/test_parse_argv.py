"""parse_argv, the flag-table reader of the command line, against argparse.

The argvs are made from the flag table itself: every command with its
required flags and some optional ones in any order, each value given as
`--flag value` or `--flag=value`, repeated flags, negative ints and
global flags before the command; then, at random, one mutation that
argparse refuses or reads otherwise.  Both parsers must accept the same
argvs, with equal attributes, and refuse the same argvs.
"""

import contextlib
import io

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import argparse_cli_parser
from padiclf.cli import COMMANDS, GLOBAL_FLAGS, REQUIRED, UsageError, parse_argv

MUTATIONS = ("none", "drop-required", "abbreviate", "unknown-flag", "bad-value",
             "stray-argument", "global-after-command", "no-command")


def _values(kind):
    if kind is int:
        return st.integers(-30, 30).map(str)
    if kind is str:
        return st.sampled_from(["triv", "omega^2", "table:chi.json", "-3"])
    return st.sampled_from(kind)


@st.composite
def _group(draw, flag, kind):
    """The tokens that give one flag a value."""
    value = draw(_values(kind))
    return [f"{flag}={value}"] if draw(st.booleans()) else [flag, value]


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(list(COMMANDS)))
    flags = COMMANDS[command][2]
    required = [flag for flag, (_, default) in flags.items() if default is REQUIRED]
    optional = [flag for flag in flags if flag not in required]
    chosen = required + draw(st.lists(st.sampled_from(optional), max_size=4) if optional
                             else st.just([]))
    chosen += draw(st.lists(st.sampled_from(list(flags)), max_size=2) if flags
                   else st.just([]))
    before = [draw(_group(flag, GLOBAL_FLAGS[flag][0]))
              for flag in draw(st.lists(st.sampled_from(list(GLOBAL_FLAGS)), max_size=3))]
    after = [draw(_group(flag, flags[flag][0])) for flag in draw(st.permutations(chosen))]

    mutation = draw(st.sampled_from(MUTATIONS))
    groups = before + [[command]] + after
    if mutation == "drop-required" and required:
        dropped = draw(st.sampled_from(required))
        groups = [g for g in groups if g[0].partition("=")[0] != dropped]
    elif mutation == "abbreviate":
        long_flags = [i for i, g in enumerate(groups)
                      if g[0] != command and len(g[0].partition("=")[0]) > 3]
        if long_flags:
            i = draw(st.sampled_from(long_flags))
            flag, eq, value = groups[i][0].partition("=")
            short = flag[:draw(st.integers(3, len(flag) - 1))]
            groups[i] = [short + eq + value, *groups[i][1:]]
    elif mutation == "unknown-flag":
        groups.insert(draw(st.integers(0, len(groups))), draw(_group("--wat", int)))
    elif mutation == "bad-value":
        typed = [i for i, g in enumerate(groups) if g[0] != command
                 and {**GLOBAL_FLAGS, **flags}[g[0].partition("=")[0]][0] is not str]
        if typed:
            i = draw(st.sampled_from(typed))
            flag = groups[i][0].partition("=")[0]
            bad = draw(st.sampled_from(["x", "1.5", "-1.5", "seven", "fastest"]))
            groups[i] = [f"{flag}={bad}"] if len(groups[i]) == 1 else [flag, bad]
    elif mutation == "stray-argument":
        groups.insert(draw(st.integers(0, len(groups))),
                      [draw(st.sampled_from(["extra", "-5", "7", command]))])
    elif mutation == "global-after-command":
        flag = draw(st.sampled_from(list(GLOBAL_FLAGS)))
        groups.insert(draw(st.integers(len(before) + 1, len(groups))),
                      draw(_group(flag, int)))
    elif mutation == "no-command":
        groups.remove([command])
    return [token for g in groups for token in g]


def _argparse_outcome(argv):
    """argparse's attributes for argv, or its exit code."""
    with contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(argparse_cli_parser().parse_args(argv))
        except SystemExit as exc:
            return exc.code


def _outcome(argv):
    try:
        return vars(parse_argv(argv))
    except UsageError:
        return 2


@settings(max_examples=500, deadline=None)
@given(argvs())
def test_parse_argv_agrees_with_argparse(argv):
    assert _outcome(argv) == _argparse_outcome(argv), argv


# a first value and the value that replaces it, for each type of flag
TWO_VALUES = {int: ("1", "-2"), str: ("omega^2", "triv")}


def test_every_command_is_read_both_ways():
    # the agreement test is not won by refusing: each command is accepted
    # after global flags, with every flag given twice (the = form last,
    # which wins) and negative ints, and refused without a required flag
    for command, (run, _, flags) in COMMANDS.items():
        groups = {}
        for flag, (kind, _) in flags.items():
            first, last = TWO_VALUES.get(kind, kind)
            groups[flag] = [flag, first, f"{flag}={last}"]
        argv = ["--seed", "-4", "--prec=9", command, *(t for g in groups.values() for t in g)]
        parsed = _outcome(argv)
        assert parsed == _argparse_outcome(argv)
        assert parsed["run"] is run and parsed["seed"] == -4
        assert {parsed[flag[2:].replace("-", "_")] for flag in flags} <= {-2, "triv", "full"}
        for flag, (_, default) in flags.items():
            if default is REQUIRED:
                without = argv[:4] + [t for f, g in groups.items() if f != flag for t in g]
                assert _outcome(without) == _argparse_outcome(without) == 2
