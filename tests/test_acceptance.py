"""Acceptance gate: runs every bundled verification criterion.

One line per criterion is printed so a full run reads as a checklist;
the underlying checks live in padiclf.suite and are shared with the
`padiclf suite` CLI command.
"""

import functools

import pytest

from oracles import bernoulli_distribution_over_p, factorize_trial, level_period
from padiclf import measure, suite
from padiclf.dirichlet import DirichletCharacter
from padiclf.padic import PadicNum
from padiclf.suite import ALL_CRITERIA

SEED = 0


@pytest.mark.parametrize(
    "criterion", ALL_CRITERIA,
    ids=[f"{c.number:02d}-{c.name}" for c in ALL_CRITERIA],
)
def test_criterion(criterion, capsys):
    result = criterion.run(seed=SEED)
    with capsys.disabled():
        print(f"[{'PASS' if result.passed else 'FAIL'}] "
              f"criterion {result.number}: {result.name}")
    assert result.passed, result.detail


def test_interpolation_sign_is_globally_consistent():
    # the sign linking both sides must be a single convention, not a
    # per-case accident; re-run criterion 10 and inspect its case list
    crit = next(c for c in ALL_CRITERIA if c.number == 10)
    result = crit.run(seed=SEED)
    signs = {case["sign"] for case in result.detail["cases"]}
    assert signs == {result.detail["global_sign"]}
    assert result.detail["global_sign"] in ("+", "-")


def test_every_criterion_has_a_profile():
    for c in ALL_CRITERIA:
        assert c.profiles & {"fast", "full"}
    assert [c.number for c in ALL_CRITERIA] == list(range(1, 12))


def test_interpolation_valuations_are_lower_bounds():
    # each winning difference vanishes at the certified precision of its
    # L-value, so the valuation reported is a lower bound, never exact
    crit = next(c for c in ALL_CRITERIA if c.number == 10)
    result = crit.run(seed=SEED)
    for case in result.detail["cases"]:
        assert case["valuation_is_exact"] is False
        assert case["valuation_of_difference"] == case["level_used"]


def test_compatibility_detail_is_pinned():
    # the genuine E_c fails nowhere; the division reading fails first at
    # (p, d, c, level, x) = (3, 1, 2, 0, 0), (3, 1, 2, 1, 0), (3, 1, 2, 1, 1)
    crit = next(c for c in ALL_CRITERIA if c.number == 5)
    assert crit.run(seed=SEED).detail == {
        "failures": [],
        "division_variant_counterexamples": [(3, 1, 2, 0, 0), (3, 1, 2, 1, 0),
                                             (3, 1, 2, 1, 1)],
    }


def test_criterion_6_fails_on_a_measure_divided_by_p(monkeypatch):
    monkeypatch.setattr(suite, "measure_failures", functools.partial(
        measure.measure_failures, values=level_period(bernoulli_distribution_over_p)))
    passed, detail = suite._c6_boundedness(SEED)
    assert not passed
    # the reading fails at p = 5 and 7, not at (p, c) = (3, 2)
    assert {f[:3] for f in detail["failures"]} == {(5, 2, 3), (7, 4, 3)}
    assert detail["failures"][0] == (5, 2, 3, 0, 0, "5", "3")


@pytest.mark.parametrize("wrong", [
    lambda chi, f: chi.level,
    lambda chi, f: 1,
    lambda chi, f: f * min(factorize_trial(chi.level // f)) if chi.level > f else f,
    lambda chi, f: f // min(factorize_trial(f)) if f > 1 else f,
], ids=["level", "one", "f-times-q", "f-over-q"])
def test_criterion_3_fails_on_a_wrong_conductor(monkeypatch, wrong):
    conductor = DirichletCharacter.conductor

    def wrong_conductor(chi):
        # associated_primitive caches its result on interned characters:
        # record each one's cache here, so teardown restores it
        monkeypatch.setattr(chi, "_prim", chi._prim)
        return wrong(chi, conductor(chi))

    monkeypatch.setattr(DirichletCharacter, "conductor", wrong_conductor)
    assert not suite._c3_conductors(SEED)[0]


def test_criterion_7_fails_on_a_refinement_that_changes_the_integral(monkeypatch):
    refine = measure.CylinderFunction.refine_level

    def doubled(f, level):
        g = refine(f, level)
        return measure.CylinderFunction(g.d, g.p, g.level, [2 * v for v in g.values])

    monkeypatch.setattr(measure.CylinderFunction, "refine_level", doubled)
    passed, detail = suite._c7_locally_constant_integration(SEED)
    assert not passed
    assert detail["failures"] and all(f[0] == "cylinder" for f in detail["failures"])


def test_criterion_7_fails_on_a_riemann_sum_that_varies_with_the_level(monkeypatch):
    riemann_sum = suite.riemann_sum

    def drifting(params, k, j):
        return riemann_sum(params, k, j) + PadicNum.from_rational(params.p, j, params.relprec)

    monkeypatch.setattr(suite, "riemann_sum", drifting)
    passed, detail = suite._c7_locally_constant_integration(SEED)
    assert not passed
    assert [f[0] for f in detail["failures"]] == ["level-1 integrand sums not constant"]


def test_criterion_10_counts_decided_signs_only(monkeypatch):
    # "both" passes a case but does not vote for the global sign, and with no
    # decided sign at all the criterion fails rather than pass vacuously
    verify = suite.verify_interpolation
    for first, expected in (("+", (True, "+")), ("both", (False, None))):
        signs = iter([first] + ["both"] * 5)

        def relabelled(params, n):
            report = verify(params, n)
            report.sign = next(signs)
            return report

        monkeypatch.setattr(suite, "verify_interpolation", relabelled)
        passed, detail = suite._c10_interpolation(SEED)
        assert (passed, detail["global_sign"]) == expected
        assert [case["sign"] for case in detail["cases"]] == [first] + ["both"] * 5
