import hashlib
import json
import math
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import (
    bernoulli_distribution_div_by_c_fract,
    bernoulli_distribution_fract,
    bernoulli_distribution_over_p,
    boundedness_failures_bruteforce,
    compatibility_failures_bruteforce,
    integral_fract,
    level_period,
    measure_apply_fold,
    norm_bound_check_two_pass,
)
from padiclf import measure
from padiclf.errors import CostLimitExceeded, LevelOrder, NotCoprime
from padiclf.measure import (
    MAX_SWEEP_EVALUATIONS,
    BernoulliParams,
    ClopenSet,
    CylinderFunction,
    bernoulli_distribution,
    carry_period,
    char_fn,
    cylinder_decompose,
    distribution_refine_sum,
    div_by_c_period,
    equi_class,
    integral,
    measure_apply,
    measure_failures,
    norm_bound_check,
    norm_bound_constant,
    random_cylinder as measure_random_cylinder,
    units_cylinder,
)
from padiclf.modarith import partition_range
from padiclf.padic import PadicNum, eq_mod

P312 = BernoulliParams(3, 1, 2)
# the (p, d, c) grid of suite criterion 5, swept there at levels 0-3
C5_GRID = [BernoulliParams(p, d, c) for p in (3, 5, 7) for d in (1, 2, 4)
           for c in (2, 3, 7) if math.gcd(d, p) == 1 and math.gcd(c, d * p) == 1]


def shifted_denominator(pr, n, a):
    """The rival reading with the denominator one level down, D = d*p^(n+1)."""
    D = pr.d * pr.p ** (n + 1)
    A = a % (pr.d * pr.p**n)
    cinv = pow(pr.c, -1, D)
    return (Fraction(A, D) - pr.c * Fraction((cinv * A) % D, D)
            + Fraction(pr.c - 1, 2))


def random_cylinder(rng, p, d, level):
    vals = []
    for _ in range(d * p**level):
        if rng.random() < 0.15:
            vals.append(0)
        else:
            vals.append(Fraction(rng.randint(-200, 200), rng.randint(1, 40)))
    return CylinderFunction(d, p, level, vals)


def rational_values(rng, p, d, level, zero_share):
    """d*p^level entries: 0 with probability zero_share, otherwise
    p^v * num / den with v in [-4, 4], num in [-50, 50] and den in [1, 30]."""
    return [0 if rng.random() < zero_share else
            Fraction(p) ** rng.randint(-4, 4) * Fraction(rng.randint(-50, 50), rng.randint(1, 30))
            for _ in range(d * p**level)]


def rational_cylinder(rng, p, d, level, zero_share):
    return CylinderFunction(d, p, level, rational_values(rng, p, d, level, zero_share))


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            BernoulliParams(4, 1, 3)
        with pytest.raises(ValueError):
            BernoulliParams(2, 1, 3)
        with pytest.raises(NotCoprime):
            BernoulliParams(5, 10, 3)
        with pytest.raises(NotCoprime):
            BernoulliParams(5, 2, 5)
        with pytest.raises(ValueError):
            BernoulliParams(5, 1, 1)


class TestDistribution:
    def test_examples(self):
        assert bernoulli_distribution(P312, 3, 0) == Fraction(1, 2)
        assert bernoulli_distribution(P312, 1, 1) == Fraction(-1, 2)
        assert bernoulli_distribution(P312, 2, 4) == Fraction(1, 2)

    def test_half_integrality(self):
        # E_c lands in Z + (c-1)/2, hence is p-integral for odd p
        for p, d, c in ((3, 1, 2), (5, 2, 3), (7, 1, 10)):
            params = BernoulliParams(p, d, c)
            for n in range(3):
                for x in range(d * p**n):
                    v = bernoulli_distribution(params, n, x)
                    assert (2 * v).denominator == 1
                    assert v.denominator % p != 0

    def test_units_value_is_half_minus_carry(self):
        # the carry form against the fractional-part oracle at every residue,
        # and the identity the Riemann-sum kernel regroups by: with
        # b = c^(-1) a mod D, E_c(n, a) = (c-1)/2 - floor(c b / D), and
        # a = c b - D floor(c b / D)
        for p, d, c in ((3, 1, 2), (3, 4, 7), (5, 1, 3), (5, 3, 11), (7, 4, 201)):
            params = BernoulliParams(p, d, c)
            for n in range(4):
                D = d * p**n
                for a in range(D):
                    b = pow(c, -1, D) * a % D
                    t = c * b // D
                    assert c * b - D * t == a
                    expected = bernoulli_distribution_fract(params, n, a)
                    assert expected == Fraction(c - 1, 2) - t
                    assert bernoulli_distribution(params, n, a) == expected

    @settings(max_examples=300, deadline=None)
    @given(p=st.sampled_from((3, 5, 7, 11)), d=st.integers(1, 12),
           c=st.integers(2, 10**4), n=st.integers(0, 4),
           a=st.integers(-10**6, 10**6))
    def test_matches_fract_oracle(self, p, d, c, n, a):
        assume(math.gcd(d, p) == 1 and math.gcd(c, d * p) == 1)
        params = BernoulliParams(p, d, c)
        assert bernoulli_distribution(params, n, a) == \
            bernoulli_distribution_fract(params, n, a)

    @settings(max_examples=200, deadline=None)
    @given(p=st.sampled_from((3, 5, 7)), d=st.integers(1, 12), c=st.integers(2, 500),
           n=st.integers(0, 4), a=st.integers(-10**6, 10**6))
    def test_reads_a_mod_D(self, p, d, c, n, a):
        assume(math.gcd(d, p) == 1 and math.gcd(c, d * p) == 1)
        params = BernoulliParams(p, d, c)
        D = d * p**n
        value = bernoulli_distribution(params, n, a)
        assert bernoulli_distribution(params, n, a + D) == value
        assert bernoulli_distribution(params, n, a % D) == value

    def test_refine_sum_example(self):
        assert distribution_refine_sum(P312, 1, 1) == Fraction(-1, 2)

    def test_refine_sum_exhaustive(self):
        for p in (3, 5):
            for d in (1, 2):
                if math.gcd(d, p) != 1:
                    continue
                for c in (2, 3):
                    if math.gcd(c, d * p) != 1:
                        continue
                    params = BernoulliParams(p, d, c)
                    for m in range(4):
                        for x in range(d * p**m):
                            assert distribution_refine_sum(params, m, x) == \
                                bernoulli_distribution(params, m, x)

    def test_division_variant_fails_compatibility(self):
        bad = distribution_refine_sum(P312, 1, 1,
                                      dist=bernoulli_distribution_div_by_c_fract)
        good = bernoulli_distribution_div_by_c_fract(P312, 1, 1)
        assert bad != good
        # the variant collapses to the constant (c-1)/2
        assert good == Fraction(1, 2) and bad == Fraction(3, 2)
        # on the criterion-5 grid it is that constant as written with
        # fractional parts, its doubled table is the constant c - 1, and it
        # fails at every residue, where the genuine distribution fails at none
        for params in C5_GRID:
            p, d, half = params.p, params.d, Fraction(params.c - 1, 2)
            for m in range(4):
                assert div_by_c_period(params, m) == (2 * half,) * min(params.c, d * p**m)
                for x in range(d * p**m):
                    assert bernoulli_distribution_div_by_c_fract(params, m, x) == half
            failures = [(m, x, half, p * half) for m in range(4) for x in range(d * p**m)]
            assert measure_failures(params, 3, div_by_c_period) == (failures, [])
            assert measure_failures(params, 3) == ([], [])

    def test_shifted_denominator_fails_compatibility(self):
        # the one-level-down denominator reading is not a distribution
        params = BernoulliParams(5, 1, 3)
        mismatches = [
            x for x in range(5)
            if distribution_refine_sum(params, 1, x, dist=shifted_denominator)
            != shifted_denominator(params, 1, x)
        ]
        assert mismatches


# each reading of the distribution as a per-residue form, with the level
# period the library sweeps for it where it has one
READINGS = {
    "bernoulli_distribution": (bernoulli_distribution, carry_period),
    "bernoulli_distribution_div_by_c": (bernoulli_distribution_div_by_c_fract, div_by_c_period),
    "shifted_denominator": (shifted_denominator, None),
}


class TestSweep:
    @pytest.mark.parametrize("reading", list(READINGS))
    def test_matches_residue_by_residue_oracle(self, reading):
        dist, period = READINGS[reading]
        for params in C5_GRID:
            expected = (compatibility_failures_bruteforce(params, 3, dist),
                        boundedness_failures_bruteforce(params, 3, dist))
            assert measure_failures(params, 3, level_period(dist)) == expected
            if period is not None:
                assert measure_failures(params, 3, period) == expected

    @settings(max_examples=40, deadline=None)
    @given(p=st.sampled_from((3, 5, 7, 11, 13)), d=st.sampled_from((1, 2, 4)),
           c=st.integers(2, 13), max_level=st.integers(0, 3))
    def test_integer_sweep_matches_bruteforce(self, p, d, c, max_level):
        assume(math.gcd(c, d * p) == 1)
        params = BernoulliParams(p, d, c)
        assert measure_failures(params, max_level) == ([], [])
        assert compatibility_failures_bruteforce(params, max_level) == []
        # and it reports every residue where the division reading fails
        half = Fraction(c - 1, 2)
        assert measure_failures(params, max_level, div_by_c_period) == (
            [(m, x, half, p * half) for m in range(max_level + 1) for x in range(d * p**m)], [])

    def test_reads_each_level_once(self):
        seen = []

        def counted(period):
            def read(params, n):
                values = period(params, n)
                seen.append((n, len(values)))
                return values
            return read

        # the costliest cell of the measure benchmark: one period of c = 3
        # values at each of the levels 0 to 4, where whole level tables would
        # be 4 * (1 + 7 + 49 + 343 + 2401) = 11204 values
        assert measure_failures(BernoulliParams(7, 4, 3), 3, counted(carry_period)) == ([], [])
        assert seen == [(n, 3) for n in range(5)]
        assert sum(length for _, length in seen) == 15
        # the division reading over p, the constant (c - 1)/p = 2/5, fails both
        # properties at every residue, and both verdicts come from the same reads
        seen.clear()
        params = BernoulliParams(5, 2, 3)

        def div_by_c_over_p(pr, n):
            return [Fraction(v, pr.p) for v in div_by_c_period(pr, n)]

        compatibility, boundedness = measure_failures(params, 2, counted(div_by_c_over_p))
        assert seen == [(0, 2), (1, 3), (2, 3), (3, 3)]
        residues = [(m, x) for m in range(3) for x in range(2 * 5**m)]
        assert compatibility == [(m, x, Fraction(1, 5), 1) for m, x in residues]
        assert boundedness == [(m, x, 5, 3) for m, x in residues]

    def test_whole_tables_refused(self):
        # a hook that returns a whole level table, or any read that is not
        # one period of min(c, d*p^n) values, is refused
        params = BernoulliParams(5, 2, 3)

        def whole_level(pr, n):
            return [2 * bernoulli_distribution(pr, n, a) for a in range(pr.d * pr.p**n)]

        with pytest.raises(ValueError, match=r"gave 10 values at level 1, not one period "
                                             r"of min\(c, d\*p\^n\) = 3"):
            measure_failures(params, 2, whole_level)
        with pytest.raises(ValueError, match="gave 2 values at level 1"):
            measure_failures(params, 2, lambda pr, n: carry_period(pr, 0))

    @settings(max_examples=30, deadline=None)
    @given(p=st.sampled_from((3, 5, 7, 11, 13)), d=st.integers(1, 6),
           c=st.integers(2, 60), max_level=st.integers(0, 3),
           q=st.sampled_from((2, 3, 5, 7, 11, 13)))
    def test_periods_match_bruteforce(self, p, d, c, max_level, q):
        # c up to 60 exceeds d p^m at low levels, where a period is the
        # whole level; every reading depends only on a mod c
        assume(math.gcd(d, p) == 1 and math.gcd(c, d * p) == 1)
        params = BernoulliParams(p, d, c)

        def over_q(pr, n, a):
            return bernoulli_distribution(pr, n, a) / q

        for dist in (bernoulli_distribution, bernoulli_distribution_div_by_c_fract,
                     bernoulli_distribution_over_p, over_q, shifted_denominator):
            assert measure_failures(params, max_level, level_period(dist)) == (
                compatibility_failures_bruteforce(params, max_level, dist),
                boundedness_failures_bruteforce(params, max_level, dist))


    # (p, d, c) with D = d p^m against c at the levels m = 0 .. 3: pD <= c
    # (the periods are whole levels), D < c <= pD, and c <= D
    SLICE_CELLS = {
        "pD<=c": [(3, 1, 29), (5, 2, 53)],
        "D<c<=pD": [(5, 1, 7), (7, 2, 9), (3, 1, 29)],
        "c<=D": [(3, 2, 5), (7, 4, 3)],
    }

    @pytest.mark.parametrize("cell", [cell for cells in SLICE_CELLS.values() for cell in cells])
    def test_slices_match_bruteforce(self, cell):
        # each refined sum is one slice of the next period repeated: held to
        # the residue-by-residue oracles for every reading, the Fraction ones
        # (E_c/p and E_c/q) among them, from hooks that return lists and
        # tuples alike
        params = BernoulliParams(*cell)
        p = params.p

        def over(q):
            return lambda pr, n, a: bernoulli_distribution(pr, n, a) / q

        readings = [bernoulli_distribution, bernoulli_distribution_div_by_c_fract,
                    bernoulli_distribution_over_p, shifted_denominator]
        readings += [over(q) for q in (2, 3, 11) if q != p]
        for dist in readings:
            expected = (compatibility_failures_bruteforce(params, 3, dist),
                        boundedness_failures_bruteforce(params, 3, dist))
            as_list = level_period(dist)
            assert measure_failures(params, 3, as_list) == expected
            assert measure_failures(params, 3, lambda pr, n: tuple(as_list(pr, n))) == expected

    def test_cells_reach_each_case(self):
        def cases(p, d, c):
            return {"pD<=c" if p * D <= c else "D<c<=pD" if D < c else "c<=D"
                    for D in (d * p**m for m in range(4))}

        for case, cells in self.SLICE_CELLS.items():
            assert all(case in cases(*cell) for cell in cells)

    @settings(max_examples=300, deadline=None)
    @given(p=st.sampled_from((3, 5, 7, 11, 13, 101)), d=st.integers(1, 60),
           c=st.integers(2, 10**6), m=st.integers(0, 30))
    def test_slice_step_is_never_zero(self, p, d, c, m):
        # s = D mod len(fine) with len(fine) = min(c, p D): c is prime to D
        # and at least 2, and p D > D, so no slice step is 0 and the sweep
        # needs no case for it
        assume(math.gcd(d, p) == 1 and math.gcd(c, d * p) == 1)
        D = d * p**m
        assert D % min(c, p * D) != 0


class TestCarryTable:
    @settings(max_examples=200, deadline=None)
    @given(params=st.sampled_from(C5_GRID + [BernoulliParams(5, 3, 101),
                                             BernoulliParams(7, 1, 400)]),
           level=st.integers(0, 4))
    def test_matches_distribution(self, params, level):
        # the period read at a mod len(period) is the whole level
        period = carry_period(params, level)
        for a in range(params.d * params.p**level):
            assert period[a % len(period)] == 2 * bernoulli_distribution(params, level, a)

    @settings(max_examples=200, deadline=None)
    @given(params=st.sampled_from(C5_GRID + [BernoulliParams(5, 3, 101), BernoulliParams(7, 1, 400),
                                             BernoulliParams(3, 2, 10007)]),
           level=st.integers(0, 80))
    def test_period_matches_distribution(self, params, level):
        # one period, min(c, D) values, read from D mod c alone: the whole
        # level where D < c, and at levels whose p^level is far past c
        period = carry_period(params, level)
        assert type(period) is tuple
        assert period == tuple(2 * bernoulli_distribution(params, level, a)
                               for a in range(min(params.c, params.d * params.p**level)))


def sweep_work(params, max_level):
    """(values read, terms summed) of a sweep, level by level: one period of
    min(c, d p^n) values at each level n <= max_level + 1, and p terms for
    each class of the periods of the levels m <= max_level."""
    lengths, length = [], min(params.c, params.d)
    for _ in range(max_level + 2):
        lengths.append(length)
        length = min(params.c, length * params.p)
    return sum(lengths), params.p * sum(lengths[:-1])


class Started(Exception):
    pass


def started(*args):
    raise Started


class TestSweepLimit:
    def test_negative_level_refused(self):
        with pytest.raises(ValueError, match="max_level must be >= 0, got -1"):
            measure_failures(P312, -1)

    def test_refused_just_past_the_limit_before_any_evaluation(self):
        # at (3, 1, 2) a sweep to level L reads 1 + 2 (L + 1) values and sums
        # 3 (1 + 2 L) terms, 8 L + 6 in all: 1999998 at L = 249999 starts
        # the sweep, 2000006 at L = 250000 is refused before any read, and
        # so is a huge level, at no cost
        assert MAX_SWEEP_EVALUATIONS == 2_000_000
        assert sweep_work(P312, 249999) == (500001, 1499997)
        with pytest.raises(Started):
            measure_failures(P312, 249999, started)
        with pytest.raises(CostLimitExceeded, match=r"^a sweep to level 250000 reads 500003 "
                                                    r"values and sums 1500003 terms, over "
                                                    r"the limit of 2000000$"):
            measure_failures(P312, 250000, started)
        with pytest.raises(CostLimitExceeded, match=r"^a sweep to level 1000000000 reads "
                                                    r"2000000003 values and sums 6000000003"):
            measure_failures(P312, 10**9, started)

    def test_whole_table_size_is_not_refused(self):
        # the old bound, (p + 1) d sum_(m <= L) p^m values of whole level
        # tables, refused (7, 13, 2) at level 5 (2039232) and (3, 1, 2) at
        # level 40; the sweep reads 2 values a level at both
        assert measure_failures(BernoulliParams(7, 13, 2), 5) == ([], [])
        assert measure_failures(P312, 40) == ([], [])

    @settings(max_examples=200, deadline=None)
    @given(p=st.sampled_from((3, 5, 7, 11, 101)), d=st.integers(1, 50),
           c=st.integers(2, 10**6), max_level=st.integers(0, 40))
    def test_work_is_the_periods_read_and_the_terms_summed(self, p, d, c, max_level):
        # the closed form of the bound against the level-by-level sum: a
        # sweep inside the limit starts reading, one past it is refused
        # before any read, naming both counts
        assume(math.gcd(d, p) == 1 and math.gcd(c, d * p) == 1)
        params = BernoulliParams(p, d, c)
        reads, terms = sweep_work(params, max_level)
        if reads + terms <= MAX_SWEEP_EVALUATIONS:
            with pytest.raises(Started):
                measure_failures(params, max_level, started)
        else:
            with pytest.raises(CostLimitExceeded, match=rf"^a sweep to level {max_level} reads "
                                                        rf"{reads} values and sums {terms} terms"):
                measure_failures(params, max_level, started)

    def test_failing_listing_refused_before_it_is_built(self, monkeypatch):
        # the division reading fails at every residue, so a sweep to level L
        # at (3, 1, 2) lists sum_(m <= L) 3^m tuples: 40 to level 3 and 121
        # to level 4, which reads 11 values and sums 27 terms.  Under a
        # limit of 40 the level-4 tuples are counted, not built: only the
        # 2 Fractions of each of the 40 tuples of levels 0 to 3 are made
        made = []

        def counted(*args):
            made.append(args)
            return Fraction(*args)

        monkeypatch.setattr(measure, "MAX_SWEEP_EVALUATIONS", 40)
        monkeypatch.setattr(measure, "Fraction", counted)
        assert sweep_work(P312, 4) == (11, 27)
        assert len(measure_failures(P312, 3, div_by_c_period)[0]) == 40
        made.clear()
        with pytest.raises(CostLimitExceeded, match=r"^the failures of a sweep to level 4 are "
                                                    r"121 \(m, x\) tuples, over the limit of 40$"):
            measure_failures(P312, 4, div_by_c_period)
        assert len(made) == 2 * 40

    def test_listing_counts_both_kinds(self, monkeypatch):
        # the division reading over p fails both properties at each of the
        # 2 + 10 + 50 residues of levels 0 to 2 at (5, 2, 3): 124 tuples
        params = BernoulliParams(5, 2, 3)

        def div_by_c_over_p(pr, n):
            return [Fraction(v, pr.p) for v in div_by_c_period(pr, n)]

        monkeypatch.setattr(measure, "MAX_SWEEP_EVALUATIONS", 124)
        compatibility, boundedness = measure_failures(params, 2, div_by_c_over_p)
        assert len(compatibility) == len(boundedness) == 62
        monkeypatch.setattr(measure, "MAX_SWEEP_EVALUATIONS", 123)
        with pytest.raises(CostLimitExceeded, match=r"level 2 are 124 \(m, x\) tuples"):
            measure_failures(params, 2, div_by_c_over_p)
        # a reading that fails at one class lists only that class's residues:
        # at (5, 1, 10007) the value of the class 1 of level 8 is off by 1,
        # which fails at its 40 residues below 5^8 and at the 40 residues of
        # level 7 with a lift in it, where the whole tables of levels 0 to 8
        # would be 6 (5^9 - 1)/4 = 2929686 values
        c, D7 = 10007, 5**7
        monkeypatch.setattr(measure, "MAX_SWEEP_EVALUATIONS", 2_000_000)

        def one_class_off(pr, n):
            values = list(carry_period(pr, n))
            if n == 8:
                values[1] += 2
            return values

        compatibility, boundedness = measure_failures(BernoulliParams(5, 1, c), 8,
                                                      one_class_off)
        expected = ([(7, x) for x in range(D7) if any((x + k * D7) % c == 1 for k in range(5))]
                    + [(8, x) for x in range(1, 5 * D7, c)])
        assert len(expected) == 80 and boundedness == []
        assert [(m, x) for m, x, _, _ in compatibility] == expected


class TestBoundedness:
    @settings(max_examples=100, deadline=None)
    @given(p=st.sampled_from((3, 5, 7, 11, 13)), d=st.integers(1, 6),
           c=st.integers(2, 60), max_level=st.integers(0, 3))
    def test_genuine_measure_is_bounded(self, p, d, c, max_level):
        assume(math.gcd(d, p) == 1 and math.gcd(c, d * p) == 1)
        params = BernoulliParams(p, d, c)
        assert measure_failures(params, max_level)[1] == []
        assert boundedness_failures_bruteforce(params, max_level) == []

    def test_measure_over_p_fails_where_the_oracle_does(self):
        over_p = bernoulli_distribution_over_p
        for params in C5_GRID:
            # E_c / p is still a distribution: only the bound fails
            compatibility, failures = measure_failures(params, 3, level_period(over_p))
            assert compatibility == []
            assert failures == boundedness_failures_bruteforce(params, 3, over_p)
            assert bool(failures) == (params.p > 3 or (params.c - 1) % 3 == 0)
            assert all(type(lhs) is Fraction for _, _, lhs, _ in failures)

    def test_measure_over_p_counterexamples(self):
        # 2 E_c(U) is 2, 0 or -2 at c = 3, so ||E_c(U) / p|| is 5 or 0 and K = 3:
        # the 41 residues of levels 0 to 2 where E_c(U) is not 0
        params = BernoulliParams(5, 2, 3)
        failures = measure_failures(params, 2, level_period(bernoulli_distribution_over_p))[1]
        assert len(failures) == 41
        assert {(lhs, K) for _, _, lhs, K in failures} == {(5, 3)}
        assert [(m, x) for m, x, _, _ in failures] == [
            (m, x) for m in range(3) for x in range(2 * 5**m)
            if bernoulli_distribution(params, m, x) != 0]
        assert failures[:2] == [(0, 0, 5, 3), (1, 0, 5, 3)]

    def test_norms_made_once_per_distinct_value(self, monkeypatch):
        # 2 E_c takes the c = 3 values 2, 0, -2 on each of the 1600 residues
        # of levels 0 to 3.  Their denominators are prime to 7, so the
        # genuine E_c makes no norm; E_c / 7 makes one for each of 2/7 and
        # -2/7 at each level, and none for 0; K is made only at a level that
        # makes a norm
        norms, norm = [], measure._norm
        bounds, bound = [], measure.norm_bound_constant

        def counted(p, q):
            norms.append(q)
            return norm(p, q)

        def counted_bound(p, c):
            bounds.append((p, c))
            return bound(p, c)

        monkeypatch.setattr(measure, "_norm", counted)
        monkeypatch.setattr(measure, "norm_bound_constant", counted_bound)
        params = BernoulliParams(7, 4, 3)
        assert measure_failures(params, 3) == ([], [])
        assert norms == [] and bounds == []
        failures = measure_failures(params, 3, level_period(bernoulli_distribution_over_p))[1]
        zeros = sum(carry_period(params, m)[a % 3] == 0
                    for m in range(4) for a in range(4 * 7**m))
        assert len(failures) == 1600 - zeros
        assert sorted(norms) == sorted([Fraction(-2, 7), Fraction(2, 7)] * 4)
        assert bounds == [(7, 3)] * 4

    @settings(max_examples=60, deadline=None)
    @given(p=st.sampled_from((3, 5, 7, 11, 13)), d=st.integers(1, 6),
           c=st.integers(2, 60), max_level=st.integers(0, 3),
           q=st.sampled_from((2, 3, 5, 7, 11, 13, None)))
    def test_denominators_prime_to_p_make_no_norm(self, p, d, c, max_level, q):
        # E_c / q for a prime q != p, or E_c / (p + 1) for q None: Fraction
        # values whose denominators are prime to p, so norms of at most 1 < K
        assume(math.gcd(d, p) == 1 and math.gcd(c, d * p) == 1 and q != p)
        params = BernoulliParams(p, d, c)
        q = p + 1 if q is None else q

        def over_q(pr, n, a):
            return bernoulli_distribution(pr, n, a) / q

        with mock.patch.object(measure, "_norm", wraps=measure._norm) as norm:
            failures = measure_failures(params, max_level, level_period(over_q))[1]
        assert norm.call_count == 0
        assert failures == boundedness_failures_bruteforce(params, max_level, over_q) == []



class TestEquiClass:
    def test_examples(self):
        assert equi_class(1, 3, 1, 2, 1) == [1, 4, 7]
        assert equi_class(1, 3, 2, 2, 5) == [5]
        assert equi_class(2, 5, 0, 1, 1) == [1, 3, 5, 7, 9]

    def test_partition(self):
        all_fine = []
        for a in range(9):
            all_fine += equi_class(1, 3, 2, 3, a)
        assert sorted(all_fine) == list(range(27))

    def test_level_order(self):
        with pytest.raises(LevelOrder):
            equi_class(1, 3, 2, 1, 0)

    def test_unreduced_base_refused(self):
        for a in (-1, 9):
            with pytest.raises(ValueError, match=f"{a} is not reduced modulo 9"):
                equi_class(1, 3, 2, 3, a)


class TestCylinders:
    def test_char_fn_table(self):
        f = char_fn(ClopenSet(1, 3, 1, 0))
        assert f.values == (1, 0, 0) and (f.nums, f.den) == ((1, 0, 0), 1)

    def test_char_fn_level_zero_constant(self):
        f = char_fn(ClopenSet(1, 3, 0, 0))
        assert f.values == (1,)

    def test_refine_is_constant_on_fibers(self):
        f = char_fn(ClopenSet(1, 3, 1, 1))
        g = f.refine_level(2)
        ones = [b for b in range(9) if g.values[b]]
        assert ones == [1, 4, 7]

    def test_total_table_required(self):
        one = Fraction(1)
        for values in ((one,), (one,) * 4, []):
            with pytest.raises(ValueError, match="expected 3"):
                CylinderFunction(1, 3, 1, values)
        # a dict would otherwise become the tuple of its keys
        with pytest.raises(TypeError, match="not a dict"):
            CylinderFunction(1, 3, 1, {a: one for a in range(3)})
        with pytest.raises(TypeError, match="not a set"):
            CylinderFunction(1, 3, 0, {one})
        # the values are rationals: a p-adic entry is refused
        with pytest.raises(TypeError, match="must be rationals"):
            CylinderFunction(1, 3, 1, [one, PadicNum.from_unit(3, 0, 1, 4), one])
        f = CylinderFunction(1, 3, 1, [one] * 3)
        assert f.values == (one,) * 3 and type(f.values) is tuple

    def test_decompose_recombine_all_levels_up_to_two(self):
        rng = random.Random(7)
        for level in (0, 1, 2):
            for _ in range(5):
                f = random_cylinder(rng, 3, 1, level)
                acc = None
                for coeff, clopen in cylinder_decompose(f):
                    g = char_fn(clopen)
                    term = CylinderFunction(g.d, g.p, g.level, [coeff * v for v in g.values])
                    acc = term if acc is None else acc + term
                assert acc.values == f.values

    @settings(max_examples=150, deadline=None)
    @given(p=st.sampled_from((3, 5, 7, 11)), d=st.integers(1, 6), level=st.integers(0, 3),
           zero_share=st.sampled_from((0, 0.5, 1)), seed=st.integers(0, 2**32))
    def test_states_round_trip(self, p, d, level, zero_share, seed):
        # the entries are stored as integer numerators over the least common
        # denominator and rebuilt as Fractions on each read
        assume(math.gcd(d, p) == 1)
        vals = rational_values(random.Random(seed), p, d, level, zero_share)
        f = CylinderFunction(d, p, level, vals)
        assert f.values == tuple(vals)
        assert f.den == math.lcm(*(Fraction(v).denominator for v in vals))
        assert f.nums == tuple(v * f.den for v in vals)
        g = CylinderFunction._of(d, p, level, f.nums, f.den)
        assert (g.d, g.p, g.level, g.nums, g.den, g.values) == \
            (d, p, level, f.nums, f.den, f.values)

    def test_negative_level_refused(self):
        with pytest.raises(LevelOrder, match="level must be >= 0, got -1"):
            CylinderFunction(1, 5, -1, [])

    def test_clopen_base_must_be_reduced(self):
        assert ClopenSet(2, 3, 1, 5).base == 5
        for base in (-1, 6):
            with pytest.raises(ValueError, match=f"base {base} is not reduced modulo 2\\*3\\^1"):
                ClopenSet(2, 3, 1, base)

    def test_char_fn_decomposes_to_itself(self):
        U = ClopenSet(1, 5, 1, 2)
        pairs = [(c, cl) for c, cl in cylinder_decompose(char_fn(U)) if c]
        assert len(pairs) == 1 and pairs[0][1] == U


class TestSuiteRandomCylinder:
    def test_random_cylinder_draws_are_pinned(self):
        # 360 draws and the rng state after each: criterion 7 sees the same
        # functions from the same seed, whatever way they are drawn
        digest = hashlib.sha256()
        for seed in range(10):
            for p in (3, 5, 7):
                for d in (1, 2, 4):
                    for level in range(4):
                        rng = random.Random(seed)
                        f = measure_random_cylinder(rng, p, d, level)
                        line = json.dumps([seed, p, d, level, [str(v) for v in f.values],
                                           rng.random()])
                        digest.update(line.encode() + b"\n")
        assert digest.hexdigest()[:16] == "ce37cc8ad1e626d6"

    @settings(max_examples=60, deadline=None)
    @given(p=st.sampled_from((3, 5, 7, 11)), d=st.integers(1, 4), c=st.integers(2, 40),
           level=st.integers(0, 3), relprec=st.integers(1, 12), seed=st.integers(0, 2**32))
    def test_bound_and_integral_match_oracles(self, p, d, c, level, relprec, seed):
        # on the drawn function and on its refinement one level up
        assume(math.gcd(d, p) == 1 and math.gcd(c, d * p) == 1)
        params = BernoulliParams(p, d, c)
        f = measure_random_cylinder(random.Random(seed), p, d, level)
        for g in (f, f.refine_level(level + 1)):
            assert norm_bound_check(params, g) == norm_bound_check_two_pass(params, g)
            exact = integral_fract(params, g)
            assert integral(params, g) == exact
            assert measure_apply(params, g, relprec) == PadicNum.from_rational(p, exact, relprec)

    def test_builds_no_padicnum_per_entry(self, monkeypatch):
        # drawing and bounding 2 * 5^3 entries builds no PadicNum at all
        built = []
        init = PadicNum.__init__

        def counted(self, *args):
            built.append(args)
            init(self, *args)

        monkeypatch.setattr(PadicNum, "__init__", counted)
        f = measure_random_cylinder(random.Random(1), 5, 2, 3)
        lhs, rhs, ok = norm_bound_check(BernoulliParams(5, 2, 3), f)
        assert ok and rhs > 0 and len(f.nums) == 250
        assert built == []

    def test_negative_level_refused(self):
        rng = random.Random(1)
        state = rng.getstate()
        with pytest.raises(LevelOrder, match="level must be >= 0, got -1"):
            measure_random_cylinder(rng, 5, 1, -1)
        assert rng.getstate() == state


class TestMeasureApply:
    def test_char_fn_gives_distribution_value(self):
        for a in range(3):
            f = char_fn(ClopenSet(1, 3, 1, a))
            value = bernoulli_distribution(P312, 1, a)
            assert integral(P312, f) == value
            assert measure_apply(P312, f, 8) == PadicNum.from_rational(3, value, 8)

    def test_zero_function(self):
        f = CylinderFunction(1, 3, 1, (0,) * 3)
        assert measure_apply(P312, f, 8).is_exact_zero()

    def test_refinement_invariance(self):
        rng = random.Random(3)
        for _ in range(20):
            f = random_cylinder(rng, 3, 1, rng.randint(0, 2))
            base = measure_apply(P312, f, 8)
            for extra in (1, 2):
                assert measure_apply(P312, f.refine_level(f.level + extra), 8) == base

    def test_linearity(self):
        rng = random.Random(11)
        params = BernoulliParams(5, 1, 3)
        for _ in range(10):
            f = random_cylinder(rng, 5, 1, 1)
            g = random_cylinder(rng, 5, 1, 1)
            alpha = Fraction(rng.randint(1, 50), rng.randint(1, 9))
            alpha_f = CylinderFunction(f.d, f.p, f.level, [alpha * v for v in f.values])
            assert integral(params, alpha_f + g) == alpha * integral(params, f) + integral(params, g)

    @settings(max_examples=300, deadline=None)
    @given(p=st.sampled_from((3, 5, 7, 11)), d=st.integers(1, 6), c=st.integers(2, 40),
           level=st.integers(0, 3), zero_share=st.sampled_from((0, 0.1, 0.5, 1)),
           seed=st.integers(0, 2**32))
    def test_integral_matches_fract_oracle_and_refinement(self, p, d, c, level, zero_share,
                                                          seed):
        assume(math.gcd(d, p) == 1 and math.gcd(c, d * p) == 1)
        params = BernoulliParams(p, d, c)
        f = rational_cylinder(random.Random(seed), p, d, level, zero_share)
        exact = integral(params, f)
        assert exact == integral_fract(params, f)
        for extra in (1, 2):
            assert integral(params, f.refine_level(level + extra)) == exact

    @settings(max_examples=300, deadline=None)
    @given(p=st.sampled_from((3, 5, 7, 11)), d=st.integers(1, 6), c=st.integers(2, 40),
           level=st.integers(0, 3), relprec=st.integers(1, 12),
           zero_share=st.sampled_from((0, 0.1, 0.5, 1)), seed=st.integers(0, 2**32))
    def test_matches_fold_oracle(self, p, d, c, level, relprec, zero_share, seed):
        # the embedded exact integral claims every digit the fold certifies
        # and agrees with it on each of them
        assume(math.gcd(d, p) == 1 and math.gcd(c, d * p) == 1)
        params = BernoulliParams(p, d, c)
        f = rational_cylinder(random.Random(seed), p, d, level, zero_share)
        got = measure_apply(params, f, relprec)
        fold = measure_apply_fold(params, level, f.values, relprec)
        if fold.is_exact_zero():
            assert got.is_exact_zero()
        else:
            assert got.abs_precision >= fold.abs_precision
            assert eq_mod(got, fold, fold.abs_precision)

    def test_outcome_kinds(self):
        # the exact zero when every entry is 0, when E_c vanishes at every
        # nonzero entry or when the terms cancel; a finite value otherwise,
        # also where the fold at relprec 1 can only say O(3)
        e0, e1 = (bernoulli_distribution(P312, 1, a) for a in (0, 1))
        cases = [
            (P312, (0, 0, 0), "zero"),
            # E_c(1, 1) = 0 at c = 3
            (BernoulliParams(5, 1, 3), [1 if a == 1 else 0 for a in range(5)], "zero"),
            (P312, (e1, -e0, 0), "zero"),
            (P312, (1, 0, 1), "finite"),
            (P312, (1 / e0, (3**5 - 1) / e1, 0), "finite"),
        ]
        for params, values, kind in cases:
            f = CylinderFunction(params.d, params.p, 1, values)
            got = measure_apply(params, f, 8)
            assert got == PadicNum.from_rational(params.p, integral_fract(params, f), 8)
            assert kind == ("zero" if got.is_exact_zero() else "finite")
        f = CylinderFunction(1, 3, 1, (1 / e0, (3**5 - 1) / e1, 0))
        assert integral(P312, f) == 3**5
        assert measure_apply_fold(P312, 1, f.values, 1).is_zero_at_precision()

    def test_rejects_bad_input_as_the_fold_does(self):
        f = CylinderFunction(1, 5, 0, (1,))
        for fn in (integral, measure_apply, norm_bound_check):
            with pytest.raises(ValueError, match="does not match the measure parameters"):
                fn(BernoulliParams(5, 2, 3), f)
        g = char_fn(ClopenSet(1, 3, 0, 0))
        with pytest.raises(ValueError, match="relative precision"):
            measure_apply(P312, g, 0)
        with pytest.raises(ValueError, match="relative precision"):
            measure_apply_fold(P312, 0, g.values, 0)


class TestExtendByZero:
    def test_example(self):
        f = units_cylinder(1, 3, 1, {1: 1, 2: Fraction(1, 2)})
        assert f.values == (0, 1, Fraction(1, 2))

    def test_idempotent(self):
        f = units_cylinder(1, 3, 1, {1: 1, 2: 1})
        g = units_cylinder(f.d, f.p, f.level, f.values)
        assert g.values == f.values

    def test_support_is_unit_partition(self):
        rng = random.Random(5)
        f = random_cylinder(rng, 5, 2, 1)
        g = units_cylinder(f.d, f.p, f.level, f.values)
        units, nonunits = partition_range(2, 5, 1)
        for a in nonunits:
            assert g.values[a] == 0
        for a in units:
            assert g.values[a] == f.values[a]


class TestNormBound:
    def test_char_fn_example(self):
        lhs, rhs, ok = norm_bound_check(P312, char_fn(ClopenSet(1, 3, 1, 1)))
        assert ok and lhs == 1 and rhs == 3

    def test_zero_function(self):
        f = CylinderFunction(1, 3, 1, (0,) * 3)
        lhs, rhs, ok = norm_bound_check(P312, f)
        assert ok and lhs == 0

    def test_rhs_is_bound_times_norm_of_least_valuation(self):
        rng = random.Random(13)
        params = BernoulliParams(5, 2, 3)
        K = norm_bound_constant(5, 3)
        for zero_share in (0, 0.5, 1):
            for level in (0, 1, 2):
                f = rational_cylinder(rng, 5, 2, level, zero_share)
                _, rhs, _ = norm_bound_check(params, f)
                assert rhs == K * max(PadicNum.from_rational(5, v).norm() for v in f.values)
                assert type(rhs) is Fraction
        assert norm_bound_check(P312, rational_cylinder(rng, 3, 1, 2, 1))[1] == 0
        # an entry counts where E_c vanishes, as E_c(1, 1) does at c = 3
        f = CylinderFunction(1, 5, 1, (0, Fraction(1, 25), 0, 0, 0))
        assert norm_bound_check(BernoulliParams(5, 1, 3), f) == (0, 25 * K, True)

    @settings(max_examples=300, deadline=None)
    @given(p=st.sampled_from((3, 5, 7, 11)), d=st.integers(1, 6), c=st.integers(2, 40),
           level=st.integers(0, 3), zero_share=st.sampled_from((0, 0.1, 0.5, 1)),
           seed=st.integers(0, 2**32))
    def test_matches_two_pass_oracle(self, p, d, c, level, zero_share, seed):
        # odd c gives entries with 2 E_c = 0, which the integral skips but ||f|| reads
        assume(math.gcd(d, p) == 1 and math.gcd(c, d * p) == 1)
        params = BernoulliParams(p, d, c)
        f = rational_cylinder(random.Random(seed), p, d, level, zero_share)
        assert norm_bound_check(params, f) == norm_bound_check_two_pass(params, f)

    def test_randomized_sweep(self):
        rng = random.Random(0)
        for p, d, c in ((3, 1, 2), (5, 2, 3), (7, 1, 3)):
            params = BernoulliParams(p, d, c)
            for _ in range(50):
                f = random_cylinder(rng, p, d, rng.randint(0, 2))
                lhs, rhs, ok = norm_bound_check(params, f)
                assert ok, (p, d, c, lhs, rhs)

    def test_bound_constant_is_the_norm_sum(self):
        more = [BernoulliParams(p, 1, c) for p in (11, 13) for c in range(2, 300)
                if c % p]
        for params in C5_GRID + more:
            p, c = params.p, params.c
            assert norm_bound_constant(p, c) == (
                1 + PadicNum.from_rational(p, c).norm()
                + PadicNum.from_rational(p, Fraction(c - 1, 2)).norm())

    def test_bound_constant(self):
        # K = 1 + |c| + |(c-1)/2| as exact rationals
        params = BernoulliParams(5, 1, 6)  # c-1 = 5 has valuation 1
        f = char_fn(ClopenSet(1, 5, 1, 1))
        _, rhs, _ = norm_bound_check(params, f)
        assert rhs == 1 + 1 + Fraction(1, 5)
