import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    integrand_eval,
    measure_apply_fold,
    principal_unit_power,
    special_value_closed_form_padic,
    weight_eval,
)
from padiclf import lfunction
from padiclf.dirichlet import DirichletCharacter, char_power, make_teich_char
from padiclf.errors import InsufficientPrecision, LevelTooLow, NotCoprime
from padiclf.genbernoulli import chi_omega_minus_k, twisted_mean_limit
from padiclf.lfunction import (
    LpParams,
    p_adic_L,
    riemann_sum,
    special_value_closed_form,
    verify_interpolation,
)
from padiclf.measure import BernoulliParams
from padiclf.modarith import units_of
from padiclf.padic import PadicNum
from paper import asso_dirichlet_character, eq_mod, partition_range, unit


def omega2():
    return char_power(make_teich_char(5), 2)


def main_params(c=2, relprec=12, j_max=7, target=4):
    return LpParams(p=5, d=1, c=c, m=1, chi=omega2(), relprec=relprec,
                    j_min=1, j_max=j_max, target_valuation=target)


class TestWeight:
    def test_k_zero_is_one(self):
        assert weight_eval(5, 0, 7, 6) == PadicNum.from_unit(5, 0, 1, 6)

    def test_example_value(self):
        # <2> = 2 * omega(2)^(-1) = 2 * 68 = 11 mod 125
        v = weight_eval(5, 1, 2, 3)
        assert unit(v) == 11
        assert unit(v) % 5 == 1

    def test_one_fixed(self):
        assert unit(weight_eval(5, 3, 1, 6)) == 1

    def test_lands_in_principal_units(self):
        for lift in (2, 3, 7, 11, 124):
            for k in (1, 2, 5):
                v = principal_unit_power(5, lift, k, 8)
                assert (v - PadicNum.from_unit(5, 0, 1, 8)).valuation() >= 1

    def test_rejects_nonunit(self):
        with pytest.raises(NotCoprime):
            principal_unit_power(5, 10, 1, 6)

    def test_negative_exponent_rejected(self):
        # refused ahead of the precision check, which relprec=2 would fail
        with pytest.raises(ValueError, match="weight exponent must be >= 0"):
            p_adic_L(main_params(relprec=2), -1)


class TestLpParams:
    def test_validation(self):
        chi = omega2()
        with pytest.raises(ValueError, match="odd prime"):
            LpParams(p=4, d=1, c=2, m=1, chi=chi)
        with pytest.raises(ValueError, match="level 25 does not divide"):
            LpParams(p=5, d=1, c=2, m=1, chi=chi.change_level(25))
        with pytest.raises(ValueError, match="level 15 does not divide"):
            LpParams(p=5, d=1, c=2, m=1, chi=chi.change_level(15))
        # an odd chi is taken: p_adic_L answers it with the exact zero
        assert not LpParams(p=5, d=1, c=2, m=1, chi=make_teich_char(5)).chi.is_even()
        with pytest.raises(ValueError, match=r"j_max=1 is below max\(j_min=1, m=2\)"):
            LpParams(p=5, d=1, c=2, m=2, chi=chi, j_max=1)
        with pytest.raises(ValueError, match=r"j_max=7 is below max\(j_min=8, m=1\)"):
            LpParams(p=5, d=1, c=2, m=1, chi=chi, j_min=8)
        # any level dividing d*p^m is taken as it is
        for level in (5, 25):
            assert LpParams(p=5, d=1, c=2, m=2, chi=chi.change_level(level)).chi.level == level

    def test_bad_p_d_c_is_refused(self):
        # (p, d, c) as the measure checks them, before anything else is
        chi = omega2()
        with pytest.raises(NotCoprime):
            LpParams(p=5, d=5, c=2, m=1, chi=chi)
        with pytest.raises(NotCoprime):
            LpParams(p=5, d=1, c=10, m=1, chi=chi)
        with pytest.raises(ValueError, match="c must be >= 2"):
            LpParams(p=5, d=1, c=1, m=0, chi=chi)

    def test_d_must_divide_conductor(self):
        chi = omega2().change_level(15)
        with pytest.raises(ValueError, match="conductor"):
            LpParams(p=5, d=3, c=2, m=1, chi=chi)

    def test_chi_omega_inv_cached(self):
        params = main_params()
        psi = chi_omega_minus_k(params.chi, 1)
        assert psi == make_teich_char(5)  # omega^2 * omega^(-1) = omega


class TestIntegrand:
    def test_unit_integrand_when_twist_trivial(self):
        # chi = omega: chi * omega^(-1) is trivial, weight 0 integrand is 1...
        # omega is odd, so build the even square and check at a = 1 instead
        params = main_params()
        assert unit(integrand_eval(params, 2, 1, 1)) == 1

    def test_matches_factor_product(self):
        params = main_params()
        psi = chi_omega_minus_k(params.chi, 1)
        got = integrand_eval(params, 3, 2, 7)
        expected = asso_dirichlet_character(psi, 7, 12) * principal_unit_power(5, 7, 3, 12)
        assert got == expected

    def test_level_too_low(self):
        params = LpParams(p=5, d=1, c=2, m=2, chi=omega2().change_level(25),
                          relprec=12, j_max=5)
        with pytest.raises(LevelTooLow):
            integrand_eval(params, 1, 1, 2)


class TestRiemannSum:
    def test_level_below_m_rejected(self):
        params = LpParams(p=5, d=1, c=2, m=2, chi=omega2().change_level(25),
                          relprec=10, j_max=5)
        with pytest.raises(LevelTooLow):
            riemann_sum(params, 1, 1)

    def test_locally_constant_weight_is_level_independent(self):
        params = main_params()
        sums = [riemann_sum(params, 0, j) for j in range(1, 5)]
        assert all(s == sums[0] for s in sums)

    def test_cross_check_against_measure_apply(self):
        # independent route: build the integrand's table on the units, zero
        # elsewhere, and integrate it term by term in PadicNum arithmetic
        params = main_params(relprec=10)
        psi = chi_omega_minus_k(params.chi, 1)
        bp = BernoulliParams(params.p, params.d, params.c)
        for j in (1, 2, 3):
            values = [PadicNum.exact_zero(5)] * 5**j
            for a in partition_range(1, 5, j)[0]:
                values[a] = asso_dirichlet_character(psi, a % psi.level, 10)
            via_measure = measure_apply_fold(bp, j, values, 10)
            via_sum = riemann_sum(params, 0, j)
            assert eq_mod(via_sum, via_measure,
                          min(via_sum.abs_precision, via_measure.abs_precision))

    def test_linearity_in_weight_at_fixed_level(self):
        # the integrand map w -> sum is additive when weights are summed
        # pointwise; check with explicit term accumulation at level 2
        params = main_params(relprec=10)
        psi = chi_omega_minus_k(params.chi, 1)
        bp = BernoulliParams(params.p, params.d, params.c)
        units, _ = partition_range(1, 5, 2)
        from padiclf.measure import bernoulli_distribution
        acc = PadicNum.exact_zero(5)
        for a in units:
            term = (integrand_eval(params, 1, 2, a)
                    + integrand_eval(params, 2, 2, a))
            acc = acc + term * PadicNum.from_rational(5, bernoulli_distribution(bp, 2, a), 10)
        split = riemann_sum(params, 1, 2) + riemann_sum(params, 2, 2)
        assert eq_mod(acc, split, min(acc.abs_precision, split.abs_precision))


def refuse_every_sum(monkeypatch):
    def summed(*args, **kwargs):
        raise AssertionError("a sum was taken")

    monkeypatch.setattr(lfunction, "riemann_sum", summed)
    monkeypatch.setattr(lfunction, "special_value_closed_form", summed)


class TestPAdicL:
    def test_locally_constant_converges_at_floor(self):
        params = main_params()
        report = p_adic_L(params, 0)
        assert (report.level_used, report.value.abs_precision) == (7, 7)

    def test_level_is_the_least_that_certifies_every_digit(self):
        # J = max(min(relprec, j_max), j_min, m)
        for relprec, j_min, m, J in ((12, 1, 1, 7), (5, 1, 1, 5), (5, 6, 1, 6), (5, 1, 3, 5),
                                     (2, 1, 3, 3), (2, 4, 3, 4)):
            chi = omega2().change_level(5**m)
            params = LpParams(p=5, d=1, c=2, m=m, chi=chi, relprec=relprec, j_min=j_min,
                              target_valuation=2)
            assert p_adic_L(params, 1).level_used == J

    def test_insufficient_precision_guard(self):
        # the certified digits are min(relprec, j_max), whichever is short
        for relprec, j_max in ((3, 7), (12, 3)):
            with pytest.raises(InsufficientPrecision, match=(
                    rf"min\(relprec={relprec}, j_max={j_max}\) = 3 certified digits do not "
                    r"reach the target valuation 4")):
                p_adic_L(main_params(relprec=relprec, j_max=j_max, target=4), 1)
        for relprec, j_max in ((4, 7), (12, 4)):
            report = p_adic_L(main_params(relprec=relprec, j_max=j_max, target=4), 1)
            assert report.value.abs_precision == 4

    def test_short_digits_are_refused_before_any_sum(self, monkeypatch):
        refuse_every_sum(monkeypatch)
        with pytest.raises(InsufficientPrecision):
            p_adic_L(main_params(c=3, j_max=3, target=8), 1)

    def test_report_json_shape(self):
        report = p_adic_L(main_params(), 1)
        obj = report.to_json()
        assert obj == {"value": report.value.to_json(), "level_used": 7}

    def test_increment_valuations_nondecreasing(self):
        for c, k in ((3, 1), (3, 3), (2, 3)):
            params = main_params(c=c)
            sums = [riemann_sum(params, k, j) for j in range(1, 7)]
            vals = [(sums[i + 1] - sums[i]).valuation() for i in range(5)]
            assert all(b >= a for a, b in zip(vals, vals[1:])), (c, k, vals)


class TestClosedForm:
    # frozen oracle values from exact character algebra at p=5:
    # omega(2)^2 = omega(3)^2 = -1, so <2>^2 = -4, <3>^2 = 9 exactly,
    # and B_(2,triv) = 1/6, B_(4,omega^2) = -8
    CASES = {
        (2, 2): Fraction(1),
        (2, 4): Fraction(-34),
        (3, 2): Fraction(8, 3),
        (3, 4): Fraction(-164),
    }

    @pytest.mark.parametrize("c,n", sorted(CASES))
    def test_exact_values(self, c, n):
        params = main_params(c=c)
        got = special_value_closed_form(params, n)
        want = PadicNum.from_rational(5, self.CASES[(c, n)], 12)
        assert eq_mod(got, want, 12)

    def test_p3_values(self):
        chi3 = char_power(make_teich_char(3), 0)
        params = LpParams(p=3, d=1, c=2, m=1, chi=chi3, relprec=12, j_max=9)
        # <2> = -2 exactly at p=3; targets (1/2)(1-4)(1-3)B_2 and (1/4)(1-16)(1-27)B_4;
        # the 3-divisible factor (1 - <2>^2) = -3 costs one tracked digit
        for n, want in ((2, Fraction(1, 2)), (4, Fraction(-13, 4))):
            got = special_value_closed_form(params, n)
            assert got.abs_precision >= 11
            assert eq_mod(got, PadicNum.from_rational(3, want, 12), got.abs_precision)

    def test_degenerate_euler_factor(self):
        # chi omega^(-4) = omega^2 has conductor 5, so the factor at p is 1
        params = main_params()
        got = special_value_closed_form(params, 4)
        psi = char_power(make_teich_char(5), 2)
        assert asso_dirichlet_character(psi, 0).is_exact_zero()
        assert eq_mod(got, PadicNum.from_rational(5, -34, 12), 12)

    def test_n_must_be_positive(self):
        with pytest.raises(ValueError):
            special_value_closed_form(main_params(), 0)


class TestVerify:
    def test_main_case_passes(self):
        report = verify_interpolation(main_params(), 2)
        assert report.passed and report.sign == "+"
        assert report.valuation_of_difference >= 4
        # the value itself is exactly 1 here
        assert eq_mod(report.lhs, PadicNum.from_unit(5, 0, 1, 12), report.lhs.abs_precision)

    def test_json_schema(self):
        report = verify_interpolation(main_params(), 2)
        obj = report.to_json()
        assert set(obj) == {"lhs", "rhs", "sign", "valuation_of_difference",
                            "valuation_is_exact", "pass"}

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            verify_interpolation(main_params(), 1)

    def test_short_digits_are_refused_before_any_sum(self, monkeypatch):
        refuse_every_sum(monkeypatch)
        with pytest.raises(InsufficientPrecision):
            verify_interpolation(main_params(c=3, j_max=3, target=8), 2)

    @pytest.mark.parametrize("p, e", [(37, 32), (59, 44), (67, 58)])
    def test_passes_where_both_signs_reach_the_target(self, p, e):
        # (p, e) is an irregular pair, p | B_e, so p | B_(n, omega^(e-n)) / n by
        # Kummer's congruence, v(R) >= 1, and both L - R and L + R reach
        # target 1.  The sign is +, whose difference provably has the larger
        # valuation: L - R vanishes at all 4 digits, L + R = 2R mod p^4 does not
        params = LpParams(p=p, d=1, c=2, m=1, chi=char_power(make_teich_char(p), e),
                          relprec=4, j_min=1, j_max=4, target_valuation=1)
        for n in range(2, 8):
            report = verify_interpolation(params, n)
            plus = report.lhs + report.rhs
            assert 1 <= plus.valuation() < 4 and plus.valuation_is_exact
            assert (report.passed, report.sign) == (True, "+")
            assert (report.valuation_of_difference, report.valuation_is_exact) == (4, False)

    def test_wrong_sign_never_clears(self):
        report = verify_interpolation(main_params(c=3), 2)
        assert report.passed
        assert (report.lhs - report.rhs).valuation() >= 4
        assert (report.lhs + report.rhs).valuation() == 0


@st.composite
def grid_points(draw):
    p = draw(st.sampled_from([3, 5, 7]))
    e = draw(st.sampled_from(range(0, p - 1, 2)))
    c = draw(st.sampled_from([c for c in range(2, 14) if c % p]))
    return p, e, c


# every digit p_adic_L claims must be a digit of the closed form, whatever
# the level range and precision, and a call certifying fewer digits than
# the target is refused; at the two examples a rule that stopped once
# level increments looked small claimed 12 digits, of which only 6 and 3
# were right
@example(point=(5, 2, 3), k=1, relprec=12, j_max=7)
@example(point=(5, 0, 7), k=1, relprec=12, j_max=8)
@given(point=grid_points(), k=st.integers(0, 4), relprec=st.integers(4, 12),
       j_max=st.integers(1, 12))
@settings(max_examples=60, deadline=None)
def test_claimed_digits_match_closed_form(point, k, relprec, j_max):
    p, e, c = point
    chi = char_power(make_teich_char(p), e)
    params = LpParams(p=p, d=1, c=c, m=1, chi=chi, relprec=relprec, j_max=j_max)
    if min(relprec, j_max) < params.target_valuation:
        with pytest.raises(InsufficientPrecision):
            p_adic_L(params, k)
        return
    value = p_adic_L(params, k).value
    assert eq_mod(value, special_value_closed_form(params, k + 1, 30), value.abs_precision)
    assert value.abs_precision == min(relprec, j_max)


# the real primitive characters mod 3 and mod 4, both odd
TAME = {1: {0: 1}, 3: {1: 1, 2: -1}, 4: {1: 1, 3: -1}}


@st.composite
def closed_form_points(draw):
    """(p, d, e, c, m): chi is the real character mod d times omega^e, at
    level d p^m, even, so e is odd exactly when d > 1."""
    p = draw(st.sampled_from([3, 5, 7, 11, 13]))
    d = draw(st.sampled_from([d for d in TAME if d % p]))
    e = draw(st.sampled_from(range(d > 1, p - 1, 2)))
    c = draw(st.sampled_from([c for c in range(2, 30) if math.gcd(c, d * p) == 1]))
    return p, d, e, c, draw(st.integers(1, 2))


# chi omega^(-n) trivial; p dividing its conductor; tame with chi_3(5) = -1;
# p | cond at d = 4
@example(point=(5, 1, 2, 2, 1), n=2, N=12)
@example(point=(5, 1, 2, 2, 1), n=4, N=12)
@example(point=(5, 3, 1, 2, 1), n=1, N=7)
@example(point=(3, 4, 1, 5, 2), n=8, N=1)
@example(point=(7, 3, 1, 20, 1), n=1, N=1)
@given(point=closed_form_points(), n=st.integers(1, 8), N=st.integers(1, 20))
@settings(max_examples=150, deadline=None)
def test_closed_form_matches_the_padic_product(point, n, N):
    # the label sum carries exactly N absolute digits, and agrees with the
    # PadicNum product of its factors on every digit both certify; the
    # product certifies more than N digits only where two of its factors
    # are divisible by p.  Where the Euler factor 1 - psi(p) p^(n-1) is 0,
    # at n = 1 with psi(p) = 1 as at (7, 3, 1, 20, 1), the label sum is the
    # exact zero, and the product vanishes to every digit it certifies
    p, d, e, c, m = point
    table = {a: TAME[d][a % d] * pow(a, e, p) for a in units_of(d * p)}
    chi = DirichletCharacter(p, d * p, table).change_level(d * p**m)
    params = LpParams(p=p, d=d, c=c, m=m, chi=chi, relprec=N, j_max=max(N, m))
    got = special_value_closed_form(params, n)
    want = special_value_closed_form_padic(params, n)
    if got.is_exact_zero():
        assert want.is_zero_at_precision()
    else:
        assert got.abs_precision == N
        assert eq_mod(got, want, min(N, want.abs_precision))


@pytest.mark.parametrize("p, d, c", [(7, 3, 2), (7, 3, 20), (13, 3, 2), (5, 4, 3)])
def test_a_vanishing_euler_factor_gives_the_exact_zero(p, d, c):
    # chi = chi_d omega is even, and at n = 1 psi = chi omega^(-1) = chi_d has
    # conductor d and psi(p) = chi_d(p) = 1, so 1 - psi(p) p^0 = 0: the
    # closed form and the twisted-mean limit are both exactly 0
    table = {a: TAME[d][a % d] * pow(a, 1, p) for a in units_of(d * p)}
    chi = DirichletCharacter(p, d * p, table)
    assert TAME[d][p % d] == 1
    params = LpParams(p=p, d=d, c=c, m=1, chi=chi, relprec=12, j_max=12)
    assert special_value_closed_form(params, 1) == PadicNum.exact_zero(p)
    assert twisted_mean_limit(chi, 1, 12) == PadicNum.exact_zero(p)
    assert special_value_closed_form_padic(params, 1).is_zero_at_precision()


def odd_character(p, d, e, m):
    """The real character mod d times omega^e at level d p^m, for e of the
    parity that makes it odd: chi_3 and chi_4 are odd, chi_1 even."""
    assert e % 2 == (d == 1)
    table = {a: TAME[d][a % d] * pow(a, e, p) for a in units_of(d * p)}
    return DirichletCharacter(p, d * p, table).change_level(d * p**m)


@st.composite
def odd_points(draw):
    """(p, d, e, c, m) with chi_d omega^e odd."""
    p = draw(st.sampled_from([3, 5, 7, 11, 13]))
    d = draw(st.sampled_from([d for d in TAME if d % p]))
    e = draw(st.sampled_from(range(d == 1, p - 1, 2)))
    c = draw(st.sampled_from([c for c in range(2, 30) if math.gcd(c, d * p) == 1]))
    return p, d, e, c, draw(st.integers(1, 2))


# c = 2, where the carry takes two values; c = 29 past D/L = 3 at d = 4, p = 3
@example(point=(5, 1, 1, 2, 1), k=0, j=1, N=12)
@example(point=(3, 4, 0, 29, 1), k=3, j=1, N=5)
@given(point=odd_points(), k=st.integers(0, 6), j=st.integers(0, 3), N=st.integers(1, 12))
@settings(max_examples=120, deadline=None)
def test_kernel_sum_vanishes_at_odd_characters(point, k, j, N):
    # the integrand chi omega^(-1)(a) <a>^k is even and 2 E_c(-a) = -2 E_c(a)
    # at every unit a, so the kernel's Riemann sum at level J vanishes to
    # every digit it carries up to J: the representatives a and D - a of a
    # and -a give powers a^k and (D - a)^k that agree only mod D = d p^J.
    # p_adic_L sums at J >= its digits, so it answers odd chi from this fact
    p, d, e, c, m = point
    J = m + j
    N = min(N, J)
    params = LpParams(p=p, d=d, c=c, m=m, chi=odd_character(p, d, e, m), relprec=N,
                      j_max=J)
    value = riemann_sum(params, k, J, N)
    assert value.is_zero_at_precision() and value.abs_precision == N


def test_odd_character_is_the_exact_zero_without_a_sum(monkeypatch):
    def no_sum(*args):
        raise AssertionError("p_adic_L summed at an odd chi")

    monkeypatch.setattr(lfunction, "riemann_sum", no_sum)
    for p, d, e, c in ((5, 1, 1, 2), (7, 1, 3, 2), (5, 3, 2, 2), (7, 4, 0, 3)):
        params = LpParams(p=p, d=d, c=c, m=1, chi=odd_character(p, d, e, 1), relprec=6,
                          j_max=6)
        report = p_adic_L(params, 2)
        assert report.value.is_exact_zero() and report.level_used == 6
        assert report.to_json()["value"] == {"p": p, "zero": True}
        # a call that could not certify the target is refused as an even one is
        with pytest.raises(InsufficientPrecision):
            p_adic_L(LpParams(p=p, d=d, c=c, m=1, chi=params.chi, relprec=3), 2)


@st.composite
def level_points(draw):
    """(p, d, e, c, m, m'): chi is the real character mod d times omega^e, even,
    as a `table:` file of modulus d p gives it, and 1 <= m <= m' <= 4."""
    p = draw(st.sampled_from([3, 5, 7]))
    d = draw(st.sampled_from([d for d in (1, 3, 4) if d % p]))
    e = draw(st.sampled_from(range(d > 1, p - 1, 2)))
    c = draw(st.sampled_from([c for c in range(2, 30) if math.gcd(c, d * p) == 1]))
    m_top = draw(st.integers(1, 4))
    return p, d, e, c, draw(st.integers(1, m_top)), m_top


@given(point=level_points(), k=st.integers(0, 4), relprec=st.integers(1, 6),
       target=st.integers(1, 6))
@settings(max_examples=40, deadline=None)
def test_reports_do_not_depend_on_the_level_chi_is_given_at(point, k, relprec, target):
    # the values read chi through its primitive character, and the level
    # used through params.m: relprec below m' makes J = m' whatever the
    # level of chi; a target past min(relprec, m' + 2) is refused at every
    # level
    p, d, e, c, m, m_top = point
    table = {a: TAME[d][a % d] * pow(a, e, p) for a in units_of(d * p)}
    chi = DirichletCharacter(p, d * p, table)

    def reports(level):
        params = LpParams(p=p, d=d, c=c, m=m_top, chi=chi.change_level(level),
                          relprec=relprec, j_max=m_top + 2, target_valuation=target)
        if target > min(relprec, m_top + 2):
            with pytest.raises(InsufficientPrecision):
                p_adic_L(params, k)
            with pytest.raises(InsufficientPrecision):
                verify_interpolation(params, k + 2)
            return None
        return p_adic_L(params, k), verify_interpolation(params, k + 2)

    own = reports(d * p)
    assert reports(d * p**m) == own
    assert reports(d * p**m_top) == own
