import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import embed_product, general_bernoulli_coeffs_fraction, omega_sum_per_label
from padiclf.bernoulli import bernoulli
from padiclf.dirichlet import DirichletCharacter, char_power, make_teich_char, trivial_character
from padiclf import genbernoulli
from padiclf.errors import CostLimitExceeded, NotMultipleOfConductor
from padiclf.genbernoulli import (
    MAX_HORNER_BITS,
    _embed,
    _embed_label_sum,
    _euler_label_sum,
    _exact_label_sum,
    _omega_sum,
    _unit_sum,
    chi_omega_minus_k,
    general_bernoulli,
    general_bernoulli_coeffs,
    general_bernoulli_exact,
    twisted_mean_limit,
    twisted_mean_truncation,
    unit_power_sum,
)
from padiclf.modarith import units_of
from padiclf.padic import PadicNum, eq_mod, rational_valuation
from test_character_validation import genuine_tables

QUAD3 = DirichletCharacter(5, 3, {1: 1, 2: 4})


@given(p=st.sampled_from([3, 5, 7, 11, 13, 43]), k=st.integers(1, 5))
def test_omega_inverse_exponent(p, k):
    # twisting omega^k by omega^(-k) leaves the trivial character mod 1
    assert chi_omega_minus_k(char_power(make_teich_char(p), k), k) == trivial_character(p, 1)


class TestGeneralBernoulli:
    def test_trivial_character_values(self):
        triv = trivial_character(5, 1)
        assert general_bernoulli_exact(triv, 1) == Fraction(1, 2)
        for m in range(2, 13):
            assert general_bernoulli_exact(triv, m) == bernoulli(m)

    def test_quadratic_mod3(self):
        assert general_bernoulli_exact(QUAD3, 1) == Fraction(-1, 3)

    def test_embedded_value_matches_exact(self):
        v = general_bernoulli(QUAD3, 1, 8)
        assert eq_mod(v, PadicNum.from_rational(5, Fraction(-1, 3), 8), 8)

    def test_multiple_formula_examples(self):
        # B_(m,chi) from the sum over any multiple F of the conductor
        triv = trivial_character(5, 1)
        assert _exact_label_sum(5, *general_bernoulli_coeffs(triv, 2, 2)) == Fraction(1, 6)
        assert _exact_label_sum(5, *general_bernoulli_coeffs(QUAD3, 1, 3)) == Fraction(-1, 3)
        assert _exact_label_sum(5, *general_bernoulli_coeffs(QUAD3, 1, 6)) == Fraction(-1, 3)

    def test_f_independence_as_coefficients(self):
        test_set = [trivial_character(5, 1), QUAD3,
                    DirichletCharacter(5, 4, {1: 1, 3: 4})]
        test_set += [char_power(make_teich_char(5), k) for k in range(4)]
        for chi in test_set:
            f = chi.conductor()
            for m in range(7):
                base = general_bernoulli_coeffs(chi, m, f)
                for t in (2, 3):
                    assert general_bernoulli_coeffs(chi, m, t * f) == base

    @settings(max_examples=150, deadline=None)
    @given(table=genuine_tables(), m=st.integers(0, 8))
    def test_matches_fraction_oracle(self, table, m):
        # the reduced pair is the oracle's Fractions over their least common
        # denominator, at each multiple F of the conductor
        chi = DirichletCharacter(*table)
        f = chi.conductor()
        for F in (f, 2 * f, 3 * f):
            nums, den = general_bernoulli_coeffs(chi, m, F)
            assert den > 0 and math.gcd(den, *nums.values()) == 1 and all(nums.values())
            assert {t: Fraction(n, den) for t, n in nums.items()} == \
                general_bernoulli_coeffs_fraction(chi, m, F)

    @settings(max_examples=100, deadline=None)
    @given(table=genuine_tables(), m=st.integers(0, 8), N=st.integers(1, 12))
    def test_embedded_value_is_the_exact_value_at_n_digits(self, table, m, N):
        # where B_(m,chi) is rational, its embedding carries exactly N
        # absolute digits, so N - v relative ones for a value of valuation v,
        # and an exact 0 is the exact zero
        chi = DirichletCharacter(*table)
        exact, value = general_bernoulli_exact(chi, m), general_bernoulli(chi, m, N)
        if exact is None:
            return
        if exact == 0:
            assert value.is_exact_zero()
            return
        v = rational_valuation(chi.p, exact)
        if v >= N:
            assert value == PadicNum.zero_at_precision(chi.p, N)
        else:
            assert value == PadicNum.from_rational(chi.p, exact, N - v)

    def test_f_independence_embedded(self):
        om3 = char_power(make_teich_char(5), 3)
        a = general_bernoulli(om3, 3, 10)
        b = _embed_label_sum(5, *general_bernoulli_coeffs(om3, 3, 15), 10)
        assert a == b

    def test_rejects_non_multiple(self):
        for F in (4, 0, -3):
            with pytest.raises(NotMultipleOfConductor):
                general_bernoulli_coeffs(QUAD3, 2, F)

    def test_nonprimitive_input_uses_primitive_part(self):
        lifted = QUAD3.change_level(15)
        assert general_bernoulli_exact(lifted, 1) == Fraction(-1, 3)

    def test_index_zero_is_character_orthogonality(self):
        # B_(0,chi) = (1/f) sum chi(a), zero for every nontrivial character
        om = make_teich_char(5)
        for chi in [QUAD3] + [char_power(om, k) for k in range(1, 4)]:
            exact = general_bernoulli_exact(chi, 0)
            if exact is not None:
                assert exact == 0
        assert general_bernoulli_exact(trivial_character(5, 1), 0) == 1

    def test_parity_vanishing(self):
        # B_(m,chi) = 0 for m >= 1 unless chi(-1) = (-1)^m, except (trivial, m=1);
        # a zero is exact: the labels e and e + (p - 1)/2 cancel (_fold), so
        # the value is the exact zero and the exact value 0, whatever the
        # order of chi
        chars = [QUAD3]
        for p in (3, 5, 7, 11, 13):
            om = make_teich_char(p)
            chars += [char_power(om, k) for k in range(p - 1)]
        for chi in chars:
            sign = 1 if chi.is_even() else -1
            for m in range(1, 9):
                if chi.conductor() == 1 and m == 1:
                    continue
                exact = general_bernoulli_exact(chi, m)
                if sign != (-1) ** m:
                    assert exact == 0, (chi, m)
                    assert general_bernoulli(chi, m, 10).is_exact_zero(), (chi, m)
                else:
                    assert exact != 0, (chi, m)

    def test_parity_vanishing_exact_for_irrational_values(self):
        # exact oracle over the Q-basis {1, i} of the 4th roots of unity at p=5
        om = make_teich_char(5)
        for k in (1, 3):
            chi = char_power(om, k)  # odd character
            for m in (2, 4, 6):
                nums, _ = general_bernoulli_coeffs(chi, m)
                # nums is keyed by exponents of omega(r): omega(r)^0 = 1,
                # omega(r)^2 = -1, omega(r)^3 = -omega(r); coefficients of the
                # basis elements 1 and omega(r) must vanish separately
                assert nums.get(0, 0) == nums.get(2, 0)
                assert nums.get(1, 0) == nums.get(3, 0)


@st.composite
def embed_cases(draw):
    """(p, total, N, den): den often a power of p, N often at most v_p(den),
    total often 0 mod p^(N + v_p(den))."""
    p = draw(st.sampled_from([3, 5, 7, 11]))
    v = draw(st.integers(0, 6))
    den = p**v * draw(st.sampled_from([1, 1, 2, 4, 7, 10, 13, 60]).filter(lambda u: u % p))
    N = draw(st.integers(1, 12))
    W = N + v
    total = draw(st.one_of(st.just(0), st.integers(-p**(W + 2), p**(W + 2)),
                           st.integers(-p**4, p**4).map(lambda x: x * p**W)))
    return p, total, N, den


@settings(max_examples=300, deadline=None)
@given(case=embed_cases())
@example(case=(5, 0, 1, 5**3))
@example(case=(3, 3**7, 2, 3**5))
@example(case=(7, 1, 1, 7**2 * 13))
def test_embed_matches_the_padic_product(case):
    # the same state, digits and precision, as the PadicNum product it replaced
    assert _embed(*case).state() == embed_product(*case).state()


@st.composite
def omega_power_paths(draw):
    """omega^k, k even, at one level L = p*mult, built along five paths
    that must give equal characters."""
    p = draw(st.sampled_from([3, 5, 7]))
    k = draw(st.sampled_from(range(0, p - 1, 2)))
    j = draw(st.integers(0, p - 2))
    L = p * draw(st.sampled_from([1, 2, 3, 4, 6]))
    omega = make_teich_char(p)
    table = DirichletCharacter(p, L, {a: pow(a, k, p) for a in units_of(L)})
    return [
        table,
        char_power(omega, k).change_level(L),
        (char_power(omega, j) * char_power(omega, (k - j) % (p - 1))).change_level(L),
        char_power(omega.change_level(L), k),
        table.associated_primitive().change_level(L),
    ]


@settings(max_examples=60, deadline=None)
@given(chars=omega_power_paths(), n=st.integers(0, 6), twist=st.integers(1, 4),
       relprec=st.integers(1, 20))
def test_equal_characters_evaluate_alike(chars, n, twist, relprec):
    # a character carries no precision: equal characters, however they were
    # built, give the same value at the precision each evaluation is given
    assert len(set(chars)) == 1
    chi = chars[0]
    units = units_of(chi.level)
    want = (general_bernoulli(chi, n, relprec), twisted_mean_limit(chi, twist, relprec),
            [chi.asso_eval(a, relprec) for a in units])
    assert all(v.relprec == relprec for v in want[2])
    for psi in chars[1:]:
        assert (general_bernoulli(psi, n, relprec), twisted_mean_limit(psi, twist, relprec),
                [psi.asso_eval(a, relprec) for a in units]) == want


@st.composite
def label_sums(draw):
    """(p, nums): the label sum of B_(m, chi), or of (1 - chi(p) p^(m-1)) B_(m, chi),
    for the primitive chi = omega^k or chi_4 omega^k, chi_4 the character mod 4
    of order 2."""
    p = draw(st.sampled_from([3, 5, 7, 11, 13, 101, 10007]))
    chi = char_power(make_teich_char(p), draw(st.integers(0, p - 2))).associated_primitive()
    if draw(st.booleans()):
        chi = chi * DirichletCharacter(p, 4, {1: 1, 3: p - 1})
    label_sum = draw(st.sampled_from([general_bernoulli_coeffs, _euler_label_sum]))
    return p, label_sum(chi, draw(st.integers(1, 4)))[0]


@settings(max_examples=60, deadline=None)
@given(case=label_sums(), window=st.integers(1, 40))
def test_omega_sum_matches_one_lift_per_label(case, window):
    # Horner's rule in one root of unity against a lift of every label
    p, nums = case
    assert _omega_sum(p, nums, window) == omega_sum_per_label(p, nums, window)


@pytest.mark.parametrize("p, nums, folded", [
    (3, {0: 5, 1: 5}, {}),
    (3, {1: 4}, {0: -4}),
    (7, {0: 2, 3: 5, 1: 4, 4: 4}, {0: -3}),
    (7, {2: 1, 5: -1, 4: 6}, {2: 2, 1: -6}),
    (11, {}, {}),
])
def test_fold_moves_labels_below_half_with_the_sign_flipped(p, nums, folded):
    # omega(r)^((p-1)/2) = -1, and labels whose total is 0 are dropped
    assert genbernoulli._fold(p, nums) == folded


def test_a_label_sum_lifts_one_root(monkeypatch):
    # one Teichmuller lift per label sum, however many labels it has, and
    # none when every value is +-1: omega^50 mod 101 is the quadratic
    # character, whose label sum folds to label 0 (_fold)
    lifts = []
    lift = genbernoulli.teichmuller_int

    def counted(p, a, relprec):
        lifts.append(a)
        return lift(p, a, relprec)

    monkeypatch.setattr(genbernoulli, "teichmuller_int", counted)
    omega = make_teich_char(101)
    for k, m in ((1, 1), (2, 2), (25, 3), (50, 2)):
        assert not general_bernoulli(char_power(omega, k), m, 20).is_exact_zero()
    omega2 = char_power(omega, 2)
    twisted_mean_truncation(omega2, 4, 2, 20)
    twisted_mean_limit(omega2, 4, 20)
    assert len(lifts) == 5
    # chi omega^(-2) is trivial
    general_bernoulli(trivial_character(101), 2, 20)
    twisted_mean_truncation(omega2, 2, 2, 20)
    twisted_mean_limit(omega2, 2, 20)
    assert len(lifts) == 5


class TestTwistedMeans:
    def setup_method(self):
        self.chi = char_power(make_teich_char(5), 2)

    def test_twist_identities(self):
        assert chi_omega_minus_k(self.chi, 2) == trivial_character(5, 1)
        assert chi_omega_minus_k(self.chi, 4) == char_power(make_teich_char(5), 2)

    def test_limit_targets(self):
        # chi omega^-2 trivial: target (1 - 5) B_2 = -2/3
        t2 = twisted_mean_limit(self.chi, 2, 12)
        assert eq_mod(t2, PadicNum.from_rational(5, Fraction(-2, 3), 12), 12)
        # chi omega^-4 = omega^2, conductor 5: Euler factor degenerates to 1
        t4 = twisted_mean_limit(self.chi, 4, 12)
        assert eq_mod(t4, PadicNum.from_rational(5, -8, 12), 12)

    def test_truncation_level_one_values(self):
        # (1/5) sum over units a < 5 of a^2 = 6; with omega^2 twist and a^4: 32
        t = twisted_mean_truncation(self.chi, 2, 1, 12)
        assert eq_mod(t, PadicNum.from_rational(5, 6, 11), 11)
        t = twisted_mean_truncation(self.chi, 4, 1, 12)
        assert eq_mod(t, PadicNum.from_rational(5, 32, 11), 11)

    def test_convergence_valuations(self):
        for k in (2, 4):
            target = twisted_mean_limit(self.chi, k, 16)
            vals = []
            for j in range(2, 6):
                diff = twisted_mean_truncation(self.chi, k, j, 16) - target
                vals.append(diff.valuation())
            assert vals[0] >= 1
            assert all(b >= a for a, b in zip(vals, vals[1:])), (k, vals)

    def test_unit_sum_decay(self):
        for k in (2, 4):
            vals = [unit_power_sum(self.chi, k, j, 16).valuation()
                    for j in range(2, 6)]
            assert all(b >= a for a, b in zip(vals, vals[1:])), (k, vals)
        # k=2 twist is trivial so the sum is elementary: valuation 2j-1
        assert [unit_power_sum(self.chi, 2, j, 16).valuation()
                for j in range(2, 6)] == [3, 5, 7, 9]

    def test_preconditions(self):
        odd_chi = make_teich_char(5)
        with pytest.raises(ValueError, match="even"):
            twisted_mean_truncation(odd_chi, 2, 2)
        with pytest.raises(ValueError, match="k must be even"):
            unit_power_sum(self.chi, 3, 2)
        with pytest.raises(ValueError, match="not divisible"):
            twisted_mean_truncation(QUAD3, 2, 2)
        with pytest.raises(ValueError, match="k"):
            twisted_mean_truncation(self.chi, 0, 2)


class TestHornerLimit:
    def test_refused_just_past_the_limit_before_any_sum(self, monkeypatch):
        class Started(Exception):
            pass

        def started(*args):
            raise Started

        monkeypatch.setattr(genbernoulli, "units_of", started)
        # 5^431 has 1001 bits: (k + 1) * 1001 is 1499498 at k = 1497, 1500499 at k = 1498
        assert MAX_HORNER_BITS == 1_500_000
        assert (5**431).bit_length() == 1001
        omega = make_teich_char(5)
        with pytest.raises(Started):
            _unit_sum(omega, 1, 431, 1497, 4)
        with pytest.raises(CostLimitExceeded, match="about 1500499 bits, over the limit"):
            _unit_sum(omega, 1, 431, 1498, 4)

    def test_refused_by_its_lower_bound_before_the_level_is_built(self):
        # 5^j >= 2^(2 j): at j = 10^7 and k = 1 the ints have more than
        # 2 * 10^7 * 2 bits, refused before 5^(10^7) is built
        omega = make_teich_char(5)
        with pytest.raises(CostLimitExceeded,
                           match="degree 1 at level 10000000 would run Horner's rule on "
                                 "ints of more than 40000000 bits, over the limit"):
            _unit_sum(omega, 1, 10**7, 1, 4)
