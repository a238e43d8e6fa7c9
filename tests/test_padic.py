import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from padiclf.errors import DivisionByZero, InsufficientPrecision
from padiclf.padic import PadicNum, eq_mod, rational_valuation, split_p_power

rationals = st.fractions(
    min_value=-10**6, max_value=10**6, max_denominator=10**4
)
small_primes = st.sampled_from([3, 5, 7, 11])


def nu_oracle(p, q):
    """Valuation by repeated division, on numerator and denominator separately."""
    q = Fraction(q)
    if q == 0:
        return math.inf
    v = 0
    n = abs(q.numerator)
    while n % p == 0:
        n //= p
        v += 1
    d = q.denominator
    while d % p == 0:
        d //= p
        v -= 1
    return v


class TestFromRational:
    def test_examples(self):
        assert PadicNum.from_rational(5, 0, 4).is_exact_zero()
        x = PadicNum.from_rational(5, Fraction(1, 6), 3)
        assert (x.valuation(), x.unit, x.relprec) == (0, 21, 3)
        y = PadicNum.from_rational(3, Fraction(9, 2), 2)
        assert (y.valuation(), y.unit, y.relprec) == (2, 5, 2)

    @given(small_primes, rationals)
    def test_valuation_matches_oracle(self, p, q):
        x = PadicNum.from_rational(p, q, 8)
        assert x.valuation() == nu_oracle(p, q)

    @given(small_primes, rationals, rationals)
    @settings(max_examples=200)
    def test_ring_embedding_additive(self, p, a, b):
        xa = PadicNum.from_rational(p, a, 8)
        xb = PadicNum.from_rational(p, b, 8)
        s = xa + xb
        target = PadicNum.from_rational(p, a + b, 8)
        t = min(s.abs_precision, target.abs_precision)
        if t != math.inf:
            assert eq_mod(s, target, t)

    @given(small_primes, rationals, rationals)
    @settings(max_examples=200)
    def test_ring_embedding_multiplicative(self, p, a, b):
        xa = PadicNum.from_rational(p, a, 8)
        xb = PadicNum.from_rational(p, b, 8)
        m = xa * xb
        target = PadicNum.from_rational(p, a * b, 8)
        t = min(m.abs_precision, target.abs_precision)
        if t != math.inf:
            assert eq_mod(m, target, t)


class TestArithmetic:
    def test_add_example(self):
        s = PadicNum.from_rational(5, 1, 4) + PadicNum.from_rational(5, 4, 4)
        assert (s.valuation(), s.unit) == (1, 1)

    def test_mul_inverse_pair(self):
        m = PadicNum.from_rational(5, Fraction(1, 6), 3) * PadicNum.from_rational(5, 6, 3)
        assert (m.valuation(), m.unit) == (0, 1)

    def test_full_cancellation_gives_precision_zero(self):
        x = PadicNum.from_rational(5, 7, 4)
        z = x + (-x)
        assert z.is_zero_at_precision() and z.abs_precision == 4

    def test_exact_zero_identities(self):
        z = PadicNum.exact_zero(5)
        x = PadicNum.from_rational(5, 3, 4)
        assert (z + x) == x and (x * z).is_exact_zero()

    def test_precision_zero_absorbs_valuation_in_mul(self):
        q = PadicNum.zero_at_precision(5, 3)
        x = PadicNum.from_rational(5, 50, 4)  # valuation 2
        assert (q * x).is_zero_at_precision() and (q * x).abs_precision == 5

    def test_inverse_errors(self):
        with pytest.raises(DivisionByZero):
            PadicNum.exact_zero(5).inverse()
        with pytest.raises(InsufficientPrecision):
            PadicNum.zero_at_precision(5, 2).inverse()

    def test_precision_propagation_mul(self):
        x = PadicNum.from_unit(5, 1, 2, 6)
        y = PadicNum.from_unit(5, -3, 3, 4)
        m = x * y
        assert (m.valuation(), m.relprec) == (-2, 4)

    def test_precision_propagation_add(self):
        x = PadicNum.from_unit(5, 0, 1, 3)   # absolute precision 3
        y = PadicNum.from_unit(5, 2, 1, 6)   # absolute precision 8
        s = x + y
        assert s.abs_precision == 3
        assert s.valuation() == 0

    def test_pow(self):
        x = PadicNum.from_rational(5, 2, 6)
        assert eq_mod(x.inverse() * x, PadicNum.from_unit(5, 0, 1, 6), 6)

    @given(small_primes, rationals, rationals)
    @settings(max_examples=300)
    def test_ultrametric_inequality(self, p, a, b):
        xa = PadicNum.from_rational(p, a, 8)
        xb = PadicNum.from_rational(p, b, 8)
        s = xa + xb
        va, vb = nu_oracle(p, a), nu_oracle(p, b)
        assert s.valuation() >= min(va, vb)
        if va != vb:
            assert s.valuation() == min(va, vb) and s.valuation_is_exact


class TestAppr:
    def test_examples(self):
        assert PadicNum.from_rational(5, 7, 4).appr(1) == 2
        assert PadicNum.from_rational(5, -1, 4).appr(2) == 24
        assert PadicNum.exact_zero(5).appr(3) == 0

    def test_requires_integer(self):
        with pytest.raises(ValueError):
            PadicNum.from_rational(5, Fraction(1, 5), 4).appr(1)

    def test_requires_precision(self):
        with pytest.raises(InsufficientPrecision):
            PadicNum.from_rational(5, 7, 4).appr(5)

    def test_compat_reduce_tower(self):
        # appr truncations are compatible along the tower of quotients
        for q in (Fraction(7, 3), Fraction(-11, 2), Fraction(624, 1)):
            x = PadicNum.from_rational(5, q, 8)
            for n in range(1, 8):
                for m in range(n + 1):
                    assert x.appr(n) % 5**m == x.appr(m)


class TestToZmodPow:
    """The projection to Z/p^nZ, through appr."""

    def test_examples(self):
        assert PadicNum.from_rational(5, 57, 4).appr(2) == 7
        assert PadicNum.from_rational(5, 3, 4).appr(0) == 0
        assert PadicNum.from_rational(5, 25, 4).appr(2) == 0

    @given(small_primes, st.integers(-10**6, 10**6), st.integers(-10**6, 10**6),
           st.integers(0, 6))
    @settings(max_examples=200)
    def test_ring_homomorphism(self, p, a, b, n):
        xa = PadicNum.from_rational(p, a, 8)
        xb = PadicNum.from_rational(p, b, 8)
        mod = p**n
        assert (xa * xb).appr(n) == xa.appr(n) * xb.appr(n) % mod
        assert (xa + xb).appr(n) == (xa.appr(n) + xb.appr(n)) % mod


class TestEqMod:
    def test_examples(self):
        one = PadicNum.from_unit(5, 0, 1, 6)
        shifted = one + PadicNum.from_rational(5, 125, 6)
        assert eq_mod(one, shifted, 3)
        assert not eq_mod(PadicNum.from_unit(5, 0, 1, 4), PadicNum.from_rational(5, 2, 4), 1)
        x = PadicNum.from_rational(5, Fraction(3, 7), 6)
        assert eq_mod(x, x, 6)

    def test_insufficient_precision_raises(self):
        x = PadicNum.from_unit(5, 0, 1, 3)
        with pytest.raises(InsufficientPrecision):
            eq_mod(x, x, 5)

    def test_precision_zero_comparison_beyond_bound_raises(self):
        # two values identical to tracked precision cannot be separated deeper
        x = PadicNum.from_unit(5, 0, 7, 4)
        y = PadicNum.from_unit(5, 0, 7, 4)
        d = x - y
        assert d.is_zero_at_precision()
        with pytest.raises(InsufficientPrecision):
            eq_mod(x + x, y + y, 5)


class TestSerialization:
    @pytest.mark.parametrize("x", [
        PadicNum.exact_zero(7),
        PadicNum.zero_at_precision(7, 5),
        PadicNum.from_rational(7, Fraction(-3, 4), 6),
        PadicNum.from_rational(7, Fraction(5, 49), 6),
    ])
    def test_round_trip(self, x):
        # the JSON fields rebuild the value through the constructors
        obj = x.to_json()
        if obj.get("zero"):
            y = PadicNum.exact_zero(obj["p"])
        elif "zero_to_precision" in obj:
            y = PadicNum.zero_at_precision(obj["p"], obj["zero_to_precision"])
        else:
            y = PadicNum.from_unit(obj["p"], obj["valuation"], obj["unit"], obj["relprec"])
        assert y == x


def test_rational_valuation_helper():
    assert rational_valuation(5, 50) == 2
    assert rational_valuation(3, Fraction(5, 9)) == -2
    assert rational_valuation(3, 0) == math.inf


def test_split_p_power():
    assert split_p_power(5, 75) == (2, 3)
    assert split_p_power(5, 7) == (0, 7)
    assert split_p_power(3, 1) == (0, 1)
    assert split_p_power(5, -75) == (2, -3)
    assert split_p_power(3, -1) == (0, -1)
    assert split_p_power(3, -162) == (4, -2)
    with pytest.raises(ValueError):
        split_p_power(3, 0)


def test_p_below_two_is_refused():
    # p = 1 and p = -1 divide every integer, so the valuation loop would not end
    for p in (1, 0, -1):
        with pytest.raises(ValueError, match=f"p must be >= 2, got {p}"):
            split_p_power(p, 5)
    with pytest.raises(ValueError, match="p must be >= 2"):
        rational_valuation(1, Fraction(3, 4))
    with pytest.raises(ValueError, match="p must be >= 2"):
        PadicNum.from_rational(1, Fraction(3, 4))


@settings(max_examples=200, deadline=None)
@given(p=small_primes, n=st.integers(-10**12, 10**12).filter(bool))
def test_split_p_power_matches_oracle(p, n):
    v, u = split_p_power(p, n)
    assert v == nu_oracle(p, n) and p**v * u == n and u % p != 0


# e around powers of 2, where the upward squaring stops and the downward
# pass must add every bit of the rest
@example(p=3, u=2, e=1)
@example(p=5, u=-7, e=255)
@example(p=7, u=1, e=256)
@settings(max_examples=100, deadline=None)
@given(p=small_primes, u=st.integers(-10**6, 10**6).filter(bool), e=st.integers(0, 2000))
def test_split_p_power_at_large_valuations(p, u, e):
    v, w = split_p_power(p, u * p**e)
    assert (v, w) == (e + nu_oracle(p, u), u // p ** nu_oracle(p, u))


def test_norm_values():
    assert PadicNum.from_rational(5, 50, 4).norm() == Fraction(1, 25)
    assert PadicNum.from_rational(5, Fraction(1, 5), 4).norm() == 5
    assert PadicNum.exact_zero(5).norm() == 0


@pytest.mark.parametrize("x", [
    PadicNum.exact_zero(7),
    PadicNum.zero_at_precision(7, 5),
    PadicNum.from_rational(7, Fraction(-3, 4), 6),
    PadicNum.from_rational(7, Fraction(5, 49), 6),
])
def test_state_is_the_accessors_in_one_read(x):
    p, v, unit, relprec = x.state()
    assert p == x.p
    if x.is_exact_zero():
        assert v is None and unit is None and relprec is None
    elif x.is_zero_at_precision():
        assert v == x.abs_precision and unit is None and relprec is None
    else:
        assert (v, unit, relprec) == (x.valuation(), x.unit, x.relprec)


@st.composite
def padic_with_json(draw):
    """(x, the to_json the constructor's arguments fix) for an exact zero,
    an O(p^T) or a finite value, from small ranges so that equal states recur."""
    p = draw(st.sampled_from([3, 5]))
    kind = draw(st.sampled_from(["zero", "O", "finite"]))
    if kind == "zero":
        return PadicNum.exact_zero(p), {"p": p, "zero": True}
    v = draw(st.integers(-2, 3))
    if kind == "O":
        return PadicNum.zero_at_precision(p, v), {"p": p, "zero_to_precision": v}
    r = draw(st.integers(1, 3))
    u = draw(st.integers(1, 40).filter(lambda u: u % p))
    return (PadicNum.from_unit(p, v, u, r),
            {"p": p, "valuation": v, "unit": u % p**r, "relprec": r})


@settings(max_examples=300, deadline=None)
@given(padic_with_json(), padic_with_json())
def test_state_is_the_value(a, b):
    for x, as_json in (a, b):
        _, v, unit, relprec = x.state()
        kinds = (x.is_exact_zero(), x.is_zero_at_precision(),
                 x.valuation_is_exact and not x.is_exact_zero())
        assert kinds.count(True) == 1
        assert kinds == (v is None, v is not None and unit is None, unit is not None)
        assert x.to_json() == as_json
        assert PadicNum(*x.state()) == x
    x, y = a[0], b[0]
    assert (x == y) == (x.state() == y.state())
    if x == y:
        assert hash(x) == hash(y)
