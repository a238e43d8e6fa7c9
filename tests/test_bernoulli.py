from fractions import Fraction
from math import comb

import pytest

from padiclf.bernoulli import (
    RationalPolynomial,
    bernoulli,
    bernoulli_poly,
    bernoulli_poly_eval,
    bernoulli_prime,
)


def test_bernoulli_prime_base_cases():
    assert bernoulli_prime(0) == 1
    assert bernoulli_prime(1) == Fraction(1, 2)
    assert bernoulli_prime(2) == Fraction(1, 6)


def test_bernoulli_signs():
    assert bernoulli(1) == Fraction(-1, 2)
    assert bernoulli(2) == Fraction(1, 6)
    assert bernoulli(3) == 0


def test_known_values():
    assert bernoulli(4) == Fraction(-1, 30)
    assert bernoulli(8) == Fraction(-1, 30)
    assert bernoulli(10) == Fraction(5, 66)
    assert bernoulli(12) == Fraction(-691, 2730)


def test_odd_bernoulli_vanish():
    for k in range(1, 11):
        assert bernoulli(2 * k + 1) == 0


def test_poly_examples():
    assert bernoulli_poly(0).coeffs == (Fraction(1),)
    assert bernoulli_poly(1).coeffs == (Fraction(-1, 2), Fraction(1))
    assert bernoulli_poly(2).coeffs == (Fraction(1, 6), Fraction(-1), Fraction(1))


def test_poly_monic():
    for n in range(15):
        assert bernoulli_poly(n).coeffs[-1] == 1
        assert len(bernoulli_poly(n).coeffs) == n + 1


def test_eval_examples():
    assert bernoulli_poly_eval(2, 0) == Fraction(1, 6)
    assert bernoulli_poly_eval(2, Fraction(1, 3)) == Fraction(-1, 18)
    assert bernoulli_poly_eval(1, 1) == Fraction(1, 2)


def test_value_at_one():
    for n in range(21):
        if n == 1:
            assert bernoulli_poly_eval(1, 1) == Fraction(1, 2)
        else:
            assert bernoulli_poly_eval(n, 1) == bernoulli(n)


def test_power_sum_identity():
    # (n+1) X^n = sum_k C(n+1, k) B_k(X), exact polynomial equality
    for n in range(21):
        lhs = RationalPolynomial.monomial(n, n + 1)
        rhs = RationalPolynomial.make([])
        for k in range(n + 1):
            rhs = rhs + bernoulli_poly(k).scale(comb(n + 1, k))
        assert lhs == rhs


def test_faulhaber():
    for q in range(9):
        for M in range(1, 51):
            direct = sum(Fraction(k) ** q for k in range(M))
            closed = (bernoulli_poly_eval(q + 1, M) - bernoulli_poly_eval(q + 1, 0)) / (q + 1)
            assert direct == closed, (q, M)


def test_negative_index_rejected():
    with pytest.raises(ValueError):
        bernoulli_prime(-1)
    with pytest.raises(ValueError):
        bernoulli_poly(-2)


def test_polynomial_helpers():
    f = RationalPolynomial.make([1, 0, Fraction(1, 2), 0])
    assert len(f.coeffs) == 3
    assert f.eval(2) == 3
    g = f + f.scale(-1)
    assert g.coeffs == ()
    assert g.eval(7) == 0
