from fractions import Fraction
from math import comb

import pytest

from padiclf.bernoulli import (
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
    assert bernoulli_poly(0) == (Fraction(1),)
    assert bernoulli_poly(1) == (Fraction(-1, 2), Fraction(1))
    assert bernoulli_poly(2) == (Fraction(1, 6), Fraction(-1), Fraction(1))
    assert bernoulli_poly(3) == (Fraction(0), Fraction(1, 2), Fraction(-3, 2), Fraction(1))
    assert all(type(c) is Fraction for c in bernoulli_poly(5))


def test_poly_monic():
    for n in range(15):
        assert bernoulli_poly(n)[-1] == 1
        assert len(bernoulli_poly(n)) == n + 1


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
        rhs = [Fraction(0)] * (n + 1)
        for k in range(n + 1):
            for i, c in enumerate(bernoulli_poly(k)):
                rhs[i] += comb(n + 1, k) * c
        assert tuple(rhs) == (0,) * n + (n + 1,)


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
