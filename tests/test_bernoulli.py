import math
import sys
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import bernoulli_prime
from padiclf.bernoulli import (
    MAX_BERNOULLI_DEGREE,
    bernoulli,
    bernoulli_poly,
    bernoulli_poly_eval,
    bernoulli_poly_int,
)
from padiclf.dirichlet import make_teich_char
from padiclf.errors import CostLimitExceeded
from padiclf.genbernoulli import _unit_sum, general_bernoulli_coeffs

# the module, not the function the package exports under its name
bernoulli_module = sys.modules["padiclf.bernoulli"]


def test_bernoulli_prime_base_cases():
    assert bernoulli_prime(0) == 1
    assert bernoulli_prime(1) == Fraction(1, 2)
    assert bernoulli_prime(2) == Fraction(1, 6)


@settings(max_examples=150, deadline=None)
@given(n=st.integers(0, 300))
def test_tangent_numbers_match_the_recurrence(n):
    assert bernoulli(n) == (-1) ** n * bernoulli_prime(n)


@settings(max_examples=100, deadline=None)
@given(n=st.integers(0, 300))
def test_integer_form_matches_the_polynomial(n):
    den, nums = bernoulli_poly_int(n)
    poly = bernoulli_poly(n)
    # the coefficient of X^i is C(n, i) B_(n-i)
    assert poly == tuple(comb(n, i) * (-1) ** (n - i) * bernoulli_prime(n - i)
                         for i in range(n + 1))
    assert den == math.lcm(*(c.denominator for c in poly))
    assert all(type(num) is int for num in nums)
    assert tuple(Fraction(num, den) for num in nums) == poly


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
        bernoulli(-1)
    with pytest.raises(ValueError):
        bernoulli_poly(-2)


class TestDegreeLimit:
    @pytest.fixture
    def fresh_table(self, monkeypatch):
        """An empty table whose first tangent number raises Started."""

        class Started(Exception):
            pass

        def started():
            raise Started

        for name, empty in (("_TABLE", [(1, 1)]), ("_COLUMN", []), ("_BPOLY_INT", {})):
            monkeypatch.setattr(bernoulli_module, name, empty)
        monkeypatch.setattr(bernoulli_module, "_next_tangent", started)
        return Started

    def test_refused_just_past_the_limit_before_any_work(self, fresh_table):
        assert MAX_BERNOULLI_DEGREE == 2000
        chi = make_teich_char(5)
        at_limit = (lambda: bernoulli(2000), lambda: bernoulli_poly(2000),
                    lambda: bernoulli_poly_eval(2000, 1),
                    lambda: _unit_sum(chi, 1, 1, 1999, 7))
        for call in at_limit:
            with pytest.raises(fresh_table):
                call()
        past = (lambda: bernoulli(2001), lambda: bernoulli_poly(2001),
                lambda: _unit_sum(chi, 1, 1, 2000, 7),
                lambda: general_bernoulli_coeffs(chi, 2001))
        for call in past:
            with pytest.raises(CostLimitExceeded,
                               match="B_2001 is past the maximum Bernoulli degree 2000"):
                call()
        with pytest.raises(CostLimitExceeded, match="B_20000 is past"):
            bernoulli(20000)

    def test_table_grows_to_n(self, monkeypatch):
        monkeypatch.setattr(bernoulli_module, "_TABLE", [(1, 1)])
        monkeypatch.setattr(bernoulli_module, "_COLUMN", [])
        made, next_tangent = [], bernoulli_module._next_tangent

        def counted():
            made.append(len(bernoulli_module._COLUMN) + 1)
            return next_tangent()

        monkeypatch.setattr(bernoulli_module, "_next_tangent", counted)
        assert bernoulli(2) == Fraction(1, 6)
        assert len(bernoulli_module._TABLE) == 3 and len(bernoulli_module._COLUMN) == 1
        # an odd degree grows the table to the even one after it, continuing
        # from the kept column: each tangent number T_m is made once
        assert bernoulli(7) == 0
        assert len(bernoulli_module._TABLE) == 9 and made == [1, 2, 3, 4]
        assert bernoulli(8) == Fraction(-1, 30) and bernoulli(1) == Fraction(-1, 2)
        assert bernoulli(12) == Fraction(-691, 2730)
        assert len(bernoulli_module._TABLE) == 13 and made == [1, 2, 3, 4, 5, 6]
