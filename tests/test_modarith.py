import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import is_prime_trial
from padiclf.errors import CostLimitExceeded, NotCoprime
from padiclf.modarith import (
    _MR_LIMIT,
    crt_combine,
    divisors,
    is_prime,
    units_of,
)
from paper import partition_range


def phi_by_factorization(n):
    """Independent Euler phi oracle via trial-division factorization."""
    if n == 1:
        return 1
    out, m, f = 1, n, 2
    while f * f <= m:
        if m % f == 0:
            e = 0
            while m % f == 0:
                m //= f
                e += 1
            out *= (f - 1) * f ** (e - 1)
        f += 1
    if m > 1:
        out *= m - 1
    return out


class TestCrt:
    def test_split_examples(self):
        # the CRT components of x mod d*q are x mod d and x mod q
        assert crt_combine(3, 5, 7 % 3, 7 % 5) == 7
        assert crt_combine(1, 5, 3 % 1, 3) == 3
        assert crt_combine(2, 9, 11 % 2, 11 % 9) == 11

    def test_combine_examples(self):
        assert crt_combine(3, 5, 1, 2) == 7
        assert crt_combine(3, 5, 0, 0) == 0
        assert crt_combine(2, 9, 1, 2) == 11
        # any representatives of the components give the least residue
        assert crt_combine(3, 5, -2, 12) == 7

    def test_not_coprime(self):
        with pytest.raises(NotCoprime):
            crt_combine(2, 4, 1, 3)
        with pytest.raises(NotCoprime):
            crt_combine(6, 4, 1, 1)

    def test_round_trips_exhaustive(self):
        for d in range(1, 23):
            for q in range(1, 23):
                if math.gcd(d, q) != 1 or d * q > 500:
                    continue
                for x in range(d * q):
                    assert crt_combine(d, q, x % d, x % q) == x

    @given(st.integers(1, 40), st.integers(1, 40), st.integers(-10**6, 10**6))
    @settings(max_examples=200)
    def test_combine_congruences(self, d, q, x):
        if math.gcd(d, q) != 1:
            return
        assert crt_combine(d, q, x % d, x % q) == x % (d * q)


class TestUnits:
    def test_examples(self):
        assert units_of(5) == [1, 2, 3, 4]
        assert units_of(1) == [0]
        assert units_of(12) == [1, 5, 7, 11]

    def test_counts_match_phi(self):
        for n in range(1, 501):
            assert len(units_of(n)) == phi_by_factorization(n)


class TestPartitionRange:
    def test_examples(self):
        units, nonunits = partition_range(1, 3, 1)
        assert units == [1, 2] and nonunits == [0]
        units, nonunits = partition_range(2, 3, 1)
        assert units == [1, 5] and sorted(nonunits) == [0, 2, 3, 4]
        units, nonunits = partition_range(1, 5, 2)
        assert len(units) == 20 and len(nonunits) == 5

    def test_disjoint_union_exhaustive(self):
        for p in (3, 5, 7, 11, 13):
            for d in range(1, 21):
                if math.gcd(d, p) != 1:
                    continue
                for x in range(4):
                    size = d * p**x
                    if size > 2000:
                        break
                    units, nonunits = partition_range(d, p, x)
                    assert set(units).isdisjoint(nonunits)
                    assert sorted(units + nonunits) == list(range(size))
                    assert all(math.gcd(a, d * p) == 1 for a in units)
                    if x >= 1:
                        assert len(units) == phi_by_factorization(size)

    def test_not_coprime(self):
        with pytest.raises(NotCoprime):
            partition_range(3, 3, 1)


def test_is_prime_small():
    primes = [n for n in range(60) if is_prime(n)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]


@settings(max_examples=500, deadline=None)
@given(st.integers(-10, 10**6))
def test_is_prime_matches_trial_division(n):
    assert is_prime(n) == is_prime_trial(n)


@pytest.mark.parametrize("n, factors", [
    # strong pseudoprimes to the first nine prime bases (the first one to
    # the first eleven, the second to the first twelve)
    (3825123056546413051, (149491, 747451, 34233211)),
    (318665857834031151167461, (399165290221, 798330580441)),
])
def test_is_prime_rejects_strong_pseudoprimes(n, factors):
    assert math.prod(factors) == n
    assert is_prime(n) is False


def test_is_prime_near_10_18_and_above_the_limit():
    assert is_prime(10**18 + 3) and is_prime(10**18 + 9)
    assert not is_prime(10**18 + 1)
    # the limit itself passes all 13 bases although it is composite, so
    # the test refuses it and every larger n that no base divides
    assert 1287836182261 * 2575672364521 == _MR_LIMIT
    with pytest.raises(CostLimitExceeded):
        is_prime(_MR_LIMIT)
    with pytest.raises(CostLimitExceeded):
        is_prime(10**60 + 7)
    assert not is_prime(10**60)


def test_divisors():
    assert divisors(1) == [1]
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(49) == [1, 7, 49]
