"""Exact modular arithmetic: units, CRT, primality and divisors.

All moduli are arbitrary-precision Python ints and representatives are
always the least nonnegative residue.  Z/1Z is the one-point ring whose
single element 0 counts as a unit (its own inverse), so that conductor-1
characters are well defined downstream.
"""

from __future__ import annotations

import functools
import math

from .errors import CostLimitExceeded, NotCoprime
from .padic import split_p_power

__all__ = [
    "crt_combine",
    "units_of",
    "is_prime",
    "require_odd_prime",
    "divisors",
]


def crt_combine(d: int, q: int, a: int, b: int) -> int:
    """The residue mod d*q congruent to a mod d and b mod q (d, q coprime)."""
    if math.gcd(d, q) != 1:
        raise NotCoprime(f"gcd({d}, {q}) != 1")
    # x = a + d*t with t chosen so x = b mod q; pow(d, -1, 1) == 0 covers q == 1
    t = ((b - a) * pow(d, -1, q)) % q
    return (a + d * t) % (d * q)


def units_of(n: int) -> list[int]:
    """The least representatives of the units of Z/nZ, increasing (length phi(n))."""
    if n < 1:
        raise ValueError("modulus must be a positive integer")
    return [a for a in range(n) if math.gcd(a, n) == 1]


# Miller-Rabin on the 13 primes up to 41 decides primality exactly below
# _MR_LIMIT, the least strong pseudoprime to all of them (Sorenson and
# Webster, Math. Comp. 86, 2017)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin test, exact for n < _MR_LIMIT; at or above it
    it raises CostLimitExceeded unless one of the bases divides n."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    if n >= _MR_LIMIT:
        raise CostLimitExceeded(f"primality of {n} is decided only below {_MR_LIMIT}")
    s, odd = split_p_power(2, n - 1)
    for a in _MR_BASES:
        x = pow(a, odd, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@functools.lru_cache(maxsize=64)
def _is_odd_prime(p: int) -> bool:
    return p != 2 and is_prime(p)


def require_odd_prime(p: int) -> None:
    """Raise ValueError unless p is an odd prime.  The answer is kept for the
    last 64 values of p, so the checks that one call makes on its p (the
    measure parameters, then the Teichmuller character) test it once."""
    if not _is_odd_prime(p):
        raise ValueError("p must be an odd prime")


def divisors(n: int) -> list[int]:
    """Positive divisors of n in increasing order."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    small, large = [], []
    f = 1
    while f * f <= n:
        if n % f == 0:
            small.append(f)
            if f != n // f:
                large.append(n // f)
        f += 1
    return small + large[::-1]
