"""Exact rational Bernoulli numbers and Bernoulli polynomials.

Two sign conventions coexist classically; both are provided.
bernoulli_prime gives B'_n with B'_1 = +1/2 through the recurrence

    B'_n = 1 - sum_{k=0}^{n-1} C(n, k) * B'_k / (n - k + 1)

and bernoulli gives B_n = (-1)^n * B'_n, matching the generating
function t / (e^t - 1), so B_1 = -1/2.  The polynomials are

    B_n(X) = sum_{i=0}^{n} C(n, i) * B_i * X^(n-i).

Faulhaber's formula turns them into closed-form power sums over an
arithmetic progression (ProgressionPowerSum).  The one progression-sum
kernel, genbernoulli._unit_sum, is built on it: that is how the Riemann
sums and the twisted unit sums avoid visiting every residue.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import comb

__all__ = [
    "bernoulli_prime",
    "bernoulli",
    "bernoulli_poly",
    "bernoulli_poly_eval",
    "ProgressionPowerSum",
]

_BPRIME = [Fraction(1)]  # B'_0, extended on demand


def bernoulli_prime(n: int) -> Fraction:
    """B'_n (convention B'_1 = +1/2), exact and memoized."""
    if n < 0:
        raise ValueError("n must be >= 0")
    while len(_BPRIME) <= n:
        m = len(_BPRIME)
        acc = Fraction(1)
        for k in range(m):
            acc -= comb(m, k) * _BPRIME[k] / (m - k + 1)
        _BPRIME.append(acc)
    return _BPRIME[n]


def bernoulli(n: int) -> Fraction:
    """B_n (convention B_1 = -1/2)."""
    return (-1) ** n * bernoulli_prime(n)


_BPOLY: dict[int, tuple] = {}


def bernoulli_poly(n: int) -> tuple:
    """The degree-n Bernoulli polynomial B_n(X) as the tuple of its exact
    coefficients, that of X^i at index i (monic, so of length n + 1)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n not in _BPOLY:
        _BPOLY[n] = tuple(comb(n, i) * bernoulli(i) for i in range(n, -1, -1))
    return _BPOLY[n]


def bernoulli_poly_eval(n: int, q) -> Fraction:
    """Exact value of B_n at a rational point, by Horner's rule."""
    q = Fraction(q)
    acc = Fraction(0)
    for c in reversed(bernoulli_poly(n)):
        acc = acc * q + c
    return acc


class ProgressionPowerSum:
    """Sums of k-th powers over an arithmetic progression, mod a modulus.

    Calling the object on integers u0 <= u1 with u1 = u0 (mod step)
    returns the sum of u^k over u = u0, u0 + step, ..., u1 - step, reduced
    mod `modulus`, in O(k) integer operations whatever the number of
    terms.  Faulhaber's formula at x = u0 / step,

        sum_{0 <= s < n} (x + s)^k = (B_(k+1)(x + n) - B_(k+1)(x)) / (k + 1),

    becomes sum = (H(u1) - H(u0)) / (step * (k + 1) * den) with
    H(y) = den * step^(k+1) * B_(k+1)(y / step), where den clears the
    denominators of B_(k+1) so that H has integer coefficients.  The
    difference H(u1) - H(u0) is an exact multiple of that divisor, so H is
    evaluated modulo divisor * modulus and the quotient is exact.
    """

    def __init__(self, k: int, step: int, modulus: int):
        if k < 0:
            raise ValueError("k must be >= 0")
        if step < 1:
            raise ValueError("step must be >= 1")
        coeffs = bernoulli_poly(k + 1)
        den = math.lcm(*(c.denominator for c in coeffs))
        self.k = k
        self.step = step
        self.modulus = modulus
        self._div = step * (k + 1) * den
        self._mod = modulus * self._div
        # H's coefficients, highest power first for Horner's rule
        self._horner = [
            int(c * den) * step ** (k + 1 - i) % self._mod
            for i, c in reversed(list(enumerate(coeffs)))
        ]

    def _h(self, y: int) -> int:
        mod = self._mod
        acc = 0
        for h in self._horner:
            acc = (acc * y + h) % mod
        return acc

    def __call__(self, u0: int, u1: int) -> int:
        if u1 - u0 == self.step:
            return pow(u0, self.k, self.modulus)
        return (self._h(u1) - self._h(u0)) % self._mod // self._div
