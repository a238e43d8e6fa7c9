"""Exact rational Bernoulli numbers and Bernoulli polynomials.

B_n follows the generating function t / (e^t - 1), so B_1 = -1/2 and
B_n = 0 for every odd n > 1.  The even ones come from the tangent
numbers T_m (tan x = sum_m T_m x^(2m-1) / (2m-1)!) through

    B_2m = (-1)^(m-1) * 2m * T_m / (4^m * (4^m - 1)).

The T_m are Brent and Harvey's ("Fast computation of Bernoulli, Tangent
and Secant numbers", 2011): their triangle T_j^(k) = (j-k) T_(j-1)^(k)
+ (j-k+2) T_j^(k-1), from T_j^(1) = (j-1)! to T_j = T_j^(j), takes
O(m^2) multiply-adds by small integers and no division.  The triangle is
walked column by column, so the table of B_n, as reduced integer pairs
(numerator, denominator), grows to the even degree asked for and later
continues from there without recomputing a column.
It grows only to MAX_BERNOULLI_DEGREE; a B_n past it raises
CostLimitExceeded before any work.

The polynomials are

    B_n(X) = sum_{i=0}^{n} C(n, i) * B_i * X^(n-i),

kept per degree in integer form (den, nums): den is the least common
denominator of the coefficients and nums[i] / den is that of X^i.
bernoulli_poly gives the same coefficients as a tuple of Fractions, made
anew from the integer form on each call.

Faulhaber's formula turns them into closed-form power sums over an
arithmetic progression (ProgressionPowerSum).  The one progression-sum
kernel, genbernoulli._unit_sum, is built on it: that is how the Riemann
sums and the twisted unit sums avoid visiting every residue.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import CostLimitExceeded

__all__ = [
    "MAX_BERNOULLI_DEGREE",
    "bernoulli",
    "bernoulli_poly",
    "bernoulli_poly_int",
    "bernoulli_poly_eval",
    "ProgressionPowerSum",
]

# The largest n for which B_n and B_n(X) are computed, a bound on the time
# the tangent-number table takes to grow; even, so that the table ends at
# it.  ProgressionPowerSum(k) reaches it at k = MAX_BERNOULLI_DEGREE - 1.
MAX_BERNOULLI_DEGREE = 2000

_TABLE = [(1, 1)]  # (numerator, denominator) of B_0, B_1, ..., B_(2m) for some m
_COLUMN: list[int] = []  # T_m^(k) for k = 1..m at the last tangent number m


def _next_tangent() -> int:
    """Advance _COLUMN from T_(m-1)^(k) to T_m^(k), k = 1..m, and return T_m."""
    prev = _COLUMN
    m = len(prev) + 1
    col = [(m - 1) * prev[0] if prev else 1]
    for k in range(2, m):
        col.append((m - k) * prev[k - 1] + (m - k + 2) * col[-1])
    if m > 1:
        # T_(m-1)^(m) has weight m - k = 0
        col.append(2 * col[-1])
    _COLUMN[:] = col
    return col[-1]


def _table(n: int) -> list:
    """_TABLE, first grown to B_n, or B_(n+1) for odd n, if it stops short
    of B_n; CostLimitExceeded past MAX_BERNOULLI_DEGREE."""
    if n < len(_TABLE):
        return _TABLE
    if n > MAX_BERNOULLI_DEGREE:
        raise CostLimitExceeded(
            f"B_{n} is past the maximum Bernoulli degree {MAX_BERNOULLI_DEGREE}")
    while len(_TABLE) <= n:
        m = len(_TABLE) // 2 + 1
        num, den = (-1) ** (m - 1) * 2 * m * _next_tangent(), 4**m * (4**m - 1)
        g = math.gcd(num, den)
        _TABLE.extend(((-1, 2) if m == 1 else (0, 1), (num // g, den // g)))
    return _TABLE


def bernoulli(n: int) -> Fraction:
    """B_n (convention B_1 = -1/2), exact."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return Fraction(*_table(n)[n])


_BPOLY_INT: dict[int, tuple] = {}


def bernoulli_poly_int(n: int) -> tuple:
    """B_n(X) in integer form (den, nums): den is the least common
    denominator of the coefficients and nums[i] / den that of X^i."""
    if n in _BPOLY_INT:
        return _BPOLY_INT[n]
    if n < 0:
        raise ValueError("n must be >= 0")
    table = _table(n)
    # C(n, i) * B_i, reduced, for X^(n-i); B_i = 0 at odd i > 1
    terms, binom = [], 1
    for i in range(n + 1):
        num, den = table[i]
        if num:
            num *= binom
            g = math.gcd(num, den)
            terms.append((n - i, num // g, den // g))
        binom = binom * (n - i) // (i + 1)
    lcd = math.lcm(*(den for _, _, den in terms))
    nums = [0] * (n + 1)
    for power, num, den in terms:
        nums[power] = num * (lcd // den)
    _BPOLY_INT[n] = form = (lcd, tuple(nums))
    return form


def bernoulli_poly(n: int) -> tuple:
    """The degree-n Bernoulli polynomial B_n(X) as the tuple of its exact
    coefficients, that of X^i at index i (monic, so of length n + 1)."""
    den, nums = bernoulli_poly_int(n)
    return tuple(Fraction(num, den) for num in nums)


def bernoulli_poly_eval(n: int, q) -> Fraction:
    """Exact value of B_n at a rational point a/b: Horner's rule on
    sum_i nums[i] a^i b^(n-i), over den * b^n."""
    q = Fraction(q)
    a, b = q.numerator, q.denominator
    den, nums = bernoulli_poly_int(n)
    acc, b_power = 0, 1
    for num in reversed(nums):
        acc = acc * a + num * b_power
        b_power *= b
    return Fraction(acc, den * b**n)


class ProgressionPowerSum:
    """Faulhaber's closed form of a sum of k-th powers over an arithmetic
    progression, mod a modulus, as three integers: horner, mod and div.

    For integers u0 <= u1 with u1 = u0 (mod step), the sum of u^k over
    u = u0, u0 + step, ..., u1 - step, reduced mod `modulus`, is
    (H(u1) - H(u0)) % mod // div, O(k) integer operations whatever the
    number of terms, where H's coefficients are `horner`, highest power
    first.  Faulhaber's formula at x = u0 / step,

        sum_{0 <= s < n} (x + s)^k = (B_(k+1)(x + n) - B_(k+1)(x)) / (k + 1),

    becomes sum = (H(u1) - H(u0)) / div with div = step * (k + 1) * den
    and H(y) = den * step^(k+1) * B_(k+1)(y / step), where den is that of
    B_(k+1)'s integer form, so that H has integer coefficients.  They are
    reduced mod mod = div * modulus once, here; the one caller,
    genbernoulli._unit_sum, evaluates H by Horner's rule on unreduced
    ints, with no reduction per step.  H(u1) - H(u0) is an exact multiple
    of div, and so is any integer combination of such differences, so
    _unit_sum, which adds many of them per label, makes one exact
    `% mod // div` for the whole sum.
    """

    def __init__(self, k: int, step: int, modulus: int):
        if k < 0:
            raise ValueError("k must be >= 0")
        if step < 1:
            raise ValueError("step must be >= 1")
        den, nums = bernoulli_poly_int(k + 1)
        self.div = step * (k + 1) * den
        self.mod = mod = modulus * self.div
        # H's coefficients nums[i] * step^(k+1-i), highest power first
        horner, step_power = [], 1
        for num in reversed(nums):
            horner.append(num * step_power % mod)
            step_power *= step
        self.horner = horner
