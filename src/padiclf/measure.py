"""The Bernoulli measure E_c on Z/dZ x Z_p and locally constant integration.

The clopen basis of the space is indexed by residues a mod d*p^n (the
product view is reachable through the CRT).  Fixing an auxiliary c >= 2
with gcd(c, dp) = 1, put D = d*p^n (the modulus of the level itself),
A the least representative of a, b = c^(-1) A mod D and t = floor(c b / D),
so that t lies in [0, c) and

    a = c b - D t   and   E_c(n, a) = (c - 1)/2 - t.

This is the measure of the level-n basic clopen set at a, the classical
{A/D} - c {b/D} + (c - 1)/2 with the two fractional parts combined into
the carry t.  E_c takes values in Z + (c-1)/2 and in particular is
p-integral for odd p.  Its load-bearing property is distribution
compatibility: the sum of level-(n+1) values over the p lifts of a
equals the level-n value exactly, for every admissible c.  That property
rejects the two rival readings of the fractional-part formula.  Shifting
the denominator one level down (D = d*p^(n+1)) breaks compatibility for
most c (for example p=5, d=1, c=3, m=1).  Dividing by c inside the
fractional part, {A/D} - c {A/(cD)} + (c - 1)/2, is the constant
(c - 1)/2, whose refined sum is p (c - 1)/2.

A cylinder (locally constant) function at level n is a function on the
finite quotient Z/(d p^n)Z.  CylinderFunction takes rational values: it
stores their integer numerators `nums` over one positive denominator `den`,
indexed by the residue a = 0 .. d p^n - 1, and `values` returns them as
Fractions.  Refining the level repeats the numerators and keeps den.
Four functions stay although no command calls them, because the traced
benchmark run (perfbench/spans.py) wraps them by name:
  * bernoulli_distribution, the value E_c(n, a) at one residue, which the
    carry periods and the oracles are checked against;
  * distribution_refine_sum, the sum of the level-(m+1) values over the p
    lifts of a residue, which states compatibility residue by residue; the
    tests hold measure_failures to it;
  * measure_apply, the integral E_c(f) as an element of Q_p;
  * norm_bound_check, the bound on one given f (below).
The paper objects that tests pin theorems through, such as a basic clopen
set and its characteristic function, live in tests/paper.py.

Rational step functions.  E_c takes values in (1/2)Z, so the integral of
a step function with rational values is an exact rational, one dot
product with the level's carry period (below):

    integral(params, f) = sum_a nums[a] * period[a mod len(period)] / (2 den)

with period = carry_period(params, f.level).

Refining f does not change it (distribution compatibility).  Each reader
of an integral reads this one: measure_apply embeds it once, with
PadicNum.from_rational at the relative precision it is asked for, so every
digit it claims is exact; norm_bound_check reads its exact valuation; suite
criterion 7 compares it across refinement.  A step function with p-adic
values, such as a character's Teichmuller lifts on the units, is not a
CylinderFunction; the test oracle tests/oracles.py::measure_apply_fold
integrates one term by term in PadicNum arithmetic.

carry_period(params, n) holds 2 E_c(n, a) at a = 0 .. min(c, D) - 1.
Since a = c b - D t with gcd(c, D) = 1, the carry is t = a u mod c with
u = -D^(-1) mod c, so the level's values repeat with period c:
carry_period is the whole level, read at a mod c, and needs only D mod c.
The integral and the sweep below both read the level in this one form.

The measure is bounded: ||E_c(f)|| <= K ||f|| for every cylinder function
f, with K = norm_bound_constant(p, c).  This is exact level by level on the
clopen basis: f = sum f(a) 1_(U_a), with 1_(U_a) the characteristic
function of the basic clopen set U_a at a, gives ||E_c(f)|| <= ||f||
max_a ||E_c(U_a)|| by the ultrametric inequality, and f = 1_(U_a) has
||f|| = 1, so the bound holds at a level exactly when ||E_c(U_a)|| <= K
at each of its residues a.  norm_bound_check is the bound on one given f.
random_cylinder draws one cylinder function by randrange (suite criterion 7).

measure_failures checks both properties, compatibility and boundedness, in
one sweep over the periods.  Its table hook values(params, n) gives the
doubled values 2 mu(n, a) at a = 0 .. min(c, D) - 1 of the reading mu under
test, which must depend only on a mod c, as E_c, E_c/p, the division and the
shifted-denominator readings do; the genuine E_c is carry_period and the
division reading is div_by_c_period, the constant c - 1.  The sweep reads
each level 0 to max_level + 1 once, refuses a read that is not one period,
and takes both verdicts on a level from that one read.  The lifts of x mod
D are x + k D for k < p, so the refined sum of the class r of level m is
sum_(k < p) fine[(r + k s) mod len(fine)], with fine the period of level
m + 1 and s = D mod len(fine).  That is one slice, ext[r : r + p s : s],
of ext, fine repeated until it holds the index r + (p - 1) s: a level costs
O(p min(c, D)) steps in C, not O(d p^(m+1)).  As K >= 2 and a value whose
denominator is prime to p has norm at most 1, K and a norm are made only
where p divides a denominator: never for the genuine E_c, whose 2 E_c(U_a)
are integers (p is odd).  A failing class is expanded into its (m, x)
tuples, in x order, and a Fraction is made, only for a failure it reports.
The sweep is refused on the work it does: up front when the values it reads
plus the terms it sums pass MAX_SWEEP_EVALUATIONS, and at a failing level
when the tuples listed would pass it, counted class by class before any is
built.
"""

from __future__ import annotations

import itertools
import math
import numbers
import operator
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction

from .errors import CostLimitExceeded, LevelOrder, NotCoprime
from .modarith import require_odd_prime
from .padic import DEFAULT_RELPREC, PadicNum, rational_valuation

__all__ = [
    "BernoulliParams",
    "CylinderFunction",
    "bernoulli_distribution",
    "div_by_c_period",
    "distribution_refine_sum",
    "measure_failures",
    "MAX_SWEEP_EVALUATIONS",
    "carry_period",
    "integral",
    "measure_apply",
    "norm_bound_constant",
    "norm_bound_check",
    "random_cylinder",
]


@dataclass(frozen=True)
class BernoulliParams:
    """The data (p, d, c): odd prime, tame level, and auxiliary integer."""

    p: int
    d: int
    c: int

    def __post_init__(self):
        require_odd_prime(self.p)
        if self.d < 1:
            raise ValueError("d must be a positive integer")
        if math.gcd(self.d, self.p) != 1:
            raise NotCoprime(f"gcd(d={self.d}, p={self.p}) != 1")
        if self.c < 2:
            raise ValueError("c must be >= 2")
        if math.gcd(self.c, self.d * self.p) != 1:
            raise NotCoprime(f"gcd(c={self.c}, dp={self.d * self.p}) != 1")


class CylinderFunction:
    """A locally constant function at a level with rational values, stored as
    the integer numerators `nums` over one positive denominator `den`, with
    f(a) = nums[a] / den at the residues a = 0 .. d*p^level - 1, indexed by
    a.  Any sequence of ints and Fractions of that length is taken as the
    values; anything else, such as a dict (which iterates over its keys) or
    a PadicNum entry, is refused.  `values` returns the entries as
    Fractions, and _of builds a function from its numerators and
    denominator unchecked.
    """

    def __init__(self, d: int, p: int, level: int, values: Sequence):
        if level < 0:
            raise LevelOrder(f"level must be >= 0, got {level}")
        if not isinstance(values, Sequence):
            raise TypeError("cylinder function values must be a sequence indexed by residue, "
                            f"not a {type(values).__name__}")
        for v in values:
            if not isinstance(v, numbers.Rational):
                raise TypeError(f"cylinder function values must be rationals, not {v!r}")
        if len(values) != d * p**level:
            raise ValueError(
                f"value table has {len(values)} entries, expected {d * p**level}")
        den = math.lcm(*(v.denominator for v in values))
        self._set(d, p, level, tuple(v.numerator * (den // v.denominator) for v in values), den)

    @classmethod
    def _of(cls, d: int, p: int, level: int, nums: tuple, den: int) -> "CylinderFunction":
        """The function nums[a] / den at `level`, unchecked."""
        f = cls.__new__(cls)
        f._set(d, p, level, nums, den)
        return f

    def _set(self, d, p, level, nums, den):
        self.d = d
        self.p = p
        self.level = level
        self.nums = nums
        self.den = den

    @property
    def values(self) -> tuple:
        """The entries nums[a] / den as Fractions."""
        den = self.den
        return tuple(Fraction(n, den) for n in self.nums)

    def refine_level(self, level: int) -> "CylinderFunction":
        """Represent the same function on the finer quotient at `level`."""
        if level < self.level:
            raise LevelOrder(f"cannot refine from level {self.level} down to {level}")
        # b mod the old modulus runs through the old residues in order, p^k times
        return CylinderFunction._of(self.d, self.p, level,
                                    self.nums * self.p ** (level - self.level), self.den)

    def __repr__(self):
        return f"CylinderFunction(d={self.d}, p={self.p}, level={self.level})"


def bernoulli_distribution(params: BernoulliParams, n: int, a: int) -> Fraction:
    """E_c(n, a) = (c-1)/2 - floor(c b / D), b = c^(-1) a mod D, D = d*p^n."""
    p, d, c = params.p, params.d, params.c
    D = d * p**n
    return Fraction(c - 1 - 2 * (c * (pow(c, -1, D) * a % D) // D), 2)


def div_by_c_period(params: BernoulliParams, n: int) -> tuple:
    """The rival reading {A/D} - c {A/(cD)} + (c-1)/2 at level n, doubled, as a
    table hook of measure_failures; it fails compatibility.

    It is the constant c - 1: 0 <= A < D < cD gives {A/(cD)} = A/(cD),
    so the first two terms cancel.  Its refined sum is p (c-1).
    """
    return (params.c - 1,) * _period_length(params, n)


def distribution_refine_sum(params: BernoulliParams, m: int, x: int,
                            dist=bernoulli_distribution) -> Fraction:
    """Sum of level-(m+1) measure values over the p lifts of x mod d*p^m.

    Equals dist(params, m, x) exactly for the genuine distribution.
    """
    D = params.d * params.p**m
    return sum((dist(params, m + 1, y) for y in range(x % D, params.p * D, D)), Fraction(0))


def _period_length(params: BernoulliParams, n: int) -> int:
    """min(c, d*p^n), the number of values a level's period holds.  As p > 2,
    p^n > c once n >= c.bit_length(), so no power of p past that is built."""
    c = params.c
    return c if n >= c.bit_length() else min(c, params.d * params.p**n)


def carry_period(params: BernoulliParams, n: int) -> tuple:
    """2 E_c(n, a) = c - 1 - 2t at a = 0 .. min(c, D) - 1, D = d*p^n.

    The carry t of a = c b - D t is fixed by a mod c: t = a u mod c with
    u = -D^(-1) mod c, a unit read from D mod c.  So these values repeat
    with period c through the level, and the period is doubled[a u mod c]
    for doubled = (c - 1, c - 3, .., 1 - c), the values at t = 0 .. c - 1.
    """
    c = params.c
    u = -pow(params.d * pow(params.p, n, c), -1, c) % c
    return tuple([c - 1 - 2 * (r * u % c) for r in range(_period_length(params, n))])


# The most work a sweep may do: the period values it reads plus the terms of
# its refined sums, counted up front, and the (m, x) tuples a failing reading
# lists, counted at each failing level before they are built.
MAX_SWEEP_EVALUATIONS = 2_000_000


def _periods_total(params: BernoulliParams, levels: int) -> int:
    """sum_(n < levels) min(c, d*p^n) in closed form: d (p^k - 1)/(p - 1) over
    the k levels below c, whose period is the whole level, then c a level."""
    p, d, c = params.p, params.d, params.c
    k = 0
    while k < levels and d * p**k < c:
        k += 1
    return d * (p**k - 1) // (p - 1) + c * (levels - k)


def measure_failures(params: BernoulliParams, max_level: int,
                     values=carry_period) -> tuple[list, list]:
    """(compatibility, boundedness): every (m, x, coarse, fine) with
    m <= max_level and x mod d*p^m where the level-m value differs from the
    refined sum, and every (m, x, ||mu(U_x)||, K) where the norm of the basic
    clopen set exceeds K, all as Fractions, read from one period of the
    table hook `values` per level (module docstring).  A read whose length
    is not min(c, d*p^n) and a negative max_level are refused with
    ValueError.  CostLimitExceeded refuses, up front, a sweep whose values
    read, sum_(n <= max_level + 1) min(c, d*p^n), plus terms summed,
    p sum_(m <= max_level) min(c, d*p^m), exceed MAX_SWEEP_EVALUATIONS, and,
    at the first level where they would exceed it, the (m, x) tuples of a
    failing reading, counted before they are built.
    """
    if max_level < 0:
        raise ValueError(f"max_level must be >= 0, got {max_level}")
    p, d, c = params.p, params.d, params.c
    reads = _periods_total(params, max_level + 2)
    terms = p * _periods_total(params, max_level + 1)
    if reads + terms > MAX_SWEEP_EVALUATIONS:
        raise CostLimitExceeded(
            f"a sweep to level {max_level} reads {reads} values and sums {terms} "
            f"terms, over the limit of {MAX_SWEEP_EVALUATIONS}")

    def period(n, length):
        read = values(params, n)
        if len(read) != length:
            raise ValueError(f"the table hook gave {len(read)} values at level {n}, "
                             f"not one period of min(c, d*p^n) = {length}")
        return read

    compatibility, boundedness = [], []
    length = min(c, d)
    coarse = period(0, length)
    for m in range(max_level + 1):
        # min(c, d p^(m+1)) from min(c, d p^m)
        length = min(c, length * p)
        fine = period(m + 1, length)
        # len(coarse) is c or D = d p^m, so the value at x is coarse[x % n].
        # ||mu|| = ||2 mu|| as p is odd
        n, past = len(coarse), {}
        if suspects := [v for v in set(coarse) if v.denominator % p == 0]:
            bound = norm_bound_constant(p, c)
            past = {v: norm for v in suspects if (norm := _norm(p, v)) > bound}
        # the lifts x + k D, k < p, of the class r lie in the classes r + k s
        # of fine, s = D mod len(fine), which is never 0 (len(fine) is c,
        # prime to D, or p D); in fine repeated past r + (p - 1) s they are
        # the slice ext[r : r + p s : s]
        s = d * pow(p, m, len(fine)) % len(fine)
        ext = fine * ((n - 1 + (p - 1) * s) // len(fine) + 1)
        refined = [sum(ext[r:r + p * s:s]) for r in range(n)]
        if past or any(map(operator.ne, coarse, refined)):
            unbounded = [r for r in range(n) if coarse[r] in past]
            incompatible = [r for r in range(n) if coarse[r] != refined[r]]
            # the class r holds the x = r, r + n, .. below D
            D = d * p**m
            listed = (len(compatibility) + len(boundedness)
                      + sum((D - 1 - r) // n + 1 for r in unbounded + incompatible))
            if listed > MAX_SWEEP_EVALUATIONS:
                raise CostLimitExceeded(
                    f"the failures of a sweep to level {m} are {listed} (m, x) tuples, "
                    f"over the limit of {MAX_SWEEP_EVALUATIONS}")
            if unbounded:
                boundedness += [(m, x, past[v], bound) for x in range(D)
                                if (v := coarse[x % n]) in past]
            if incompatible:
                compatibility += [(m, x, Fraction(coarse[r], 2), Fraction(refined[r], 2))
                                  for x in range(D) if coarse[r := x % n] != refined[r]]
        coarse = fine
    return compatibility, boundedness


def integral(params: BernoulliParams, f: CylinderFunction) -> Fraction:
    """The exact integral sum_a f(a) E_c(level, a), one dot product of f.nums
    with carry_period read at a mod len(period) (module docstring).
    Refining f gives the same rational."""
    if (f.d, f.p) != (params.d, params.p):
        raise ValueError("cylinder function does not match the measure parameters")
    period = carry_period(params, f.level)
    return Fraction(sum(map(operator.mul, f.nums, itertools.cycle(period))), 2 * f.den)


def measure_apply(params: BernoulliParams, f: CylinderFunction,
                  relprec: int = DEFAULT_RELPREC) -> PadicNum:
    """The integral of f as a PadicNum: the exact rational, embedded once at
    relprec digits, and the exact zero when it is 0."""
    if relprec < 1:
        raise ValueError("relative precision must be >= 1")
    return PadicNum.from_rational(params.p, integral(params, f), relprec)


def norm_bound_constant(p: int, c: int) -> Fraction:
    """K = 1 + ||c|| + ||(c-1)/2||, which is 2 + p^(-v_p(c-1)) as c and 2 are
    prime to p."""
    return 2 + Fraction(1, p ** rational_valuation(p, c - 1))


def _norm(p: int, q) -> Fraction:
    """The p-adic norm of a rational, 0 for 0."""
    return Fraction(0) if q == 0 else Fraction(p) ** -rational_valuation(p, q)


def norm_bound_check(params: BernoulliParams, f: CylinderFunction):
    """Check the measure bound ||E_c(f)|| <= K * ||f|| with exact rational
    p-adic norms and K = norm_bound_constant(p, c).  Returns (lhs, rhs, ok).

    ||E_c(f)|| is the norm of the exact integral; ||f|| is p^(-v) for the
    least valuation v of an entry, v_p(gcd(nums)) - v_p(den), or 0 when
    every entry is 0.
    """
    p = params.p
    lhs = _norm(p, integral(params, f))
    rhs = norm_bound_constant(p, params.c) * _norm(p, Fraction(math.gcd(*f.nums), f.den))
    return lhs, rhs, lhs <= rhs


def random_cylinder(rng, p, d, level) -> CylinderFunction:
    """A table at `level`: each entry is 0 when rng.random() < 1/10, and
    otherwise Fraction(rng.randrange(-999, 1000), rng.randrange(1, 61)); a
    negative level is refused with LevelOrder before any draw."""
    if level < 0:
        raise LevelOrder(f"level must be >= 0, got {level}")
    return CylinderFunction(d, p, level, [
        0 if rng.random() < 0.1 else Fraction(rng.randrange(-999, 1000), rng.randrange(1, 61))
        for _ in range(d * p**level)])

