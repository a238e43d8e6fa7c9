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
finite quotient Z/(d p^n)Z, stored as the tuple `states` of its values'
PadicNum.state() tuples (p, v, unit, relprec) indexed by the residue
a = 0 .. d p^n - 1, the format of the carry tables below.  Its `values`
are rebuilt from the states on each read, and CylinderFunction._of builds
one from states, so that random draws and refinement make no PadicNum.
Applying the measure to one is a finite sum, and refining the level does
not change the result.  Seven paper objects stay although only tests call
them, because tests pin properties of the measure through them:
  * bernoulli_distribution, the value E_c(n, a) at one residue, which the
    carry tables and the oracles are checked against;
  * ClopenSet and char_fn, a basic clopen set U and its characteristic
    function, whose integral is the distribution value E_c(U);
  * cylinder_decompose, the clopen decomposition f = sum f(a) char_fn(U_a);
  * units_cylinder, a function on the units extended by zero, through
    which a test integrates the L-function integrand with measure_apply;
  * equi_class, the fibre of reduction (the Lean equi_class), and
    distribution_refine_sum, the sum over it, which state compatibility
    residue by residue; the tests hold compatibility_failures to them.

measure_apply returns the PadicNum that the fold sum_a f(a) * E_c(a), with
each E_c(a) embedded at relative precision relprec, would return, from one
integer accumulator.  An entry counts when it is not an exact zero and
E_c(a) != 0; write e = v_p(2 E_c(a)).  A finite entry p^v u with relative
precision r gives a term of absolute precision v + e + min(r, relprec),
and an entry O(p^T) one of absolute precision T + e.  W is the least of
these and vmin the least valuation v of a finite counted entry.  The
accumulator sums u * (c - 1 - 2t) over the finite counted entries of each
valuation v, adds up those sums times p^(v - vmin) and halves once mod
p^(W - vmin).  The outcome is

  * the exact zero when no entry counts;
  * O(p^W) when no finite entry counts, when W <= vmin, or when the
    accumulator vanishes mod p^(W - vmin);
  * otherwise p^vmin times the halved accumulator, known mod p^(W - vmin).

measure_apply reads 2 E_c(a) and v_p(2 E_c(a)) for every a from two
tables built once per (params, level) and kept in bounded caches,
carry_table and carry_valuations, zipped against the stored states; one
call fetches both in one cached lookup.  Since a = c b - D t with
gcd(c, D) = 1, the carry is t = -a D^(-1) mod c, so carry_table is at most
c constant slices a = r, r + c, r + 2c, ... and needs no per-residue
arithmetic.  The same pass yields the least valuation of an entry that is
not an exact zero, so norm_bound_check has ||f|| without reading the
entries a second time.

norm_bound_check's verdict (lhs, rhs, ok) is a function of four integers
alone: p, c, the integral's stored valuation (None for the exact zero, W
for O(p^W), v otherwise) and the least valuation of f.  It is kept in a
bounded cache keyed by them, so a sample pays its entries and one lookup;
the Fractions p^(-v), K p^(-least) and their comparison are made once per
distinct key.  norm_bound_check is the bound on a given cylinder function.
measure-check and suite criterion 6 build none: suite.random_bound_checks
draws all of a call's samples at levels 0 .. max_level (min(--max-level, 3)
for measure-check) and integrates each random entry as it is drawn,
exactly, into one integer: L times the rational 2 sum f(a) E_c(a), with
L = lcm(1..60) a common denominator of every drawn entry, from per-level
tables of shared (L/den * 2 E_c, v_p(2 E_c)) pairs.  The cached verdict is
read at that integer's valuation less v_p(L), capped at W, since the fold
above agrees with the exact sum below p^W.  A sample costs the same at every
relprec, builds no PadicNum and is tested against norm_bound_check.

compatibility_failures sweeps in one pass over integer tables.  Its table
hook values(params, n) gives the doubled values 2 mu(n, a) at
a = 0 .. d p^n - 1 of the reading mu under test; the genuine E_c is
carry_table itself and the division reading is div_by_c_table, the
constant c - 1.  The sweep reads each level 0 to max_level + 1 once; the
refined sums of level m are the sums over k < p of the slices
[k d p^m, (k + 1) d p^m) of level m + 1, because the lifts of x mod d p^m
are x + k d p^m.  A Fraction is made only for a failure it reports, and
the carry tables it reads are the ones measure_apply reuses.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction

from .errors import CostLimitExceeded, LevelOrder, NotCoprime
from .modarith import partition_range, require_odd_prime
from .padic import DEFAULT_RELPREC, PadicNum, rational_valuation

__all__ = [
    "BernoulliParams",
    "ClopenSet",
    "CylinderFunction",
    "char_fn",
    "cylinder_decompose",
    "equi_class",
    "bernoulli_distribution",
    "div_by_c_table",
    "distribution_refine_sum",
    "compatibility_failures",
    "MAX_SWEEP_EVALUATIONS",
    "carry_table",
    "carry_valuations",
    "measure_apply",
    "units_cylinder",
    "norm_bound_constant",
    "norm_bound_check",
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


@dataclass(frozen=True)
class ClopenSet:
    """The basic clopen set at level n: the fiber over base in [0, d*p^n)."""

    d: int
    p: int
    level: int
    base: int

    def __post_init__(self):
        if not 0 <= self.base < self.d * self.p**self.level:
            raise ValueError(f"base {self.base} is not reduced modulo "
                             f"{self.d}*{self.p}^{self.level}")


class CylinderFunction:
    """A locally constant function at a level, stored as the tuple `states`
    of its entries' PadicNum.state() tuples (p, v, unit, relprec) at the
    residues a = 0 .. d*p^level - 1, indexed by a: the format of carry_table.
    Any sequence of PadicNums of that length is taken as the entries;
    anything else, such as a dict (which iterates over its keys), is refused.
    `values` rebuilds the PadicNums from `states` on each read, and _of
    builds a function from states without making a PadicNum.
    """

    def __init__(self, d: int, p: int, level: int, values: Sequence):
        if level < 0:
            raise LevelOrder(f"level must be >= 0, got {level}")
        if not isinstance(values, Sequence):
            raise TypeError("cylinder function values must be a sequence indexed by residue, "
                            f"not a {type(values).__name__}")
        self._set(d, p, level, tuple(map(PadicNum.state, values)))
        if len(self.states) != self.modulus:
            raise ValueError(
                f"value table has {len(self.states)} entries, expected {self.modulus}")

    @classmethod
    def _of(cls, d: int, p: int, level: int, states: tuple) -> "CylinderFunction":
        """The function with these entry states at `level`, unchecked."""
        f = cls.__new__(cls)
        f._set(d, p, level, states)
        return f

    def _set(self, d, p, level, states):
        self.d = d
        self.p = p
        self.level = level
        self.states = states

    @property
    def values(self) -> tuple:
        """The entries as PadicNums, rebuilt from `states` on each read."""
        return tuple(itertools.starmap(PadicNum, self.states))

    @property
    def modulus(self) -> int:
        return self.d * self.p**self.level

    def refine_level(self, level: int) -> "CylinderFunction":
        """Represent the same function on the finer quotient at `level`."""
        if level < self.level:
            raise LevelOrder(f"cannot refine from level {self.level} down to {level}")
        # b mod the old modulus runs through the old residues in order, p^k times
        return CylinderFunction._of(self.d, self.p, level,
                                    self.states * self.p ** (level - self.level))

    def __add__(self, other: "CylinderFunction") -> "CylinderFunction":
        if (self.d, self.p) != (other.d, other.p):
            raise ValueError("cylinder functions live on different spaces")
        lev = max(self.level, other.level)
        f, g = self.refine_level(lev), other.refine_level(lev)
        return CylinderFunction(self.d, self.p, lev, tuple(map(operator.add, f.values, g.values)))

    def __repr__(self):
        return f"CylinderFunction(d={self.d}, p={self.p}, level={self.level})"


def char_fn(clopen: ClopenSet, relprec: int = DEFAULT_RELPREC) -> CylinderFunction:
    """Characteristic function of a basic clopen set: 1 on it, 0 elsewhere."""
    p = clopen.p
    values = [PadicNum.exact_zero(p)] * (clopen.d * p**clopen.level)
    values[clopen.base] = PadicNum.one(p, relprec)
    return CylinderFunction(clopen.d, p, clopen.level, values)


def cylinder_decompose(f: CylinderFunction):
    """Write f as sum of f(a) * char_fn(U_a) over the level's clopen basis."""
    return [(v, ClopenSet(f.d, f.p, f.level, a)) for a, v in enumerate(f.values)]


def equi_class(d: int, p: int, n: int, m: int, a: int) -> list[int]:
    """The residues mod d*p^m, increasing, that reduce to a in [0, d*p^n)."""
    if m < n:
        raise LevelOrder(f"target level {m} is below source level {n}")
    step = d * p**n
    if not 0 <= a < step:
        raise ValueError(f"{a} is not reduced modulo {step}")
    return list(range(a, d * p**m, step))


def bernoulli_distribution(params: BernoulliParams, n: int, a: int) -> Fraction:
    """E_c(n, a) = (c-1)/2 - floor(c b / D), b = c^(-1) a mod D, D = d*p^n."""
    p, d, c = params.p, params.d, params.c
    D = d * p**n
    return Fraction(c - 1 - 2 * (c * (pow(c, -1, D) * a % D) // D), 2)


def div_by_c_table(params: BernoulliParams, n: int) -> tuple:
    """The rival reading {A/D} - c {A/(cD)} + (c-1)/2 at level n, doubled, as a
    table hook of compatibility_failures; it fails compatibility.

    It is the constant c - 1: 0 <= A < D < cD gives {A/(cD)} = A/(cD),
    so the first two terms cancel.  Its refined sum is p (c-1).
    """
    return (params.c - 1,) * (params.d * params.p**n)


def distribution_refine_sum(params: BernoulliParams, m: int, x: int,
                            dist=bernoulli_distribution) -> Fraction:
    """Sum of level-(m+1) measure values over the p lifts of x mod d*p^m.

    Equals dist(params, m, x) exactly for the genuine distribution.
    """
    d, p = params.d, params.p
    return sum(
        (dist(params, m + 1, y) for y in equi_class(d, p, m, m + 1, x % (d * p**m))),
        Fraction(0),
    )


@functools.lru_cache(maxsize=32)
def carry_table(params: BernoulliParams, level: int) -> tuple:
    """2 E_c(level, a) = c - 1 - 2t at index a, for a mod D = d*p^level.

    The carry t of a = c b - D t is fixed by a mod c: t = -a D^(-1) mod c.
    So the table is at most c constant slices a = r, r + c, r + 2c, ...
    """
    c = params.c
    D = params.d * params.p**level
    d_inv = pow(D, -1, c)
    table = [0] * D
    for r in range(min(c, D)):
        table[r::c] = [c - 1 - 2 * (-r * d_inv % c)] * len(range(r, D, c))
    return tuple(table)


@functools.lru_cache(maxsize=32)
def carry_valuations(params: BernoulliParams, level: int) -> tuple:
    """v_p(2 E_c(level, a)) at index a, math.inf where the value is 0."""
    table = carry_table(params, level)
    valuation = {x: rational_valuation(params.p, x) for x in set(table)}
    return tuple(map(valuation.__getitem__, table))


@functools.lru_cache(maxsize=32)
def _carry_tables(params: BernoulliParams, level: int) -> tuple:
    """(carry_table, carry_valuations) at (params, level), from one lookup."""
    return carry_table(params, level), carry_valuations(params, level)


# The most distribution values one compatibility sweep may read.
MAX_SWEEP_EVALUATIONS = 2_000_000


def compatibility_failures(params: BernoulliParams, max_level: int,
                           values=carry_table) -> list[tuple]:
    """Every (m, x, coarse, fine) with m <= max_level and x mod d*p^m where the
    level-m value `coarse` differs from the refined sum `fine`, both reported
    as Fractions.

    `values(params, n)` is the level-n table of doubled distribution values
    2 mu(n, a) at a = 0 .. d*p^n - 1; it defaults to carry_table, the genuine
    2 E_c.  The sweep reads it once at each level 0 to max_level + 1.  A
    sweep whose bound (p + 1) * d * sum_(m <= max_level) p^m on the values
    read exceeds MAX_SWEEP_EVALUATIONS is refused up front with
    CostLimitExceeded.
    """
    if max_level < 0:
        raise ValueError(f"max_level must be >= 0, got {max_level}")
    p, d = params.p, params.d
    # the exponent is capped so that a huge max_level costs nothing to refuse
    top = min(max_level, 64)
    evaluations = (p + 1) * d * (p ** (top + 1) - 1) // (p - 1)
    if evaluations > MAX_SWEEP_EVALUATIONS:
        more = "more than " if top < max_level else ""
        raise CostLimitExceeded(
            f"a compatibility sweep to level {max_level} needs {more}{evaluations} "
            f"E_c evaluations, over the limit of {MAX_SWEEP_EVALUATIONS}"
        )
    failures = []
    coarse = values(params, 0)
    for m in range(max_level + 1):
        step = d * p**m
        fine = values(params, m + 1)
        refined = list(map(sum, zip(*(fine[k * step:(k + 1) * step] for k in range(p)))))
        if any(map(operator.ne, coarse, refined)):
            failures += [(m, x, Fraction(value, 2), Fraction(total, 2))
                         for x, (value, total) in enumerate(zip(coarse, refined))
                         if value != total]
        coarse = fine
    return failures


def _integrate(params: BernoulliParams, f: CylinderFunction, relprec: int) -> tuple:
    """(measure_apply(params, f, relprec), the least valuation of f's entries),
    the latter math.inf when every entry is an exact zero, from one read of
    each entry."""
    if (f.d, f.p) != (params.d, params.p):
        raise ValueError("cylinder function does not match the measure parameters")
    if relprec < 1:
        raise ValueError("relative precision must be >= 1")
    p = params.p
    absprec = least = math.inf
    sums = {}  # v -> sum of u * 2 E_c(a) over the finite counted entries p^v u
    for (xp, v, u, r), two_e, e in zip(f.states, *_carry_tables(params, f.level)):
        if v is None:  # an exact zero
            continue
        if xp != p:
            raise ValueError(f"prime mismatch: {xp} vs {p}")
        if v < least:
            least = v
        if two_e == 0:
            continue
        if u is None:  # O(p^v)
            term_prec = v + e
        else:
            term_prec = v + e + (r if r < relprec else relprec)
            sums[v] = sums.get(v, 0) + u * two_e
        if term_prec < absprec:
            absprec = term_prec
    return _halved_sum(p, sums, absprec), least


def _halved_sum(p: int, sums: dict, absprec) -> PadicNum:
    """The integral from its accumulator (module docstring): sums maps each
    valuation v to the sum of u * 2 E_c(a) over the finite counted entries
    p^v u, and absprec is W, math.inf when no entry counts.

    A unit u may be given as any integer congruent to it mod p^relprec, so
    unreduced: the multiple of p^relprec it adds to sums[v] enters the
    accumulator times p^(v - vmin) * 2 E_c(a), of valuation at least
    v + e + relprec - vmin, which is at least the window W - vmin.
    """
    if absprec == math.inf:
        return PadicNum.exact_zero(p)
    vmin = min(sums, default=absprec)
    if vmin >= absprec:
        return PadicNum.zero_at_precision(p, absprec)
    window = absprec - vmin
    acc = sum(m * p ** (v - vmin) for v, m in sums.items())
    # (p^window + 1) / 2 is the inverse of 2 mod p^window, as p is odd
    return PadicNum.from_int_mod(p, acc * ((p**window + 1) // 2), window, shift=vmin)


def measure_apply(params: BernoulliParams, f: CylinderFunction,
                  relprec: int = DEFAULT_RELPREC) -> PadicNum:
    """Integrate a cylinder function: sum of f(a) * E_c(level, a) over the level.

    Refining f first gives the identical value (eventual constancy of the
    level sums), which is what makes the measure well defined.  The sum is
    one integer accumulator; its precision rule is in the module docstring.
    """
    return _integrate(params, f, relprec)[0]


def units_cylinder(d: int, p: int, level: int, unit_values) -> CylinderFunction:
    """Build a total table from values given on the units, zero elsewhere.

    unit_values is indexed by residue: a dict over the units, or a whole
    table such as another cylinder function's values.
    """
    values = [PadicNum.exact_zero(p)] * (d * p**level)
    for a in partition_range(d, p, level)[0]:
        values[a] = unit_values[a]
    return CylinderFunction(d, p, level, values)


@functools.lru_cache(maxsize=64)
def norm_bound_constant(p: int, c: int) -> Fraction:
    """K = 1 + ||c|| + ||(c-1)/2||, which is 2 + p^(-v_p(c-1)) as c and 2 are
    prime to p."""
    return 2 + Fraction(1, p ** rational_valuation(p, c - 1))


@functools.lru_cache(maxsize=256)
def _bound_verdict(p: int, c: int, v, least) -> tuple:
    """(lhs, rhs, ok) for an integral of stored valuation v (None for the
    exact zero) and a function of least valuation `least` (math.inf when
    every entry is an exact zero)."""
    lhs = Fraction(0) if v is None else Fraction(p) ** -v
    sup = Fraction(0) if least == math.inf else Fraction(p) ** -least
    rhs = norm_bound_constant(p, c) * sup
    return lhs, rhs, lhs <= rhs


def norm_bound_check(params: BernoulliParams, f: CylinderFunction,
                     relprec: int = DEFAULT_RELPREC):
    """Check the measure bound ||E_c(f)|| <= K * ||f|| with exact rational
    p-adic norms and K = norm_bound_constant(p, c).  Returns (lhs, rhs, ok).

    ||f|| is p^(-v) for the least valuation v of an entry, or 0 when every
    entry is an exact zero; it comes from the same read of the entries as
    E_c(f).  ||E_c(f)|| is p^(-w) for the integral's stored valuation w (an
    upper bound for O(p^w)), or 0 for the exact zero.  The verdict depends on
    p, c, w and v alone and is read from a bounded cache keyed by them, so
    the Fractions and their comparison are made once per distinct key.
    """
    value, least = _integrate(params, f, relprec)
    return _bound_verdict(params.p, params.c, value.state()[1], least)
