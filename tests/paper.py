"""The paper's objects that no padiclf command runs, which tests pin theorems
through.

Each keeps the name the Lean development of arXiv 2302.14491 gives it
where it has one: equi_class, the fibre of reduction between levels;
appr, the projection Z_p -> Z/p^nZ; and asso_dirichlet_character, a
character extended by zero.  The others are the p-adic norm and unit
part, congruence mod p^n, the basic clopen sets and their characteristic
functions, the clopen decomposition and sum of cylinder functions, a
function on the units extended by zero, and the CRT split of a character.
tests/oracles.py holds the brute-force forms of what padiclf computes.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from padiclf.dirichlet import DirichletCharacter, _root_power, teichmuller_int
from padiclf.errors import InsufficientPrecision, LevelOrder, NotCoprime
from padiclf.measure import CylinderFunction
from padiclf.padic import DEFAULT_RELPREC, PadicNum

# ---------------- p-adic numbers ----------------


def norm(x: PadicNum) -> Fraction:
    """p-adic norm p^(-nu) as an exact rational (an upper bound for O(p^T))."""
    if x._v is None:
        return Fraction(0)
    v = x._v
    return Fraction(1, x.p**v) if v >= 0 else Fraction(x.p ** (-v))


def unit(x: PadicNum) -> int:
    """The unit part u of a nonzero value p^v u."""
    if x._unit is None:
        raise ValueError("unit part is only defined for nonzero values")
    return x._unit


def appr(x: PadicNum, n: int) -> int:
    """The unique natural in [0, p^n) congruent to x mod p^n (the Lean appr).

    Requires a p-adic integer (valuation >= 0) and n within the absolute
    precision.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if x._v is None:
        return 0
    if n > x.abs_precision:
        raise InsufficientPrecision(
            f"requested {n} digits, absolute precision is {x.abs_precision}"
        )
    if x._unit is None:
        return 0
    if x._v < 0:
        raise ValueError("appr is defined only for nonnegative valuation")
    return (x._unit * x.p**x._v) % x.p**n


def eq_mod(x: PadicNum, y: PadicNum, threshold: int) -> bool:
    """True iff nu_p(x - y) >= threshold.

    Both operands must carry at least `threshold` digits of absolute
    precision, otherwise the question is not decidable and
    InsufficientPrecision is raised.
    """
    x._require_same_prime(y)
    if x.abs_precision < threshold or y.abs_precision < threshold:
        raise InsufficientPrecision(
            f"operands carry fewer than {threshold} digits of absolute precision"
        )
    d = x - y
    if d.is_exact_zero():
        return True
    if d.is_zero_at_precision() and d.valuation() < threshold:
        raise InsufficientPrecision(
            f"difference vanished at precision {d.valuation()} < {threshold}"
        )
    return d.valuation() >= threshold


# ---------------- levels and cylinder functions ----------------


def partition_range(d: int, p: int, x: int) -> tuple[list[int], list[int]]:
    """Split [0, d*p^x) into representatives coprime to d*p and the rest;
    at x = 0 that is coprimality to d*p, not to d, so not units_of(d)."""
    if math.gcd(d, p) != 1:
        raise NotCoprime(f"gcd({d}, {p}) != 1")
    dp = d * p
    units, nonunits = [], []
    for a in range(d * p**x):
        (units if math.gcd(a, dp) == 1 else nonunits).append(a)
    return units, nonunits


def equi_class(d: int, p: int, n: int, m: int, a: int) -> list[int]:
    """The residues mod d*p^m, increasing, that reduce to a in [0, d*p^n)."""
    if m < n:
        raise LevelOrder(f"target level {m} is below source level {n}")
    step = d * p**n
    if not 0 <= a < step:
        raise ValueError(f"{a} is not reduced modulo {step}")
    return list(range(a, d * p**m, step))


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


def char_fn(clopen: ClopenSet) -> CylinderFunction:
    """Characteristic function of a basic clopen set: 1 on it, 0 elsewhere.
    Its integral is the distribution value E_c(U)."""
    nums = [0] * (clopen.d * clopen.p**clopen.level)
    nums[clopen.base] = 1
    return CylinderFunction._of(clopen.d, clopen.p, clopen.level, tuple(nums), 1)


def cylinder_decompose(f: CylinderFunction):
    """Write f as sum of f(a) * char_fn(U_a) over the level's clopen basis."""
    return [(v, ClopenSet(f.d, f.p, f.level, a)) for a, v in enumerate(f.values)]


def add(f: CylinderFunction, g: CylinderFunction) -> CylinderFunction:
    """f + g at the finer of their levels."""
    if (f.d, f.p) != (g.d, g.p):
        raise ValueError("cylinder functions live on different spaces")
    lev = max(f.level, g.level)
    f, g = f.refine_level(lev), g.refine_level(lev)
    return CylinderFunction(f.d, f.p, lev, tuple(map(operator.add, f.values, g.values)))


def units_cylinder(d: int, p: int, level: int, unit_values) -> CylinderFunction:
    """Build a total table from rational values given on the units, zero elsewhere.

    unit_values is indexed by residue: a dict over the units, or a whole
    table such as another cylinder function's values.
    """
    values = [0] * (d * p**level)
    for a in partition_range(d, p, level)[0]:
        values[a] = unit_values[a]
    return CylinderFunction(d, p, level, values)


# ---------------- characters ----------------


def asso_dirichlet_character(chi: DirichletCharacter, x,
                             relprec: int = DEFAULT_RELPREC) -> PadicNum:
    """Extension by zero: exact zero off the units, and at a unit x with
    exponent e, omega(r)^e = omega(r^e) at relative precision relprec."""
    x %= chi.level
    if math.gcd(x, chi.level) != 1:
        return PadicNum.exact_zero(chi.p)
    t = teichmuller_int(chi.p, _root_power(chi.p, chi.label(x)), relprec)
    return PadicNum.from_unit(chi.p, 0, t, relprec)


def decompose_coprime(chi: DirichletCharacter, m: int, n: int):
    """Split a character of level m*n (m, n coprime) into CRT factors.

    Returns (chi1 of level m, chi2 of level n) with chi1(a) = chi(a, 1)
    and chi2(b) = chi(1, b) through the CRT isomorphism: the exponents
    at the generators of m and of n.  The product of their level-mn
    extensions is chi, and chi1 is primitive whenever m divides the
    conductor.
    """
    if math.gcd(m, n) != 1:
        raise NotCoprime(f"gcd({m}, {n}) != 1")
    if chi.level != m * n:
        raise ValueError(f"character has level {chi.level}, expected {m * n}")
    return chi._at(m), chi._at(n)
