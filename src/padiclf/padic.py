"""Finite-precision exact p-adic numbers.

A nonzero value is stored as p^v * u where u is a unit known modulo p^N:
v is the valuation, N the relative precision, and v + N the absolute
precision.  Two zero-like states are kept distinct:

  * an exact zero (valuation +infinity), and
  * a value that cancelled to working precision, written O(p^T), which
    remembers only the absolute precision T it is known to vanish at.

The second state is what a p-adic Riemann sum produces when all tracked
digits cancel; comparing it at precision beyond T raises
InsufficientPrecision instead of silently answering.

A PadicNum's slots are (p, v, unit, relprec), exactly what state()
returns, and state() round-trips through the raw constructor:
PadicNum(*x.state()) == x.  Equality and hashing read the state.  Which
of its slots are None gives the kind:

  * v is None:                the exact zero (unit, relprec None);
  * unit is None, v an int:   O(p^v);
  * all four set:             p^v * unit + O(p^(v + relprec)).

Precision propagation rules:

  mul:  valuations add, relative precision is the min of the operands'.
  add:  absolute precision of the result is the min of the operands',
        valuation recomputed from the surviving digits.
  inv:  relative precision preserved, valuation negated.

These are the usual interval-style semantics: every tracked digit of a
result is exact.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import DivisionByZero, InsufficientPrecision

__all__ = [
    "PadicNum",
    "DEFAULT_RELPREC",
    "eq_mod",
    "rational_valuation",
    "split_p_power",
]

DEFAULT_RELPREC = 8


def split_p_power(p: int, n: int) -> tuple[int, int]:
    """(v, n / p^v) for a nonzero integer n, where v = v_p(n), and p >= 2.

    O(log v) divisions: once by p, then by p, p^2, p^4, ... while each
    divides, then by the same powers downwards wherever one still does.
    """
    if p < 2:
        raise ValueError(f"p must be >= 2, got {p}")
    if n == 0:
        raise ValueError("0 has no p-adic valuation to split off")
    if n % p:
        return 0, n
    n //= p
    v, q, e, powers = 1, p, 1, []
    while n % q == 0:
        n //= q
        v += e
        powers.append(q)
        q *= q
        e *= 2
    for q in reversed(powers):
        e //= 2
        if n % q == 0:
            n //= q
            v += e
    return v, n


def rational_valuation(p: int, q) -> int | float:
    """p-adic valuation of a rational (math.inf for 0)."""
    q = Fraction(q)
    if q == 0:
        return math.inf
    return split_p_power(p, q.numerator)[0] - split_p_power(p, q.denominator)[0]


class PadicNum:
    """An element of Q_p tracked to finite precision.

    Construct through the classmethods (exact_zero, zero_at_precision,
    from_unit, from_rational, from_int_mod); the raw constructor is internal.
    """

    __slots__ = ("p", "_v", "_unit", "_relprec")

    def __init__(self, p, v=None, unit=None, relprec=None):
        self.p = p
        self._v = v
        self._unit = unit
        self._relprec = relprec

    # ---------------- constructors ----------------

    @classmethod
    def exact_zero(cls, p: int) -> "PadicNum":
        return cls(p)

    @classmethod
    def zero_at_precision(cls, p: int, absprec: int) -> "PadicNum":
        """A value known only to be 0 modulo p^absprec."""
        return cls(p, absprec)

    @classmethod
    def from_unit(cls, p: int, v: int, unit: int, relprec: int) -> "PadicNum":
        if relprec < 1:
            raise ValueError("relative precision must be >= 1")
        unit %= p**relprec
        if unit % p == 0:
            raise ValueError(f"{unit} is not a unit modulo {p}")
        return cls(p, v, unit, relprec)

    @classmethod
    def from_rational(cls, p: int, q, relprec: int = DEFAULT_RELPREC) -> "PadicNum":
        """Embed a rational exactly, up to relprec tracked digits."""
        q = Fraction(q)
        if q == 0:
            return cls.exact_zero(p)
        vn, num = split_p_power(p, q.numerator)
        vd, den = split_p_power(p, q.denominator)
        mod = p**relprec
        unit = num * pow(den, -1, mod) % mod
        return cls.from_unit(p, vn - vd, unit, relprec)

    @classmethod
    def from_int_mod(cls, p: int, value: int, window: int, shift: int = 0) -> "PadicNum":
        """p^shift * value where value is known modulo p^window.

        The result has absolute precision shift + window; if value is 0 in
        that window the result is the corresponding O(p^(shift+window)).
        """
        if window < 1:
            raise ValueError("window must be >= 1")
        w = value % (p**window)
        if w == 0:
            return cls.zero_at_precision(p, shift + window)
        t, w = split_p_power(p, w)
        return cls.from_unit(p, shift + t, w, window - t)

    # ---------------- predicates and accessors ----------------

    def is_exact_zero(self) -> bool:
        return self._v is None

    def is_zero_at_precision(self) -> bool:
        return self._v is not None and self._unit is None

    @property
    def abs_precision(self):
        """Absolute precision: digits are exact below p^abs_precision."""
        if self._v is None:
            return math.inf
        if self._unit is None:
            return self._v
        return self._v + self._relprec

    @property
    def relprec(self) -> int:
        if self._unit is None:
            raise ValueError("relative precision is only defined for nonzero values")
        return self._relprec

    @property
    def unit(self) -> int:
        if self._unit is None:
            raise ValueError("unit part is only defined for nonzero values")
        return self._unit

    def valuation(self):
        """nu_p of the value.

        Exact for nonzero values and for the exact zero (+infinity).  For a
        value that vanished at precision T this returns the lower bound T;
        check valuation_is_exact to distinguish.
        """
        if self._v is None:
            return math.inf
        return self._v

    @property
    def valuation_is_exact(self) -> bool:
        return not self.is_zero_at_precision()

    def state(self) -> tuple:
        """The slots (p, v, unit, relprec) in one read, for loops over many
        values; the None pattern is the kind (module docstring)."""
        return self.p, self._v, self._unit, self._relprec

    def norm(self) -> Fraction:
        """p-adic norm p^(-nu) as an exact rational (an upper bound for O(p^T))."""
        if self._v is None:
            return Fraction(0)
        v = self._v
        return Fraction(1, self.p**v) if v >= 0 else Fraction(self.p ** (-v))

    # ---------------- arithmetic ----------------

    def _require_same_prime(self, other: "PadicNum") -> None:
        if not isinstance(other, PadicNum):
            raise TypeError(f"expected a PadicNum, got {type(other).__name__}")
        if self.p != other.p:
            raise ValueError(f"prime mismatch: {self.p} vs {other.p}")

    def __add__(self, other: "PadicNum") -> "PadicNum":
        self._require_same_prime(other)
        p = self.p
        if self._v is None:
            return other
        if other._v is None:
            return self
        absprec = min(self.abs_precision, other.abs_precision)
        if self._unit is None or other._unit is None:
            x = other if self._unit is None else self
            if x._unit is None or x._v >= absprec:
                return PadicNum.zero_at_precision(p, absprec)
            return PadicNum.from_unit(p, x._v, x._unit, absprec - x._v)
        v0 = min(self._v, other._v)
        window = absprec - v0
        w = self._unit * p ** (self._v - v0) + other._unit * p ** (other._v - v0)
        return PadicNum.from_int_mod(p, w, window, shift=v0)

    def __neg__(self) -> "PadicNum":
        if self._unit is None:
            return self
        return PadicNum.from_unit(self.p, self._v, -self._unit, self._relprec)

    def __sub__(self, other: "PadicNum") -> "PadicNum":
        return self + (-other)

    def __mul__(self, other: "PadicNum") -> "PadicNum":
        self._require_same_prime(other)
        p = self.p
        if self._v is None or other._v is None:
            return PadicNum.exact_zero(p)
        if self._unit is None or other._unit is None:
            # nu(xy) >= bound(x) + nu(y) in every mixed case
            return PadicNum.zero_at_precision(p, self._v + other._v)
        return PadicNum.from_unit(
            p,
            self._v + other._v,
            self._unit * other._unit,
            min(self._relprec, other._relprec),
        )

    def inverse(self) -> "PadicNum":
        if self._v is None:
            raise DivisionByZero("cannot invert an exact zero")
        if self._unit is None:
            raise InsufficientPrecision(
                f"cannot invert a value known only as O({self.p}^{self._v})"
            )
        mod = self.p**self._relprec
        return PadicNum.from_unit(self.p, -self._v, pow(self._unit, -1, mod), self._relprec)

    # ---------------- projections ----------------

    def appr(self, n: int) -> int:
        """The unique natural in [0, p^n) congruent to the value mod p^n.

        Requires a p-adic integer (valuation >= 0) and n within the
        absolute precision.
        """
        if n < 0:
            raise ValueError("n must be >= 0")
        if self._v is None:
            return 0
        if n > self.abs_precision:
            raise InsufficientPrecision(
                f"requested {n} digits, absolute precision is {self.abs_precision}"
            )
        if self._unit is None:
            return 0
        if self._v < 0:
            raise ValueError("appr is defined only for nonnegative valuation")
        return (self._unit * self.p**self._v) % self.p**n

    # ---------------- comparison, serialization, display ----------------

    def __eq__(self, other) -> bool:
        """Structural equality: same state, so same prime, kind and tracked digits."""
        if not isinstance(other, PadicNum):
            return NotImplemented
        return self.state() == other.state()

    def __hash__(self):
        return hash(self.state())

    def to_json(self) -> dict:
        if self._v is None:
            return {"p": self.p, "zero": True}
        if self._unit is None:
            return {"p": self.p, "zero_to_precision": self._v}
        return {
            "p": self.p,
            "valuation": self._v,
            "unit": self._unit,
            "relprec": self._relprec,
        }

    def __repr__(self):
        if self._v is None:
            return f"0 (exact, {self.p}-adic)"
        if self._unit is None:
            return f"O({self.p}^{self._v})"
        return f"{self._unit}*{self.p}^{self._v} + O({self.p}^{self.abs_precision})"


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
