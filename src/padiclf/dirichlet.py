"""Dirichlet characters on (Z/nZ)^x valued in the (p-1)-st roots of unity of Z_p^x.

Every admissible value is the Teichmuller lift omega(t) of a unique unit
t mod p, so a character is stored exactly as a table of mod-p labels:
chi(a) = omega(label(a)).  All structural operations (level change,
conductor, primitivity, multiplication, parity) are then exact integer
computations on labels, and values can be emitted as p-adic numbers at
any requested precision.  Characters whose order does not divide p - 1
have no such table and are rejected at construction.

Every table is validated when a character is built, derived characters
included.  A table sending 1 to 1 is a homomorphism iff
chi(a g) = chi(a) chi(g) for every unit a and every generator g of
(Z/nZ)^x: writing h as a word in the generators, induction on the word
length gives chi(h) as the product of the generator values, and then
chi(a h) = chi(a) chi(h).  The generators come from the CRT: a
primitive root for each odd prime power, -1 for 4, and -1 and 5 for 2^e
with e >= 3, each lifted with 1 in the other slots.  So building a
character costs O(phi(n) * #generators) table look-ups, with
#generators at most one more than the number of primes dividing n.

The unique character mod 1 is even, has conductor 1, and evaluates to 1
everywhere (including at 0, the sole element of Z/1Z, which is a unit).

decompose_coprime stays although only tests call it: it is the CRT split
of a character of level m*n into characters of levels m and n, and a test
pins that their product recovers the character.
"""

from __future__ import annotations

import json
import math

from .errors import NotAUnit, NotCoprime, NotDivisible, UnsupportedOrder
from .modarith import (
    Residue,
    UnitResidue,
    crt_combine,
    divisors,
    require_odd_prime,
    unit_ints,
)
from .padic import DEFAULT_RELPREC, PadicNum

__all__ = [
    "teichmuller_int",
    "DirichletCharacter",
    "trivial_character",
    "make_teich_char",
    "char_power",
    "decompose_coprime",
    "parse_character_spec",
    "load_table_character",
]

_TEICH_CACHE: dict[tuple[int, int], dict[int, int]] = {}


def teichmuller_int(p: int, a: int, relprec: int) -> int:
    """omega(a) mod p^relprec as a plain integer, for a unit a mod p.

    a^(p^k) stabilizes mod p^(k+1), so the lift equals a^(p^(relprec-1))
    reduced mod p^relprec: the unique (p-1)-st root of unity congruent
    to a mod p.
    """
    require_odd_prime(p)
    a %= p
    if a == 0:
        raise NotAUnit(f"{a} is not a unit modulo {p}")
    cache = _TEICH_CACHE.setdefault((p, relprec), {})
    if a not in cache:
        cache[a] = pow(a, p ** (relprec - 1), p**relprec)
    return cache[a]


def _factorize(n: int) -> dict[int, int]:
    """{prime: exponent} for n >= 1, by trial division."""
    out: dict[int, int] = {}
    f = 2
    while f * f <= n:
        while n % f == 0:
            out[f] = out.get(f, 0) + 1
            n //= f
        f += 1 if f == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _primitive_root(q: int, e: int) -> int:
    """A generator of (Z/q^e Z)^x for an odd prime q.

    A primitive root g mod q generates every (Z/q^e Z)^x unless
    g^(q-1) = 1 mod q^2, in which case g + q does.
    """
    primes = _factorize(q - 1)
    g = next(g for g in range(2, q)
             if all(pow(g, (q - 1) // r, q) != 1 for r in primes))
    if e > 1 and pow(g, q - 1, q * q) == 1:
        g += q
    return g


def _generators(n: int, factors: dict[int, int]) -> list[tuple[int, int]]:
    """Generators of (Z/nZ)^x with their orders, as (g mod n, ord g).

    Per prime power q^e of n: a primitive root of order phi(q^e) for odd
    q, -1 for 4, and -1 and 5 (order 2^(e-2)) for 2^e with e >= 3; each
    lifted through the CRT with 1 in the other slots.
    """
    gens = []
    for q, e in factors.items():
        qe = q**e
        if q != 2:
            local = [(_primitive_root(q, e), qe - qe // q)]
        elif e == 1:
            local = []
        elif e == 2:
            local = [(-1, 2)]
        else:
            local = [(-1, 2), (5, 2 ** (e - 2))]
        for g, order in local:
            gens.append((crt_combine(qe, n // qe, g, 1).value, order))
    return gens


class DirichletCharacter:
    """A character of (Z/levelZ)^x with values omega(label) in mu_(p-1)."""

    def __init__(self, p: int, level: int, labels: dict, relprec: int = DEFAULT_RELPREC):
        require_odd_prime(p)
        if level < 1:
            raise ValueError("level must be a positive integer")
        self.p = p
        self.level = level
        self.relprec = relprec
        self._labels = {int(a): int(t) % p for a, t in labels.items()}
        self._conductor = None
        self._validate()

    def _validate(self):
        """Check the table on the generators (module docstring)."""
        n, p, labels = self.level, self.p, self._labels
        factors = _factorize(n)
        phi = math.prod(q**e - q ** (e - 1) for q, e in factors.items())
        # phi(n) distinct unit keys are exactly the units
        if len(labels) != phi or not all(
            0 <= a < n and math.gcd(a, n) == 1 for a in labels
        ):
            units = unit_ints(n)
            missing = [a for a in units if a not in labels]
            if missing:
                raise ValueError(f"character table is missing units {missing[:5]}")
            unit_set = set(units)
            extra = [a for a in labels if a not in unit_set]
            raise ValueError(f"character table has non-unit keys {extra[:5]}")
        for a, t in labels.items():
            if t == 0:
                raise NotAUnit(f"value label {t} at {a} is not a unit mod {p}")
        if labels[1 % n] != 1:
            raise ValueError("character does not send 1 to 1")
        gens = _generators(n, factors)
        # order obstruction first: chi(g)^ord(g) must be 1 in mu_(p-1)
        for g, order in gens:
            if pow(labels[g], order, p) != 1:
                raise UnsupportedOrder(
                    f"value at the generator {g} has order not dividing "
                    f"ord({g}) = {order}: no character into mu_{p - 1} takes it"
                )
        for g, _ in gens:
            tg = labels[g]
            for a, t in labels.items():
                if (t * tg - labels[a * g % n]) % p:
                    raise ValueError(
                        f"character table is not multiplicative at the pair ({a}, {g})"
                    )

    # ---------------- evaluation ----------------

    def label(self, a) -> int:
        """The mod-p label t with chi(a) = omega(t), for a unit a."""
        if isinstance(a, (UnitResidue, Residue)):
            a = a.value
        a %= self.level
        if a not in self._labels:
            raise NotAUnit(f"{a} is not a unit modulo {self.level}")
        return self._labels[a]

    def value(self, a, relprec: int | None = None) -> PadicNum:
        """chi(a) as a p-adic unit, for a unit a."""
        n = relprec if relprec is not None else self.relprec
        return PadicNum.from_unit(self.p, 0, teichmuller_int(self.p, self.label(a), n), n)

    def asso_eval(self, x, relprec: int | None = None) -> PadicNum:
        """Extension by zero: chi on units, exact zero elsewhere."""
        if isinstance(x, (UnitResidue, Residue)):
            x = x.value
        x %= self.level
        if x in self._labels:
            return self.value(x, relprec)
        return PadicNum.exact_zero(self.p)

    @property
    def labels(self) -> dict:
        """The label table {unit: t}; treat as read-only."""
        return self._labels

    def order(self) -> int:
        """Order of the character in the group of characters."""
        acc = 1
        for t in set(self._labels.values()):
            k, x = 1, t % self.p
            while x != 1:
                x = (x * t) % self.p
                k += 1
            acc = acc * k // math.gcd(acc, k)
        return acc

    # ---------------- structure ----------------

    def change_level(self, m: int) -> "DirichletCharacter":
        """Extend to level m (level | m): a maps to chi(a mod level)."""
        if m % self.level:
            raise NotDivisible(f"{self.level} does not divide {m}")
        labels = {a: self._labels[a % self.level] for a in unit_ints(m)}
        return DirichletCharacter(self.p, m, labels, self.relprec)

    def factors_through(self, d: int) -> bool:
        """True iff the character only depends on the argument mod d (d | level)."""
        if self.level % d:
            raise NotDivisible(f"{d} does not divide {self.level}")
        seen: dict[int, int] = {}
        for a, t in self._labels.items():
            r = a % d
            if seen.setdefault(r, t) != t:
                return False
        return True

    def conductor(self) -> int:
        """Least divisor of the level the character factors through."""
        if self._conductor is None:
            for d in divisors(self.level):
                if self.factors_through(d):
                    self._conductor = d
                    break
        return self._conductor

    def is_primitive(self) -> bool:
        return self.conductor() == self.level

    def associated_primitive(self) -> "DirichletCharacter":
        """The unique character at the conductor extending back to this one."""
        f = self.conductor()
        labels = {}
        for b in unit_ints(f):
            for t in range(self.level // f):
                a = b + t * f
                if math.gcd(a, self.level) == 1:
                    labels[b] = self._labels[a]
                    break
        return DirichletCharacter(self.p, f, labels, self.relprec)

    def __mul__(self, other: "DirichletCharacter") -> "DirichletCharacter":
        """Primitive character attached to the product at the lcm level."""
        if not isinstance(other, DirichletCharacter):
            return NotImplemented
        if self.p != other.p:
            raise ValueError("characters live over different primes")
        lev = math.lcm(self.level, other.level)
        la, lb = self._labels, other._labels
        labels = {
            a: la[a % self.level] * lb[a % other.level] % self.p
            for a in unit_ints(lev)
        }
        prod = DirichletCharacter(
            self.p, lev, labels, min(self.relprec, other.relprec)
        )
        return prod.associated_primitive()

    def is_even(self) -> bool:
        """chi(-1) = 1; every character here is even or odd, never neither."""
        t = self._labels[(self.level - 1) % self.level]
        return t % self.p == 1

    def parity(self) -> str:
        return "even" if self.is_even() else "odd"

    def __eq__(self, other) -> bool:
        if not isinstance(other, DirichletCharacter):
            return NotImplemented
        return (
            self.p == other.p
            and self.level == other.level
            and self._labels == other._labels
        )

    def __hash__(self):
        return hash((self.p, self.level, tuple(sorted(self._labels.items()))))

    def __repr__(self):
        return (
            f"DirichletCharacter(p={self.p}, level={self.level}, "
            f"order={self.order()})"
        )

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "modulus": self.level,
            "entries": {str(a): t for a, t in sorted(self._labels.items())},
        }


def trivial_character(p: int, level: int = 1, relprec: int = DEFAULT_RELPREC) -> DirichletCharacter:
    labels = dict.fromkeys(unit_ints(level), 1)
    return DirichletCharacter(p, level, labels, relprec)


def make_teich_char(p: int, relprec: int = DEFAULT_RELPREC) -> DirichletCharacter:
    """The Teichmuller character omega of level p (order p - 1)."""
    labels = {a: a for a in range(1, p)}
    return DirichletCharacter(p, p, labels, relprec)


def char_power(chi: DirichletCharacter, k: int) -> DirichletCharacter:
    """Pointwise k-th power at the same level (k >= 0)."""
    if k < 0:
        raise ValueError("use a nonnegative exponent (orders are finite)")
    labels = {a: pow(t, k, chi.p) for a, t in chi._labels.items()}
    return DirichletCharacter(chi.p, chi.level, labels, chi.relprec)


def decompose_coprime(chi: DirichletCharacter, m: int, n: int):
    """Split a character of level m*n (m, n coprime) into CRT factors.

    Returns (chi1 of level m, chi2 of level n) with chi1(a) = chi(a, 1)
    and chi2(b) = chi(1, b) through the CRT isomorphism; the product of
    their level-mn extensions is chi, and chi1 is primitive whenever m
    divides the conductor.
    """
    if math.gcd(m, n) != 1:
        raise NotCoprime(f"gcd({m}, {n}) != 1")
    if chi.level != m * n:
        raise ValueError(f"character has level {chi.level}, expected {m * n}")
    labels1 = {a: chi.label(crt_combine(m, n, a, 1).value) for a in unit_ints(m)}
    labels2 = {b: chi.label(crt_combine(m, n, 1, b).value) for b in unit_ints(n)}
    chi1 = DirichletCharacter(chi.p, m, labels1, chi.relprec)
    chi2 = DirichletCharacter(chi.p, n, labels2, chi.relprec)
    return chi1, chi2


def load_table_character(path: str, relprec: int = DEFAULT_RELPREC) -> DirichletCharacter:
    """Load a character table file.

    Schema: { "p": int, "modulus": int, "entries": { "<a>": t_a, ... } }
    where each t_a is an integer coprime to p; the stored value at a is
    the Teichmuller lift of t_a.  The loader validates completeness over
    the units and multiplicativity on the generators, naming the first
    offending pair (a, g) with g a generator.
    """
    with open(path) as fh:
        obj = json.load(fh)
    for key in ("p", "modulus", "entries"):
        if key not in obj:
            raise ValueError(f"character table file is missing the '{key}' field")
    labels = {int(a): int(t) for a, t in obj["entries"].items()}
    return DirichletCharacter(int(obj["p"]), int(obj["modulus"]), labels, relprec)


def parse_character_spec(spec: str, p: int, level: int | None = None,
                         relprec: int = DEFAULT_RELPREC) -> DirichletCharacter:
    """Parse a character spec: "triv" | "omega^<k>" | "table:<path>".

    "triv" is the trivial character (at `level` when given, else mod 1);
    "omega^k" is the k-th power of the Teichmuller character at level p.
    """
    spec = spec.strip()
    if spec == "triv":
        return trivial_character(p, level if level else 1, relprec)
    if spec.startswith("omega^"):
        try:
            k = int(spec[len("omega^"):])
        except ValueError:
            raise ValueError(f"bad character spec {spec!r}: exponent must be an integer")
        if k < 0:
            raise ValueError("omega exponents must be nonnegative")
        return char_power(make_teich_char(p, relprec), k)
    if spec.startswith("table:"):
        chi = load_table_character(spec[len("table:"):], relprec)
        if chi.p != p:
            raise ValueError(f"table character is over p={chi.p}, expected p={p}")
        return chi
    raise ValueError(f"unrecognized character spec {spec!r}")
