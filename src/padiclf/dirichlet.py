"""Dirichlet characters on (Z/nZ)^x valued in the (p-1)-st roots of unity of Z_p^x.

Every admissible value is omega(r)^e, r the least primitive root mod p,
for a unique e mod p - 1, its label; a table file and char-info write it
as the residue r^e mod p.  Through the CRT, (Z/nZ)^x is the product of
the unit groups of the prime powers q^a exactly dividing n, generated by
a primitive root g_q for odd q, by -1 for 4, and by -1 and 5 (of order
2^(a-2)) for 2^a with a >= 3 (Washington, Introduction to Cyclotomic
Fields, ch. 3); each is lifted with 1 in the other slots.  g_q is the
least primitive root mod q, plus q when its (q-1)-st power is 1 mod q^2,
so that it generates (Z/q^aZ)^x for every a: one root serves every power
of q.

A character is exact: it carries no precision, and each evaluation in
padiclf.genbernoulli takes its own.

A character is a value, and one value is one object, so that what a
character keeps (its label table, conductor, primitive character and
twists) is built once per value in a process, not once per call.  Every
character built from exponents (omega and its powers, the trivial
character, a change of level, a product, a primitive character) comes
from DirichletCharacter._of, which keeps the last INTERNED_CHARACTERS
(128) values it made, keyed by (p, level, exponents): since exponents
are reduced mod p - 1, the key is exactly equality.  A table file of
at most MAX_CACHED_TABLE_TEXT (2048) characters is kept by its whole
text, the last CACHED_TABLE_TEXTS (32) such texts read
(load_table_character): a file that changes in any byte is checked
again, and an error is never kept.  A longer file is checked on every
read, so that a large table read once does not hold its memory while
the cache fills.  At worst the two caches hold 128 characters with a
label table of MAX_TABLE_UNITS entries each, 1.28 * 10^8 entries, and 32
texts of 2048 characters with tables of at most 341 entries; a held
character also keeps its primitive character and twists alive, each
with a table of its own, after the cache has let them go.

A character is stored as (p, level, exponents): chi(g_i) = omega(r)^e_i
at the i-th generator g_i of the level, with r the least primitive root
mod p and e_i taken mod p - 1.  Characters whose order does not divide
p - 1 have no such vector and are rejected at construction.  Each
structural operation costs O(#generators), at most one more than the
number of primes dividing the level:

* the product adds exponent vectors and a power scales them;
* a change of level keeps the exponent at every generator whose prime
  and local generator the new level shares (the same g_q, -1 or 5) and
  puts 0 at the others;
* chi(-1) = omega(r)^s, with s the sum of e_q phi(q^a)/2 over the odd q
  (-1 = g_q^(phi(q^a)/2) mod q^a) plus the exponent at -1;
* the order is the lcm of the orders (p-1)/gcd(e_i, p-1) of the values;
* the conductor is the product of the local conductors: q^(1 + v_q(o))
  for odd q, o the order of chi(g_q); at 2, 2^(v_2(o) + 2) for o > 1 the
  order of chi(5), else 4 if chi(-1) != 1; 1 where the local character
  is trivial.  A local character mod q^a factors through q^b exactly when
  it is trivial on 1 + q^b Z_q, which g_q^(phi(q^b)) (or 5^(2^(b-2)))
  generates;
* the associated primitive character keeps the exponents at the
  generators of the conductor, a change of level downwards.

Label tables are built only where one is read: `labels` and `to_json` at
the character's own level, and `label` from the table of the associated
primitive character at the conductor.
Building one walks the powers of each generator in turn, adding
exponents, O(phi(level)).  A table of more than MAX_TABLE_UNITS entries,
and a modulus or p - 1 that trial division up to MAX_TRIAL_DIVISOR does
not factor, raise CostLimitExceeded instead of running for hours.

A table given to the constructor is checked in one O(phi(n)) pass once
it is known to hold exactly the units, nonzero residues and 1 -> 1:
UnsupportedOrder is raised where a residue at a generator has an order
not dividing its generator's; each residue is then read as an exponent
in one walk of mu_w, w the lcm of gcd(ord g, p - 1) over the generators
(O(w), w <= phi(n), never O(p)), and the table the exponents at the
generators generate must equal the input so read.  On a mismatch the
error names a pair (a, g), g a generator, with chi(a g) != chi(a) chi(g).
The table is built from 1 by steps a -> a g, each from a unit built
earlier, so at the first unit z, in the order built, where the two
tables differ, the step a -> z = a g starts where they agree, and the
input fails at (a, g); trying a = z g^(-1) for each generator g finds
such a pair.  Since phi(n) >= sqrt(n/2) for every n, a table with fewer
entries is refused as incomplete before n is factored, naming the first
missing units found by scanning upwards.

The unique character mod 1 is even, has conductor 1, and evaluates to 1
everywhere (including at 0, the sole element of Z/1Z, which is a unit).
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import operator

from .errors import CostLimitExceeded, NotAUnit, NotDivisible, UnsupportedOrder
from .modarith import crt_combine, is_prime, require_odd_prime
from .padic import split_p_power

__all__ = [
    "MAX_TRIAL_DIVISOR",
    "MAX_TABLE_UNITS",
    "teichmuller_int",
    "DirichletCharacter",
    "trivial_character",
    "make_teich_char",
    "char_power",
    "parse_character_spec",
    "load_table_character",
]

# trial division past this divisor is refused (_factorize)
MAX_TRIAL_DIVISOR = 10**6
# the most entries a label table is built with (_label_table)
MAX_TABLE_UNITS = 10**6
# the characters kept by DirichletCharacter._of, and the table texts by
# _table_character, which keeps none longer than MAX_CACHED_TABLE_TEXT
# characters (module docstring)
INTERNED_CHARACTERS = 128
CACHED_TABLE_TEXTS = 32
MAX_CACHED_TABLE_TEXT = 2048

_TEICH_CACHE: dict[tuple[int, int], dict[int, int]] = {}


def teichmuller_int(p: int, a: int, relprec: int) -> int:
    """omega(a) mod p^relprec as a plain integer, for a unit a mod p.

    omega(a) is the unique root of x^(p-1) = 1 congruent to a mod p.  It
    is found by Newton's method from x = a: if x is right mod p^k then
    x - (x^(p-1) - 1) / ((p-1) x^(p-2)) is right mod p^(2k), and as
    x^(p-1) = 1 mod p^k the inverse of the derivative may be taken as
    x / (p-1).  So it takes O(log relprec) steps, where a^(p^(relprec-1)),
    the same lift, takes O(relprec log p) multiplications.  p is checked
    when its cache entry is made, so a p that fails never gets one.
    """
    cache = _TEICH_CACHE.get((p, relprec))
    if cache is None:
        require_odd_prime(p)
        cache = _TEICH_CACHE[p, relprec] = {}
    a %= p
    if a == 0:
        raise NotAUnit(f"{a} is not a unit modulo {p}")
    if a not in cache:
        x, k = a, 1
        while k < relprec:
            k = min(2 * k, relprec)
            mod = p**k
            x = (x - (pow(x, p - 1, mod) - 1) * x * pow(p - 1, -1, mod)) % mod
        cache[a] = x
    return cache[a]


def _is_one_or_prime(n: int) -> bool:
    try:
        return n == 1 or is_prime(n)
    except CostLimitExceeded:
        return False


def _factorize(n: int) -> dict[int, int]:
    """{prime: exponent} for n >= 1, by trial division, primes increasing.

    Each prime found is stripped by split_p_power, in O(log exponent) divisions.
    The division stops once the cofactor is 1 or prime; a cofactor not
    known to be either when the divisor passes MAX_TRIAL_DIVISOR raises
    CostLimitExceeded.
    """
    out: dict[int, int] = {}
    f = 2
    done = _is_one_or_prime(n)
    while not done and f * f <= n:
        if f > MAX_TRIAL_DIVISOR:
            raise CostLimitExceeded(
                f"factoring {n} would need trial division past {MAX_TRIAL_DIVISOR}"
            )
        if n % f == 0:
            out[f], n = split_p_power(f, n)
            done = _is_one_or_prime(n)
        f += 1 if f == 2 else 2
    if n > 1:
        out[n] = 1
    return out


def _primitive_root(q: int) -> int:
    """A generator of (Z/q^a Z)^x for every a >= 1, q an odd prime.

    A primitive root g mod q generates every (Z/q^a Z)^x unless
    g^(q-1) = 1 mod q^2, in which case g + q does; it is taken at a = 1
    too, so that the root does not depend on a.
    """
    primes = _factorize(q - 1)
    g = next(g for g in range(2, q)
             if all(pow(g, (q - 1) // r, q) != 1 for r in primes))
    if pow(g, q - 1, q * q) == 1:
        g += q
    return g


@functools.lru_cache(maxsize=64)
def _root(p: int) -> int:
    """r, the least primitive root mod p: chi(g_i) = omega(r)^e_i."""
    return _primitive_root(p) % p


def _root_power(p: int, e: int) -> int:
    """r^e mod p, the residue of omega(r)^e; 1, with p - 1 unfactored, when p - 1 | e."""
    return pow(_root(p), e, p) if e % (p - 1) else 1


@functools.lru_cache(maxsize=256)
def _generators(n: int) -> tuple[tuple[int, int, int, int], ...]:
    """Generators of (Z/nZ)^x as (q, local generator, g mod n, ord g).

    Per prime power q^a of n, primes increasing: the root g_q of order
    phi(q^a) for odd q, -1 for 4, and -1 and 5 (order 2^(a-2)) for 2^a
    with a >= 3; g is the local generator lifted through the CRT with 1
    in the other slots.  (q, local generator) names a generator across
    levels.
    """
    gens = []
    for q, a in _factorize(n).items():
        qa = q**a
        if q != 2:
            local = [(_primitive_root(q), qa - qa // q)]
        elif a == 1:
            local = []
        elif a == 2:
            local = [(-1, 2)]
        else:
            local = [(-1, 2), (5, 2 ** (a - 2))]
        for x, order in local:
            gens.append((q, x, crt_combine(qa, n // qa, x, 1), order))
    return tuple(gens)


def _label_table(p: int, n: int, gens, exponents) -> dict[int, int]:
    """{unit a mod n: label} of the character with these exponents on gens.

    Walks the powers of one generator after another, multiplying units and
    adding exponents, so every unit is reached once: O(phi(n)).  A table of
    more than MAX_TABLE_UNITS entries raises CostLimitExceeded unbuilt.
    """
    units = math.prod(order for *_, order in gens)
    if units > MAX_TABLE_UNITS:
        raise CostLimitExceeded(
            f"a label table mod {n} has {units} entries, over the limit of {MAX_TABLE_UNITS}"
        )
    keys, labels, m = [1 % n], [0], p - 1
    for (_, _, g, order), e in zip(gens, exponents):
        g_pows, e_multiples = [1], [0]
        for _ in range(order - 1):
            g_pows.append(g_pows[-1] * g % n)
            e_multiples.append((e_multiples[-1] + e) % m)
        keys = [a * x % n for x in g_pows for a in keys]
        labels = [(s + y) % m for y in e_multiples for s in labels]
    return dict(zip(keys, labels))


def _missing_units(n: int, labels: dict, count: int) -> list[int]:
    """The first `count` units mod n, upwards, that are not keys of labels."""
    out = []
    for a in range(n):
        if a not in labels and math.gcd(a, n) == 1:
            out.append(a)
            if len(out) == count:
                break
    return out


def _as_int(x, what: str) -> int:
    """operator.index(x), which refuses floats and None, or ValueError naming
    `what`; a bool, which operator.index reads as 0 or 1, is refused too."""
    if isinstance(x, bool):
        raise ValueError(f"{what} must be an integer, not {x!r}")
    try:
        return operator.index(x)
    except TypeError:
        raise ValueError(f"{what} must be an integer, not {x!r}") from None


def _require_prime_level(p: int, level: int) -> None:
    require_odd_prime(p)
    if level < 1:
        raise ValueError("level must be a positive integer")


class DirichletCharacter:
    """A character of (Z/levelZ)^x with values omega(r)^label in mu_(p-1),
    stored as its exponents on the generators of the level."""

    def __init__(self, p: int, level: int, labels: dict, *, _reduced: bool = False):
        """The character with the residue table {unit: t}, chi = omega(t), checked
        as the module docstring says.  _reduced is for the table-file reader,
        which has checked p and level and made labels {int: t mod p}."""
        if not _reduced:
            _require_prime_level(p, level)
            try:
                labels = {operator.index(a): operator.index(t) % p for a, t in labels.items()}
            except TypeError:
                for a, t in labels.items():
                    _as_int(a, "a character table key")
                    _as_int(t, f"the character table label at {a}")
                raise
        n = level
        if 2 * len(labels) ** 2 < n:
            raise ValueError(
                f"character table is missing units {_missing_units(n, labels, 5)}"
            )
        gens = _generators(n)
        phi = math.prod(order for *_, order in gens)
        if (len(labels) != phi or min(labels) < 0 or max(labels) >= n
                or set(map(math.gcd, labels, itertools.repeat(n))) != {1}):
            units = [a for a in labels if 0 <= a < n and math.gcd(a, n) == 1]
            if len(units) < phi:
                missing = _missing_units(n, labels, min(5, phi - len(units)))
                raise ValueError(f"character table is missing units {missing}")
            unit_set = set(units)
            extra = [a for a in labels if a not in unit_set]
            raise ValueError(f"character table has non-unit keys {extra[:5]}")
        if 0 in labels.values():
            a = next(a for a, t in labels.items() if t == 0)
            raise NotAUnit(f"value label 0 at {a} is not a unit mod {p}")
        if labels[1 % n] != 1:
            raise ValueError("character does not send 1 to 1")
        # order obstruction first: chi(g)^ord(g) must be 1 in mu_(p-1)
        for _, _, g, order in gens:
            if pow(labels[g], order, p) != 1:
                raise UnsupportedOrder(
                    f"value at the generator {g} has order not dividing "
                    f"ord({g}) = {order}: no character into mu_{p - 1} takes it"
                )
        # every value lies in mu_w: one walk of it gives each residue's exponent
        w = math.lcm(*(math.gcd(order, p - 1) for *_, order in gens))
        step, x, exponent = _root_power(p, (p - 1) // w), 1, {}
        for e in range(0, p - 1, (p - 1) // w):
            exponent[x], x = e, x * step % p
        exponents = tuple(exponent[labels[g]] for _, _, g, _ in gens)
        table = _label_table(p, n, gens, exponents)
        z = next((z for z, e in table.items() if exponent.get(labels[z]) != e), None)
        if z is not None:
            pairs = ((z * pow(g, -1, n) % n, g) for _, _, g, _ in gens)
            a, g = next((a, g) for a, g in pairs if (labels[a] * labels[g] - labels[z]) % p)
            raise ValueError(
                f"character table is not multiplicative at the pair ({a}, {g})"
            )
        self._set(p, n, exponents, table)

    @classmethod
    @functools.lru_cache(maxsize=INTERNED_CHARACTERS)
    def _of(cls, p: int, level: int, exponents: tuple) -> "DirichletCharacter":
        """The character with these exponents on _generators(level), unchecked:
        one shared instance per value (module docstring)."""
        chi = cls.__new__(cls)
        chi._set(p, level, exponents)
        return chi

    def _set(self, p, level, exponents, labels=None):
        self.p = p
        self.level = level
        self.exponents = exponents
        self._gens = _generators(level)
        self._labels = labels
        self._conductor = None
        self._prim = None  # the associated primitive character, if not self
        self._twists = {}  # genbernoulli.chi_omega_minus_k's results, by -k mod p - 1

    def _exponents_at(self, level: int) -> tuple:
        """The exponent of this character at each generator of `level` that
        names one of its own generators, 0 at the others (module docstring)."""
        own = {(q, x): e for (q, x, _, _), e in zip(self._gens, self.exponents)}
        return tuple(own.get((q, x), 0) for q, x, _, _ in _generators(level))

    def _at(self, level: int) -> "DirichletCharacter":
        """The character with _exponents_at(level) at that level."""
        return DirichletCharacter._of(self.p, level, self._exponents_at(level))

    # ---------------- evaluation ----------------

    def label(self, a) -> int:
        """The exponent e, mod p - 1, with chi(a) = omega(r)^e, for a unit a."""
        a %= self.level
        if math.gcd(a, self.level) != 1:
            raise NotAUnit(f"{a} is not a unit modulo {self.level}")
        prim = self.associated_primitive()
        return prim.labels[a % prim.level]

    @property
    def labels(self) -> dict:
        """The label table {unit: e}, chi(a) = omega(r)^e with e mod p - 1,
        at the level, built on first read; treat as read-only."""
        if self._labels is None:
            self._labels = _label_table(self.p, self.level, self._gens, self.exponents)
        return self._labels

    def order(self) -> int:
        """Order of the character in the group of characters."""
        m = self.p - 1
        return math.lcm(*(m // math.gcd(e, m) for e in self.exponents))

    # ---------------- structure ----------------

    def change_level(self, m: int) -> "DirichletCharacter":
        """Extend to level m (level | m): a maps to chi(a mod level)."""
        if m < 1:
            raise ValueError("level must be a positive integer")
        if m % self.level:
            raise NotDivisible(f"{self.level} does not divide {m}")
        return self._at(m)

    def conductor(self) -> int:
        """Least divisor of the level the character factors through: the
        product of the local conductors (module docstring)."""
        if self._conductor is None:
            m = self.p - 1
            need: dict[int, int] = {}
            for (q, x, _, _), e in zip(self._gens, self.exponents):
                if e:
                    o = m // math.gcd(e, m)
                    b = 2 if x == -1 else split_p_power(q, o)[0] + (2 if q == 2 else 1)
                    need[q] = max(need.get(q, 0), b)
            self._conductor = math.prod(q**b for q, b in need.items())
        return self._conductor

    def is_primitive(self) -> bool:
        return self.conductor() == self.level

    def associated_primitive(self) -> "DirichletCharacter":
        """The unique character at the conductor extending back to this one."""
        f = self.conductor()
        if f == self.level:
            return self
        if self._prim is None:
            self._prim = self._at(f)
        return self._prim

    def __mul__(self, other: "DirichletCharacter") -> "DirichletCharacter":
        """Primitive character attached to the product at the lcm level."""
        if not isinstance(other, DirichletCharacter):
            return NotImplemented
        if self.p != other.p:
            raise ValueError("characters live over different primes")
        lev = math.lcm(self.level, other.level)
        m = self.p - 1
        exponents = tuple((x + y) % m for x, y in
                          zip(self._exponents_at(lev), other._exponents_at(lev)))
        return DirichletCharacter._of(self.p, lev, exponents).associated_primitive()

    def is_even(self) -> bool:
        """chi(-1) = 1; every character here is even or odd, never neither."""
        s = 0
        for (q, x, _, order), e in zip(self._gens, self.exponents):
            if q != 2:
                s += e * (order // 2)
            elif x == -1:
                s += e
        return s % (self.p - 1) == 0

    def parity(self) -> str:
        return "even" if self.is_even() else "odd"

    def __eq__(self, other) -> bool:
        if not isinstance(other, DirichletCharacter):
            return NotImplemented
        return (
            self.p == other.p
            and self.level == other.level
            and self.exponents == other.exponents
        )

    def __hash__(self):
        return hash((self.p, self.level, self.exponents))

    def __repr__(self):
        return (
            f"DirichletCharacter(p={self.p}, level={self.level}, "
            f"order={self.order()})"
        )

    def to_json(self) -> dict:
        """The table-file form: each value omega(r)^e as its residue r^e mod p."""
        residue = {e: _root_power(self.p, e) for e in set(self.labels.values())}
        return {
            "p": self.p,
            "modulus": self.level,
            "entries": {str(a): residue[e] for a, e in sorted(self.labels.items())},
        }


def trivial_character(p: int, level: int = 1) -> DirichletCharacter:
    _require_prime_level(p, level)
    return DirichletCharacter._of(p, level, (0,) * len(_generators(level)))


def make_teich_char(p: int) -> DirichletCharacter:
    """The Teichmuller character omega of level p (order p - 1).

    The generator of level p is congruent to r mod p, and omega sends it
    to omega(r): exponent 1.
    """
    require_odd_prime(p)
    return DirichletCharacter._of(p, p, (1,))


def char_power(chi: DirichletCharacter, k: int) -> DirichletCharacter:
    """Pointwise k-th power at the same level (k >= 0)."""
    if k < 0:
        raise ValueError("use a nonnegative exponent (orders are finite)")
    m = chi.p - 1
    return DirichletCharacter._of(chi.p, chi.level, tuple(e * k % m for e in chi.exponents))


def _refuse_repeated_keys(pairs: list) -> dict:
    """json's object_pairs_hook: the object as a dict, or ValueError naming
    a key it repeats, which json.load would otherwise drop silently."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen = set()
        key = next(k for k, _ in pairs if k in seen or seen.add(k))
        raise ValueError(f"character table file repeats the key {key!r}")
    return obj


def load_table_character(path: str) -> DirichletCharacter:
    """Load a character table file.

    Schema: { "p": int, "modulus": int, "entries": { "<a>": t_a, ... } }
    where each t_a is an integer coprime to p; the stored value at a is
    the Teichmuller lift of t_a.  A top level or entries that are not
    objects, and a p, modulus or t_a that is not an integer (a float, a
    string, null, true or false), raise ValueError, and so do an object
    that repeats a key, two keys that name one residue ("2" and " 02")
    and JSON nested past the recursion limit.  The constructor checks the
    table in one pass (module docstring), naming an offending pair (a, g).

    The file is read as UTF-8 whatever the locale, and one that is not
    UTF-8 raises ValueError.  It is read on every call.  A text of at most
    MAX_CACHED_TABLE_TEXT (2048) characters is the key under which the
    checked character is kept: the last CACHED_TABLE_TEXTS (32) such
    texts read, so a file that changes in any byte is checked again, and
    one that fails fails on every call.  One such text thus gives one
    object, and the characters derived from any table are interned
    (module docstring).  An entry takes at least six characters of JSON
    ('"a":t,'), so the kept characters hold at most 32 label tables of
    341 entries, besides their 32 texts.  A longer text is checked on
    every read and not kept: a large table read once, as by char-info,
    would otherwise hold its memory until 32 more texts are read, and
    the process would grow, a page at a time, through the calls that
    fill the cache.
    """
    with open(path, "rb") as fh:
        text = fh.read().decode()
    if len(text) > MAX_CACHED_TABLE_TEXT:
        return _table_character.__wrapped__(text)
    return _table_character(text)


@functools.lru_cache(maxsize=CACHED_TABLE_TEXTS)
def _table_character(text: str) -> DirichletCharacter:
    """The character a table file's text holds (load_table_character).

    lru_cache keeps results only, so an error is raised afresh each time.
    """
    try:
        obj = json.loads(text, object_pairs_hook=_refuse_repeated_keys)
    except RecursionError:
        raise ValueError(
            "a character table file nests JSON past Python's recursion limit") from None
    if not isinstance(obj, dict):
        raise ValueError("a character table file must hold a JSON object")
    for key in ("p", "modulus", "entries"):
        if key not in obj:
            raise ValueError(f"character table file is missing the '{key}' field")
    if not isinstance(obj["entries"], dict):
        raise ValueError("the 'entries' of a character table file must be a JSON object")
    p, modulus = (_as_int(obj[key], f"the character table's '{key}'") for key in ("p", "modulus"))
    raw = obj["entries"]
    # t % p below would read true as 1 and 4.7 as a label
    if set(map(type, raw.values())) - {int}:
        for key, t in raw.items():
            _as_int(t, f"the character table label at {int(key)}")
    _require_prime_level(p, modulus)
    # the one conversion of the file's keys and labels
    labels = {int(key): t % p for key, t in raw.items()}
    if len(labels) < len(raw):
        first: dict[int, str] = {}
        for key in raw:
            a = first.setdefault(int(key), key)
            if a != key:
                raise ValueError(
                    f"character table keys {a!r} and {key!r} name one residue {int(key)}")
    return DirichletCharacter(p, modulus, labels, _reduced=True)


def parse_character_spec(spec: str, p: int, relprec: int | None = None) -> DirichletCharacter:
    """Parse a character spec: "triv" | "omega^<k>" | "table:<path>".

    "triv" is the trivial character mod 1; "omega^k" is the k-th power of
    the Teichmuller character at level p.  change_level lifts either.
    A character is exact: relprec is never read, and is accepted because
    perfbench/reference.py passes it.  p is checked first, so a bad p is
    refused before a table file is read.
    """
    require_odd_prime(p)
    spec = spec.strip()
    if spec == "triv":
        return trivial_character(p, 1)
    if spec.startswith("omega^"):
        try:
            k = int(spec[len("omega^"):])
        except ValueError:
            raise ValueError(f"bad character spec {spec!r}: exponent must be an integer")
        if k < 0:
            raise ValueError("omega exponents must be nonnegative")
        return char_power(make_teich_char(p), k)
    if spec.startswith("table:"):
        chi = load_table_character(spec[len("table:"):])
        # outside the table cache, which one text serves whatever p is asked
        if chi.p != p:
            raise ValueError(f"table character is over p={chi.p}, expected p={p}")
        return chi
    raise ValueError(f"unrecognized character spec {spec!r}")
