"""The bundled verification suite.

Each criterion is a self-contained check returning a pass flag plus a
detail dict; the CLI `suite` subcommand and the acceptance test module
both run the same functions.  Profiles: "fast" finishes in seconds,
"full" adds the convergence and interpolation sweeps.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .bernoulli import (
    bernoulli,
    bernoulli_poly,
    bernoulli_poly_eval,
)
from .dirichlet import (
    DirichletCharacter,
    char_power,
    make_teich_char,
    teichmuller_int,
    trivial_character,
)
from .errors import LevelOrder, NotDivisible
from .genbernoulli import (
    general_bernoulli_coeffs,
    general_bernoulli_exact,
    twisted_mean_limit,
    twisted_mean_truncation,
    unit_power_sum,
)
from .lfunction import LpParams, Weight, riemann_sum, verify_interpolation
from .measure import (
    BernoulliParams,
    CylinderFunction,
    compatibility_failures,
    div_by_c_table,
    measure_apply,
    norm_bound_check,
)
from .modarith import divisors, units_of
from .padic import DEFAULT_RELPREC, PadicNum, eq_mod, rational_valuation, split_p_power

__all__ = ["Criterion", "CriterionResult", "ALL_CRITERIA", "run_profile",
           "conductor_bruteforce", "factors_through", "random_cylinder"]


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: dict

    def to_json(self) -> dict:
        return {
            "criterion": self.number,
            "name": self.name,
            "pass": self.passed,
            "detail": self.detail,
        }


@dataclass(frozen=True)
class Criterion:
    number: int
    name: str
    profiles: frozenset
    fn: object

    def run(self, seed: int = 0) -> CriterionResult:
        passed, detail = self.fn(seed)
        return CriterionResult(self.number, self.name, passed, detail)


# ---------------------------------------------------------------- criterion 1

def _c1_bernoulli_identities(seed):
    failures = []
    for n in range(21):
        # (n+1) X^n = sum_(k<=n) C(n+1,k) B_k(X), coefficient by coefficient
        lhs = [0] * n + [n + 1]
        rhs = [sum(comb(n + 1, k) * bernoulli_poly(k)[i] for k in range(i, n + 1))
               for i in range(n + 1)]
        if lhs != rhs:
            failures.append(("power-sum identity", n))
    for q in range(9):
        for M in (1, 2, 7, 25, 50):
            direct = sum(Fraction(k) ** q for k in range(M))
            closed = (bernoulli_poly_eval(q + 1, M) - bernoulli_poly_eval(q + 1, 0)) / (q + 1)
            if direct != closed:
                failures.append(("faulhaber", q, M))
    return not failures, {"checked": "n<=20 and q<=8, M<=50", "failures": failures}


# ---------------------------------------------------------------- criterion 2

def _c2_teichmuller(seed):
    failures = []
    N = 8
    for p in (3, 5, 7, 11):
        mod = p**N
        for a in range(1, p):
            w = teichmuller_int(p, a, N)
            if w % p != a:
                failures.append((p, a, "not congruent to a mod p"))
            if pow(w, p - 1, mod) != 1:
                failures.append((p, a, "not a (p-1)-st root of unity"))
        if teichmuller_int(p, p - 1, N) != mod - 1:
            failures.append((p, "omega(-1) != -1"))
    return not failures, {"primes": [3, 5, 7, 11], "precision": N, "failures": failures}


# ---------------------------------------------------------------- criterion 3

def factors_through(chi: DirichletCharacter, d: int) -> bool:
    """True iff chi's label table at its level depends on the argument mod d
    only (d | level)."""
    if chi.level % d:
        raise NotDivisible(f"{d} does not divide {chi.level}")
    seen: dict[int, int] = {}
    for a, t in chi.labels.items():
        if seen.setdefault(a % d, t) != t:
            return False
    return True


def conductor_bruteforce(chi: DirichletCharacter) -> int:
    """Oracle: least divisor of the level at which a restriction can be
    constructed by unit-class constancy of the label table and verified
    to extend back."""
    table = chi.labels
    for dd in divisors(chi.level):
        labels = {}
        ok = True
        for u in units_of(dd):
            seen = {table[a] for a in range(chi.level)
                    if a % dd == u and math.gcd(a, chi.level) == 1}
            if len(seen) != 1:
                ok = False
                break
            labels[u] = seen.pop()
        if ok:
            cand = DirichletCharacter(chi.p, dd, labels)
            if cand.change_level(chi.level) == chi:
                return dd
    raise AssertionError("a character always factors through its own level")


def _c3_character_set() -> list[DirichletCharacter]:
    chars = []
    for p in (3, 5, 7, 11):
        omega = make_teich_char(p)
        for k in range(p - 1):
            chi = char_power(omega, k)
            chars.append(chi)
            for mult in (2, 3, 4, 6):
                if chi.level * mult <= 100:
                    chars.append(chi.change_level(chi.level * mult))
    quad3 = DirichletCharacter(5, 3, {1: 1, 2: 4})
    quad4 = DirichletCharacter(5, 4, {1: 1, 3: 4})
    quad8 = DirichletCharacter(5, 8, {1: 1, 3: 4, 5: 4, 7: 1})
    for chi in (quad3, quad4, quad8):
        chars.append(chi)
        for mult in (2, 3, 7):
            if chi.level * mult <= 100:
                chars.append(chi.change_level(chi.level * mult))
    chars.append(trivial_character(5, 1))
    chars.append(trivial_character(5, 60))
    return chars


def _c3_conductors(seed):
    failures = []
    chars = _c3_character_set()
    for chi in chars:
        f = chi.conductor()
        if f != conductor_bruteforce(chi):
            failures.append((repr(chi), "scan vs brute force"))
        if not factors_through(chi, f):
            failures.append((repr(chi), "conductor not achieved"))
        for dd in divisors(chi.level):
            if dd < f and factors_through(chi, dd):
                failures.append((repr(chi), f"factors through {dd} < conductor"))
        prim = chi.associated_primitive()
        if not prim.is_primitive() or prim.change_level(chi.level) != chi:
            failures.append((repr(chi), "primitive round trip"))
        for t in (2, 3, 5, 8):
            m = chi.level * t
            if m <= 200 and chi.change_level(m).conductor() != f:
                failures.append((repr(chi), f"level change to {m} moved the conductor"))
    return not failures, {"characters": len(chars), "failures": failures}


# ---------------------------------------------------------------- criterion 4

def _c4_generalized_bernoulli(seed):
    failures = []
    quad3 = DirichletCharacter(5, 3, {1: 1, 2: 4})
    test_set = [trivial_character(5, 1), quad3,
                DirichletCharacter(5, 4, {1: 1, 3: 4})]
    omega = make_teich_char(5)
    test_set += [char_power(omega, k) for k in range(4)]
    for chi in test_set:
        f = chi.conductor()
        for m in range(7):
            base = general_bernoulli_coeffs(chi, m, f)
            for t in (2, 3):
                if general_bernoulli_coeffs(chi, m, t * f) != base:
                    failures.append((repr(chi), m, t, "F-dependence"))
    b1 = general_bernoulli_exact(quad3, 1)
    if b1 != Fraction(-1, 3):
        failures.append(("B_1 of the quadratic character mod 3", str(b1)))
    return not failures, {"failures": failures}


# ---------------------------------------------------------------- criterion 5

def _c5_distribution_compatibility(seed):
    failures = []
    variant_failed_on = []
    for p in (3, 5, 7):
        for d in (1, 2, 4):
            if math.gcd(d, p) != 1:
                continue
            for c in (2, 3, 7):
                if math.gcd(c, d * p) != 1:
                    continue
                params = BernoulliParams(p, d, c)
                failures += [(p, d, c, m, x)
                             for m, x, _, _ in compatibility_failures(params, 3)]
                variant = compatibility_failures(params, 3, div_by_c_table)
                variant_failed_on += [(p, d, c, m, x) for m, x, _, _ in variant]
    diagnostic_ok = bool(variant_failed_on)
    return (not failures) and diagnostic_ok, {
        "failures": failures,
        "division_variant_counterexamples": variant_failed_on[:3],
    }


# ---------------------------------------------------------------- criterion 6

# random_cylinder's draws: num in [-999, 999] and den in [1, 60]
_NUM_LOW, _NUM_COUNT = -999, 1999
_DEN_LOW, _DEN_COUNT = 1, 60
_NUM_BITS, _DEN_BITS = _NUM_COUNT.bit_length(), _DEN_COUNT.bit_length()


@functools.lru_cache(maxsize=16)
def _draw_tables(p: int, relprec: int) -> tuple:
    """random_cylinder's per-call constants: (nums, dens, zero, p^relprec).

    nums and dens hold the draws by their raw bits: (v_p(num), num / p^v) for
    each num, None for num = 0, and (v_p(den), (den / p^v)^(-1) mod p^relprec)
    for each den.  zero is the exact zero's state."""
    mod = p**relprec
    nums = tuple(split_p_power(p, n) if n else None
                 for n in range(_NUM_LOW, _NUM_LOW + _NUM_COUNT))
    dens = tuple((v, pow(u, -1, mod))
                 for v, u in (split_p_power(p, n) for n in range(_DEN_LOW, _DEN_LOW + _DEN_COUNT)))
    return nums, dens, PadicNum.exact_zero(p).state(), mod


def random_cylinder(rng, p, d, level, relprec=DEFAULT_RELPREC) -> CylinderFunction:
    """A table at `level`: an exact zero with probability 1/10, otherwise the
    rational num/den with num in [-999, 999] and den in [1, 60] at relprec.

    Each entry draws rng.random() and, unless that makes it zero, num and
    then den, each by rejection sampling on rng.getrandbits(k) with k the
    bit length of the range's size.  That is how random.Random.randrange
    draws, so the entries and the rng state after them are those of
    rng.randrange(-999, 1000) and rng.randrange(1, 61).  The entry is
    p^(v_p(num) - v_p(den)) times the unit num'/den' mod p^relprec of the
    p-free parts; reducing num/den by their gcd first would change neither.
    Entries are appended as their PadicNum states (p, v, unit, relprec), with
    the unit reduced and checked as PadicNum.from_unit does, and no PadicNum
    is built.  A negative level is refused with LevelOrder.
    """
    if relprec < 1:
        raise ValueError("relative precision must be >= 1")
    if level < 0:
        raise LevelOrder(f"level must be >= 0, got {level}")
    nums, dens, zero, mod = _draw_tables(p, relprec)
    uniform, getrandbits = rng.random, rng.getrandbits
    states = []
    for _ in range(d * p**level):
        if uniform() < 0.1:
            states.append(zero)
            continue
        i = getrandbits(_NUM_BITS)
        while i >= _NUM_COUNT:
            i = getrandbits(_NUM_BITS)
        j = getrandbits(_DEN_BITS)
        while j >= _DEN_COUNT:
            j = getrandbits(_DEN_BITS)
        num = nums[i]
        if num is None:
            states.append(zero)
            continue
        vd, den_inv = dens[j]
        unit = num[1] * den_inv % mod
        if unit % p == 0:
            raise ValueError(f"{unit} is not a unit modulo {p}")
        states.append((p, num[0] - vd, unit, relprec))
    return CylinderFunction._of(d, p, level, tuple(states))


def _c6_boundedness(seed):
    rng = random.Random(seed)
    failures = []
    for p, d, c, max_level in ((3, 1, 2, 3), (5, 2, 3, 3), (7, 4, 3, 2)):
        params = BernoulliParams(p, d, c)
        for _ in range(200):
            f = random_cylinder(rng, p, d, rng.randint(0, max_level))
            lhs, rhs, ok = norm_bound_check(params, f)
            if not ok:
                failures.append((p, d, c, f.level, str(lhs), str(rhs)))
    return not failures, {"samples_per_set": 200, "failures": failures}


# ---------------------------------------------------------------- criterion 7

def _tracked_equal(x: PadicNum, y: PadicNum) -> bool:
    """Equal at every commonly tracked digit, with matching valuations."""
    common = min(x.abs_precision, y.abs_precision)
    if common == math.inf:
        return x.is_exact_zero() and y.is_exact_zero()
    if not eq_mod(x, y, common):
        return False
    if x.is_nonzero() and y.is_nonzero():
        return x.valuation() == y.valuation()
    return True


def _c7_locally_constant_integration(seed):
    rng = random.Random(seed)
    failures = []
    params = BernoulliParams(5, 1, 2)
    for i in range(50):
        f = random_cylinder(rng, 5, 1, rng.randint(0, 3))
        base = measure_apply(params, f)
        for extra in (1, 2):
            refined = measure_apply(params, f.refine_level(f.level + extra))
            if not _tracked_equal(base, refined):
                failures.append(("cylinder", i, extra))
    chi = char_power(make_teich_char(5), 2)
    lp = LpParams(p=5, d=1, c=2, m=1, chi=chi, relprec=8, j_max=4)
    sums = [riemann_sum(lp, Weight(0), j) for j in range(1, 5)]
    if any(s != sums[0] for s in sums[1:]):
        failures.append(("level-1 integrand sums not constant",
                         [repr(s) for s in sums]))
    return not failures, {"cylinders": 50, "failures": failures}


# ---------------------------------------------------------------- criterion 8

def _increasing(vals) -> bool:
    return all(b >= a for a, b in zip(vals, vals[1:]))


def _c8_twisted_mean_convergence(seed):
    failures = []
    detail = {}
    chi = char_power(make_teich_char(5), 2)
    for k in (2, 4):
        target = twisted_mean_limit(chi, k, 18)
        vals = []
        for j in range(2, 6):
            diff = twisted_mean_truncation(chi, k, j, 18) - target
            vals.append(diff.valuation())
        detail[f"k={k}"] = vals
        if vals[0] < 1 or not _increasing(vals):
            failures.append((k, vals))
    return not failures, {"valuations": detail, "failures": failures}


# ---------------------------------------------------------------- criterion 9

def _c9_unit_sum_decay(seed):
    failures = []
    detail = {}
    chi = char_power(make_teich_char(5), 2)
    for k in (2, 4):
        vals = [unit_power_sum(chi, k, j, 18).valuation() for j in range(2, 6)]
        detail[f"k={k}"] = vals
        if not _increasing(vals):
            failures.append((k, vals))
    return not failures, {"valuations": detail, "failures": failures}


# --------------------------------------------------------------- criterion 10

def _c10_interpolation(seed):
    results = []
    chi5 = char_power(make_teich_char(5), 2)
    for c in (2, 3):
        for n in (2, 4):
            params = LpParams(p=5, d=1, c=c, m=1, chi=chi5, relprec=12,
                              j_min=1, j_max=7, target_valuation=4)
            rep = verify_interpolation(params, n)
            results.append(("p=5", c, n, rep))
    chi3 = char_power(make_teich_char(3), 0)
    for n in (2, 4):
        params = LpParams(p=3, d=1, c=2, m=1, chi=chi3, relprec=12,
                          j_min=1, j_max=9, target_valuation=4)
        rep = verify_interpolation(params, n)
        results.append(("p=3", 2, n, rep))
    signs = {rep.sign for _, _, _, rep in results}
    all_passed = all(rep.passed for _, _, _, rep in results)
    one_sign = len(signs) == 1 and None not in signs
    detail = {
        "cases": [
            {
                "grid": grid,
                "c": c,
                "n": n,
                "sign": rep.sign,
                "valuation_of_difference": rep.valuation_of_difference,
                "valuation_is_exact": rep.valuation_is_exact,
                "level_used": rep.level_used,
                "converged": rep.converged,
            }
            for grid, c, n, rep in results
        ],
        "global_sign": signs.pop() if one_sign else None,
    }
    return all_passed and one_sign, detail


# --------------------------------------------------------------- criterion 11

def _c11_kummer_congruence(seed):
    p = 5
    vals = {}
    for n in (2, 6):
        vals[n] = (1 - Fraction(p) ** (n - 1)) * bernoulli(n) / n
    diff = vals[2] - vals[6]
    ok = rational_valuation(p, diff) >= 1
    return ok, {"values": {n: str(v) for n, v in vals.items()},
                "difference": str(diff)}


ALL_CRITERIA = [
    Criterion(1, "bernoulli-identities", frozenset({"fast", "full"}), _c1_bernoulli_identities),
    Criterion(2, "teichmuller-lifts", frozenset({"fast", "full"}), _c2_teichmuller),
    Criterion(3, "conductor-machinery", frozenset({"fast", "full"}), _c3_conductors),
    Criterion(4, "generalized-bernoulli", frozenset({"fast", "full"}), _c4_generalized_bernoulli),
    Criterion(5, "distribution-compatibility", frozenset({"fast", "full"}), _c5_distribution_compatibility),
    Criterion(6, "measure-boundedness", frozenset({"fast", "full"}), _c6_boundedness),
    Criterion(7, "locally-constant-integration", frozenset({"full"}), _c7_locally_constant_integration),
    Criterion(8, "twisted-mean-convergence", frozenset({"full"}), _c8_twisted_mean_convergence),
    Criterion(9, "unit-sum-decay", frozenset({"full"}), _c9_unit_sum_decay),
    Criterion(10, "interpolation-theorem", frozenset({"full"}), _c10_interpolation),
    Criterion(11, "kummer-congruence", frozenset({"fast", "full"}), _c11_kummer_congruence),
]


def run_profile(profile: str, seed: int = 0) -> list[CriterionResult]:
    if profile not in ("fast", "full"):
        raise ValueError(f"unknown profile {profile!r}")
    return [c.run(seed) for c in ALL_CRITERIA if profile in c.profiles]
