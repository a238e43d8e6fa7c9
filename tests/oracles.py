"""Brute-force oracles for the fast paths in padiclf.

Each visits every unit residue at the level (every pair of units, for
the character-table check), or evaluates a formula in its textbook
form, exactly as the objects are defined, so the fast paths in the
library can be checked against them; argparse_cli_parser is the
command line as the standard library's argparse reads it.
"""

from __future__ import annotations

import argparse
import functools
import math
from fractions import Fraction
from math import comb

from padiclf.bernoulli import bernoulli_poly_eval
from padiclf.cli import (
    _cmd_bernoulli,
    _cmd_char_info,
    _cmd_genbernoulli,
    _cmd_lp_eval,
    _cmd_measure_check,
    _cmd_suite,
    _cmd_verify,
)
from padiclf.dirichlet import teichmuller_int
from padiclf.errors import (
    LevelTooLow,
    NotAUnit,
    NotCoprime,
    NotMultipleOfConductor,
    UnsupportedOrder,
)
from padiclf.genbernoulli import chi_omega_minus_k, general_bernoulli
from padiclf.lfunction import LpParams
from padiclf.measure import (
    bernoulli_distribution,
    distribution_refine_sum,
    norm_bound_constant,
)
from padiclf.modarith import crt_combine, divisors, units_of
from padiclf.padic import DEFAULT_RELPREC, PadicNum, split_p_power
from paper import asso_dirichlet_character, norm


_BPRIME = [Fraction(1)]  # B'_0, extended on demand


def bernoulli_prime(n: int) -> Fraction:
    """B'_n = (-1)^n B_n (so B'_1 = +1/2), exact and memoized, by the O(n^2)
    recurrence B'_n = 1 - sum_{k=0}^{n-1} C(n, k) * B'_k / (n - k + 1)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    while len(_BPRIME) <= n:
        m = len(_BPRIME)
        acc = Fraction(1)
        for k in range(m):
            acc -= comb(m, k) * _BPRIME[k] / (m - k + 1)
        _BPRIME.append(acc)
    return _BPRIME[n]


def _fract(x: Fraction) -> Fraction:
    return x - math.floor(x)


def bernoulli_distribution_fract(params, n: int, a: int) -> Fraction:
    """E_c(n, a) in its fractional-part form {A/D} - c {(c^(-1) A mod D)/D} + (c-1)/2."""
    p, d, c = params.p, params.d, params.c
    D = d * p**n
    A = a % D
    if D == 1:
        return Fraction(c - 1, 2)
    cinv = pow(c, -1, D)
    return (
        _fract(Fraction(A, D))
        - c * _fract(Fraction((cinv * A) % D, D))
        + Fraction(c - 1, 2)
    )


def bernoulli_distribution_div_by_c_fract(params, n: int, a: int) -> Fraction:
    """The division rival reading as written: {A/D} - c {A/(cD)} + (c-1)/2."""
    p, d, c = params.p, params.d, params.c
    D = d * p**n
    A = a % D
    return (
        _fract(Fraction(A, D))
        - c * _fract(Fraction(A, c * D))
        + Fraction(c - 1, 2)
    )


def bernoulli_distribution_over_p(params, n: int, a: int) -> Fraction:
    """E_c(n, a) / p: a compatible reading that is not bounded, since
    ||E_c(U) / p|| = p ||E_c(U)|| exceeds K wherever E_c(U) is a p-adic unit,
    unless p = 3 and c - 1 is a unit, where both are 3."""
    return bernoulli_distribution(params, n, a) / params.p


def validate_bruteforce(p: int, level: int, labels: dict) -> None:
    """Check a label table {unit a: t} mod level as a character into mu_(p-1).

    Completeness over the units, nonzero labels, 1 -> 1, then the order of
    the value at every unit, then chi(a b) = chi(a) chi(b) for every pair:
    O(phi(level)^2).  Returns None for a character table and raises as the
    library's constructor does otherwise (UnsupportedOrder may come where
    the constructor, which checks orders on generators only, raises
    ValueError).
    """
    labels = {int(a): int(t) % p for a, t in labels.items()}
    units = units_of(level)
    missing = [a for a in units if a not in labels]
    if missing:
        raise ValueError(f"character table is missing units {missing[:5]}")
    unit_set = set(units)
    extra = [a for a in labels if a not in unit_set]
    if extra:
        raise ValueError(f"character table has non-unit keys {extra[:5]}")
    for a, t in labels.items():
        if t == 0:
            raise NotAUnit(f"value label {t} at {a} is not a unit mod {p}")
    if labels[1 % level] != 1:
        raise ValueError("character does not send 1 to 1")
    for a in units:
        order, x = 1, a
        while x != 1 % level:
            x = x * a % level
            order += 1
        if pow(labels[a], order, p) != 1:
            raise UnsupportedOrder(f"value at {a} would need order not dividing {p - 1}")
    for a in units:
        for b in units:
            if (labels[a] * labels[b] - labels[a * b % level]) % p:
                raise ValueError(
                    f"character table is not multiplicative at the pair ({a}, {b})"
                )


class TableCharacter:
    """A character as its whole label table {unit a mod level: t}, every
    operation done entry by entry: the level change and the product and
    power tables over all units, the conductor as the least divisor of the
    level the table factors through, the primitive table by searching each
    class mod the conductor for a unit, the order from the values."""

    def __init__(self, p: int, level: int, labels: dict):
        self.p, self.level, self.labels = p, level, dict(labels)

    @classmethod
    def trivial(cls, p: int, level: int) -> "TableCharacter":
        return cls(p, level, dict.fromkeys(units_of(level), 1))

    def order(self) -> int:
        acc = 1
        for t in set(self.labels.values()):
            k, x = 1, t
            while x != 1:
                x = x * t % self.p
                k += 1
            acc = math.lcm(acc, k)
        return acc

    def is_even(self) -> bool:
        return self.labels[(self.level - 1) % self.level] == 1

    def change_level(self, m: int) -> "TableCharacter":
        return TableCharacter(self.p, m,
                              {a: self.labels[a % self.level] for a in units_of(m)})

    def power(self, k: int) -> "TableCharacter":
        return TableCharacter(self.p, self.level,
                              {a: pow(t, k, self.p) for a, t in self.labels.items()})

    def factors_through(self, d: int) -> bool:
        seen: dict[int, int] = {}
        return all(seen.setdefault(a % d, t) == t for a, t in self.labels.items())

    def conductor(self) -> int:
        return next(d for d in divisors(self.level) if self.factors_through(d))

    def associated_primitive(self) -> "TableCharacter":
        f = self.conductor()
        labels = {}
        for b in units_of(f):
            a = next(b + t * f for t in range(self.level // f)
                     if math.gcd(b + t * f, self.level) == 1)
            labels[b] = self.labels[a]
        return TableCharacter(self.p, f, labels)

    def __mul__(self, other: "TableCharacter") -> "TableCharacter":
        lev = math.lcm(self.level, other.level)
        labels = {a: self.labels[a % self.level] * other.labels[a % other.level] % self.p
                  for a in units_of(lev)}
        return TableCharacter(self.p, lev, labels).associated_primitive()

    def decompose_coprime(self, m: int, n: int) -> tuple:
        first = {a: self.labels[crt_combine(m, n, a, 1)] for a in units_of(m)}
        second = {b: self.labels[crt_combine(m, n, 1, b)] for b in units_of(n)}
        return TableCharacter(self.p, m, first), TableCharacter(self.p, n, second)


@functools.cache
def least_primitive_root(p: int) -> int:
    """The least r in [2, p) whose powers mod the odd prime p give every unit,
    by trial division of p - 1."""
    primes = factorize_trial(p - 1)
    return next(r for r in range(2, p) if all(pow(r, (p - 1) // q, p) != 1 for q in primes))


def residue_table(p: int, table: dict) -> dict:
    """{a: r^e mod p} for an exponent table {a: e}, r the least primitive root
    mod p: the residue t with omega(t) = omega(r)^e, as a table file holds it."""
    r = least_primitive_root(p)
    return {a: pow(r, e, p) for a, e in table.items()}


def omega_sum_per_label(p: int, nums: dict, window: int) -> int:
    """sum_e nums[e] * omega(r)^e mod p^window for integers nums[e], one
    Teichmuller lift of the residue r^e per exponent e."""
    r = least_primitive_root(p)
    return sum(n * teichmuller_int(p, pow(r, e, p), window) for e, n in nums.items()) % p**window


def principal_unit_power(p: int, lift: int, k: int, relprec: int) -> PadicNum:
    """<lift>^k = (omega^(-1)(lift) * lift)^k for an integer lift coprime to p."""
    if math.gcd(lift, p) != 1:
        raise NotCoprime(f"{lift} is not a p-adic unit for p={p}")
    P = p**relprec
    t = teichmuller_int(p, lift % p, relprec)
    base = lift * pow(t, -1, P) % P
    return PadicNum.from_unit(p, 0, pow(base, k, P), relprec)


def teichmuller_pow(p: int, a: int, relprec: int) -> int:
    """omega(a) mod p^relprec as a^(p^(relprec-1)), which stabilizes mod p^relprec."""
    return pow(a, p ** (relprec - 1), p**relprec)


def special_value_closed_form_padic(params, n: int, relprec: int | None = None) -> PadicNum:
    """(1/n)(1 - chi(c) <c>^n)(1 - chi omega^(-n)(p) p^(n-1)) B_(n, chi omega^(-n)) as
    a product of PadicNum factors, each embedded at relative precision relprec
    (params.relprec when None); the factor at p extends chi omega^(-n) by zero."""
    N = relprec if relprec is not None else params.relprec
    p, c, chi = params.p, params.c, params.chi
    psi = chi_omega_minus_k(chi, n)
    at_p = (asso_dirichlet_character(psi, p % psi.level, N)
            * PadicNum.from_rational(p, p ** (n - 1), N))
    one = PadicNum.from_unit(p, 0, 1, N)
    c_factor = one - asso_dirichlet_character(chi, c, N) * principal_unit_power(p, c, n, N)
    return (PadicNum.from_rational(p, Fraction(1, n), N) * c_factor
            * (one - at_p) * general_bernoulli(psi, n, N))


def weight_eval(p: int, k: int, a: int, relprec: int) -> PadicNum:
    """<a>^k at a unit a, the least representative of its residue mod d*p^j.

    The result lies in 1 + pZ_p, so it is 1 whenever k = 0.
    """
    return principal_unit_power(p, a, k, relprec)


def integrand_eval(params, k: int, j: int, a: int) -> PadicNum:
    """chi omega^(-1)(a) * <a>^k at a unit a mod d*p^j, j >= m, given by its
    least representative: the per-unit integrand that riemann_sum regroups
    into progressions."""
    if j < params.m:
        raise LevelTooLow(f"unit level {j} is below m={params.m}")
    if not 0 <= a < params.d * params.p**j:
        raise ValueError(f"{a} is not reduced modulo {params.d}*{params.p}^{j}")
    psi = chi_omega_minus_k(params.chi, 1)
    chi_val = asso_dirichlet_character(psi, a % psi.level, params.relprec)
    return chi_val * principal_unit_power(params.p, a, k, params.relprec)


def riemann_sum_bruteforce(params, k: int, j: int) -> PadicNum:
    """sum of chi omega^(-1)(a) <a>^k E_c(j, a) over units a mod d*p^j, mod p^relprec."""
    p, d, c, N = params.p, params.d, params.c, params.relprec
    P = p**N
    psi = chi_omega_minus_k(params.chi, 1)
    q = psi.level
    psi_label = residue_table(p, psi.labels)
    omega_of = {t: teichmuller_int(p, t, N) for t in set(psi_label.values())}
    teich_inv = {r: pow(teichmuller_int(p, r, N), -1, P) for r in range(1, p)}
    D = d * p**j
    cinv = pow(c, -1, D)
    inv2 = pow(2, -1, P)
    dp = d * p
    total = 0
    for a in range(D):
        if math.gcd(a, dp) != 1:
            continue
        chi_u = omega_of[psi_label[a % q]]
        wt_u = pow(a * teich_inv[a % p] % P, k, P)
        # E_c(j, a) = I + (c-1)/2 with I an exact integer
        big_i = (a - c * ((cinv * a) % D)) // D
        e_u = (2 * big_i + c - 1) * inv2 % P
        total = (total + chi_u * wt_u % P * e_u) % P
    return PadicNum.from_int_mod(p, total, N)


def twisted_unit_sum_bruteforce(chi, k: int, j: int, exponent: int,
                                relprec: int) -> PadicNum:
    """sum of chi omega^(-k)(a) * a^exponent over units a mod d*p^j, mod p^relprec."""
    p = chi.p
    _, d = split_p_power(p, chi.level)
    psi = chi_omega_minus_k(chi, k)
    q = psi.level
    P = p**relprec
    labels = residue_table(p, psi.labels)
    omega_of = {t: teichmuller_int(p, t, relprec) for t in set(labels.values())}
    dp = d * p
    total = 0
    for a in range(d * p**j):
        if math.gcd(a, dp) != 1:
            continue
        total += omega_of[labels[a % q]] * pow(a, exponent, P)
    return PadicNum.from_int_mod(p, total, relprec)


def measure_apply_fold(params, level: int, values, relprec: int) -> PadicNum:
    """sum of f(a) * E_c(level, a) over the table `values` of f, as a PadicNum
    fold: each E_c(a), and each rational f(a), embedded at relprec.  A
    PadicNum entry, such as a Teichmuller lift, is taken as it is."""
    p = params.p
    acc = PadicNum.exact_zero(p)
    for a, v in enumerate(values):
        if not isinstance(v, PadicNum):
            v = PadicNum.from_rational(p, v, relprec)
        if v.is_exact_zero():
            continue
        w = PadicNum.from_rational(p, bernoulli_distribution(params, level, a), relprec)
        acc = acc + v * w
    return acc


def integral_fract(params, f) -> Fraction:
    """sum of f(a) * E_c(level, a) over f's values, E_c in its fractional-part form."""
    return sum((v * bernoulli_distribution_fract(params, f.level, a)
                for a, v in enumerate(f.values)), Fraction(0))


def norm_bound_check_two_pass(params, f) -> tuple:
    """measure.norm_bound_check from integral_fract and ||f|| read in a second
    pass over the entries, with PadicNum norms."""
    p = params.p
    lhs = norm(PadicNum.from_rational(p, integral_fract(params, f)))
    rhs = norm_bound_constant(p, params.c) * max(
        norm(PadicNum.from_rational(p, v)) for v in f.values)
    return lhs, rhs, lhs <= rhs


def general_bernoulli_coeffs_fraction(chi, m: int, F: int | None = None) -> dict:
    """{t: F^(m-1) * sum of B_m(a/F) over 1 <= a <= F with label t}, nonzero only,
    evaluating the Fraction polynomial B_m at every a."""
    chi0 = chi.associated_primitive()
    f = chi0.level
    if F is None:
        F = f
    if F < 1 or F % f:
        raise NotMultipleOfConductor(f"{F} is not a positive multiple of the conductor {f}")
    coeffs: dict[int, Fraction] = {}
    for a in range(1, F + 1):
        r = a % f
        if f > 1 and math.gcd(r, f) != 1:
            continue
        t = chi0.label(r)
        coeffs[t] = coeffs.get(t, Fraction(0)) + bernoulli_poly_eval(m, Fraction(a, F))
    scale = Fraction(F) ** (m - 1)
    return {t: scale * c for t, c in coeffs.items() if c != 0}


def embed_product(p: int, total: int, N: int, den: int = 1) -> PadicNum:
    """genbernoulli._embed as a PadicNum product: total, known mod p^W with
    W = N + v_p(den), times 1/den embedded at relative precision W."""
    W = N + split_p_power(p, den)[0]
    return PadicNum.from_int_mod(p, total, W) * PadicNum.from_rational(p, Fraction(1, den), W)


def level_period(dist):
    """The table hook of measure.measure_failures for a per-residue dist that
    depends only on a mod c: level n -> the doubled values 2 dist(params, n, a)
    at a = 0 .. min(c, d*p^n) - 1."""
    def period(params, n: int) -> list:
        return [2 * dist(params, n, a) for a in range(min(params.c, params.d * params.p**n))]
    return period


def compatibility_failures_bruteforce(params, max_level: int,
                                      dist=bernoulli_distribution) -> list[tuple]:
    """measure.measure_failures(...)[0] residue by residue: dist at x against
    distribution_refine_sum over the fibre of x, for every x at every level."""
    failures = []
    for m in range(max_level + 1):
        for x in range(params.d * params.p**m):
            coarse = dist(params, m, x)
            fine = distribution_refine_sum(params, m, x, dist)
            if coarse != fine:
                failures.append((m, x, coarse, fine))
    return failures


def boundedness_failures_bruteforce(params, max_level: int,
                                    dist=bernoulli_distribution) -> list[tuple]:
    """measure.measure_failures(...)[1] residue by residue: the PadicNum norm of
    dist at every x at every level, against K."""
    K = norm_bound_constant(params.p, params.c)
    return [(m, x, size, K)
            for m in range(max_level + 1) for x in range(params.d * params.p**m)
            if (size := norm(PadicNum.from_rational(params.p, dist(params, m, x)))) > K]


def factorize_trial(n: int) -> dict[int, int]:
    """{prime: exponent} of n >= 1 by trial division by every f up to sqrt(n)."""
    out: dict[int, int] = {}
    f = 2
    while f * f <= n:
        while n % f == 0:
            out[f] = out.get(f, 0) + 1
            n //= f
        f += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def is_prime_trial(n: int) -> bool:
    """Primality by trial division up to sqrt(n): modarith.is_prime by definition."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


@functools.cache
def argparse_cli_parser() -> argparse.ArgumentParser:
    """The command line as argparse reads it, the reference for
    padiclf.cli.parse_argv: parse_args(argv) accepts the argvs that
    parse_argv accepts, with the same attributes, and exits 2 on the rest."""
    # built once per process: building costs about 15 times a parse
    # no parser reads a prefix of a flag as the flag: the top parser would
    # otherwise take a subcommand's --p, given before the subcommand, as --prec
    top = argparse.ArgumentParser(
        prog="padiclf",
        description="Exact p-adic L-values from Bernoulli-measure Riemann sums.",
        allow_abbrev=False,
    )
    top.add_argument("--prec", type=int, default=DEFAULT_RELPREC,
                     help="working relative precision")
    top.add_argument("--seed", type=int, default=0, help="seed for randomized sweeps")
    sub = top.add_subparsers(dest="command", required=True)
    add_parser = functools.partial(sub.add_parser, allow_abbrev=False)

    q = add_parser("bernoulli", help="exact Bernoulli number and polynomial")
    q.add_argument("--n", type=int, required=True)
    q.set_defaults(run=_cmd_bernoulli)

    g = add_parser("genbernoulli", help="generalized Bernoulli number")
    g.add_argument("--p", type=int, required=True)
    g.add_argument("--char", required=True, help='"triv" | "omega^<k>" | "table:<path>"')
    g.add_argument("--n", type=int, required=True)
    g.set_defaults(run=_cmd_genbernoulli)

    ci = add_parser("char-info", help="level, conductor, parity of a character")
    ci.add_argument("--p", type=int, required=True)
    ci.add_argument("--char", required=True)
    ci.set_defaults(run=_cmd_char_info)

    mc = add_parser("measure-check", help="distribution and boundedness sweeps")
    mc.add_argument("--p", type=int, required=True)
    mc.add_argument("--d", type=int, required=True)
    mc.add_argument("--c", type=int, required=True)
    mc.add_argument("--max-level", type=int, default=3)
    mc.set_defaults(run=_cmd_measure_check)

    for name, weight, help_, run in (
            ("lp-eval", "--weight-k", "evaluate the p-adic L-function at a weight", _cmd_lp_eval),
            ("verify", "--n", "check interpolation at a negative integer", _cmd_verify)):
        lp = add_parser(name, help=help_)
        for flag in ("--p", "--d", "--m", "--c", weight):
            lp.add_argument(flag, type=int, required=True)
        lp.add_argument("--jmax", type=int, default=LpParams.j_max)
        lp.add_argument("--jmin", type=int, default=LpParams.j_min)
        lp.add_argument("--target", type=int, default=LpParams.target_valuation)
        lp.add_argument("--char", required=True)
        # writes the global --prec when given
        lp.add_argument("--prec", type=int, default=argparse.SUPPRESS,
                        help="override the global precision")
        lp.set_defaults(run=run)

    st = add_parser("suite", help="run the bundled verification suite")
    st.add_argument("--profile", choices=("fast", "full"), default="fast")
    st.set_defaults(run=_cmd_suite)
    return top
