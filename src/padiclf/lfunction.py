"""The p-adic L-function as a Riemann-sum integral against the Bernoulli measure.

For an even character chi of level dividing d*p^m (m >= 1, d dividing
the conductor), read through its primitive character, the integrand over
the unit space is chi omega^(-1)(a) times the integer-power weight <a>^k,
where <a> = omega^(-1)(a) * a is the principal-unit part of a.  The level-j Riemann sum is

    S_j = sum over units a mod d*p^j of integrand(a) * E_c(j, a)

and the L-value is their limit as j grows.  Each S_j is computed
without visiting the d*p^j units, by the one progression-sum kernel
genbernoulli._unit_sum that the twisted unit sums also use.  As
<a>^k = omega(a)^(-k) a^k, the summand is psi(a) a^k E_c(j, a) with
psi = chi omega^(-(k+1)).  Put D = d*p^j and L = lcm(cond psi, dp),
which divides D.  Take E_c in the carry form of the padiclf.measure
docstring, through b = c^(-1) a mod D and its carry t; psi(a) depends
only on c b mod L.  So b runs over r + L s (r a unit mod L,
0 <= s < D/L); on each run of s with one value of t the summand is a
degree-k polynomial in s, summed in closed form by Faulhaber's formula
(bernoulli.ProgressionPowerSum).  One sum costs
O(phi(L) * min(c, D/L) * k) integer operations, independent of j.  This
is the regrouping behind Washington, Introduction to Cyclotomic Fields,
section 5.2 and Theorem 5.11.

Certified precision: on a level-j clopen a + d p^j Z_p with j >= m the
factor psi is constant and <x>^k = <a>^k mod p^j, while E_c is
p-integral on every clopen, so S_j agrees with the L-value mod p^j
(Washington, ch. 12).  p_adic_L therefore computes a single sum S_J,
with J = relprec clamped into [max(j_min, m), j_max], and returns it at
absolute precision min(relprec, J): every digit it claims is proved.

The interpolation property at negative integers is checked against the
closed form

    (1/n) * (1 - chi(c) <c>^n) * (1 - chi omega^(-n)(p) p^(n-1))
         * B_(n, chi omega^(-n))

computed as one exact label sum, embedded once; the weight on the
integral side is <a>^(n-1) while the absorbed c-factor uses exponent n,
an off-by-one that is mirrored deliberately.  Because sign conventions
for the measure differ across the classical literature, the verifier
measures both nu(L - R) and nu(L + R), accepts exactly one of them, and
the bundled suite insists on a single sign across all cases.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .dirichlet import DirichletCharacter, parse_character_spec
from .errors import InsufficientPrecision, LevelTooLow
from .genbernoulli import (_embed, _embed_label_sum, _euler_label_sum, _times_one_minus,
                           _unit_sum, chi_omega_minus_k)
from .measure import BernoulliParams
from .padic import DEFAULT_RELPREC, PadicNum, split_p_power

__all__ = [
    "Weight",
    "LpParams",
    "EvalReport",
    "VerifyReport",
    "riemann_sum",
    "p_adic_L",
    "special_value_closed_form",
    "verify_interpolation",
]


@dataclass(frozen=True)
class Weight:
    """The weight a -> <a>^k on p-adic units (trivial on the tame part)."""

    k: int

    def __post_init__(self):
        if self.k < 0:
            raise ValueError("weight exponent must be >= 0")


@dataclass
class LpParams:
    """Everything an L-value evaluation needs, validated up front.

    The checks run cheapest first, so a bad call is refused before any
    power of p is built or any table file read: (p, d, c) as
    measure.BernoulliParams checks them; m >= 1; j_max >= m; then chi,
    given as a character or as a spec string that
    dirichlet.parse_character_spec reads only now: chi over p; its level
    dividing d*p^m, read through split_p_power; chi even; d dividing its
    conductor.
    chi is never lifted to d*p^m: every sum and the closed form read it
    through chi_omega_minus_k and label, which go to its primitive
    character, so any level dividing d*p^m gives the same values.
    """

    p: int
    d: int
    c: int
    m: int
    chi: DirichletCharacter | str
    relprec: int = DEFAULT_RELPREC
    j_min: int = 1
    j_max: int = 7
    target_valuation: int = 4

    def __post_init__(self):
        BernoulliParams(self.p, self.d, self.c)
        if self.m < 1:
            raise ValueError("m must be >= 1")
        if self.j_max < self.m:
            raise ValueError(f"j_max={self.j_max} is below the character level m={self.m}")
        if isinstance(self.chi, str):
            self.chi = parse_character_spec(self.chi, self.p)
        if self.chi.p != self.p:
            raise ValueError("character lives over a different prime")
        v, tame = split_p_power(self.p, self.chi.level)
        if v > self.m or self.d % tame:
            raise ValueError(f"character level {self.chi.level} does not divide "
                             f"d*p^m = {self.d}*{self.p}^{self.m}")
        if not self.chi.is_even():
            raise ValueError("chi must be even")
        if self.chi.conductor() % self.d:
            raise ValueError("d must divide the conductor of chi")


@dataclass
class EvalReport:
    """An L-value S_J at its certified precision; converged when that
    precision reaches the target valuation."""

    value: PadicNum
    level_used: int
    converged: bool

    def to_json(self) -> dict:
        return {
            "value": self.value.to_json(),
            "level_used": self.level_used,
            "converged": self.converged,
        }


@dataclass
class VerifyReport:
    """Outcome of one interpolation check at a negative integer.

    valuation_of_difference is the valuation of the winning difference
    L -+ R, or None when it is the exact zero; valuation_is_exact is False
    when the difference vanished at the working precision, so that the
    valuation is only a lower bound.
    """

    lhs: PadicNum
    rhs: PadicNum
    sign: str | None
    valuation_of_difference: int | None
    passed: bool
    valuation_is_exact: bool | None = None
    converged: bool = True
    level_used: int | None = None
    valuation_minus: int | None = field(default=None, repr=False)
    valuation_plus: int | None = field(default=None, repr=False)

    def to_json(self) -> dict:
        return {
            "lhs": self.lhs.to_json(),
            "rhs": self.rhs.to_json(),
            "sign": self.sign,
            "valuation_of_difference": self.valuation_of_difference,
            "valuation_is_exact": self.valuation_is_exact,
            "pass": self.passed,
        }


def riemann_sum(params: LpParams, w: Weight, j: int, relprec: int | None = None) -> PadicNum:
    """The level-j sum of chi omega^(-1)(a) <a>^k E_c(j, a) over units a mod D = d*p^j.

    Every term is p-integral (E_c lands in Z + (c-1)/2 and the integrand
    is a unit times a root of unity), so the sum is accumulated as a
    single integer mod p^relprec, params.relprec when relprec is None; the
    result is exact at that absolute precision.

    As <a>^k = omega(a)^(-k) a^k, the sum is half the kernel sum
    genbernoulli._unit_sum with psi = chi omega^(-(k+1)) and w = 2 E_c,
    regrouped by the carry t of E_c (module docstring).
    Cost: O(phi(L) * min(c, D/L) * k) integer operations, independent of j.
    """
    if j < params.m:
        raise LevelTooLow(f"integration level {j} is below the character level {params.m}")
    c, k = params.c, w.k
    N = params.relprec if relprec is None else relprec
    # 2 E_c at the carry t is c - 1 - 2t
    total = _unit_sum(chi_omega_minus_k(params.chi, k + 1), params.d, j, k, N,
                      range(c - 1, -c - 1, -2))
    return _embed(params.p, total, N, 2)


def p_adic_L(params: LpParams, w: Weight) -> EvalReport:
    """The L-value as the single Riemann sum S_J, certified mod p^min(relprec, J).

    S_J agrees with the L-value mod p^J for every J >= m (module
    docstring), so J is relprec clamped into [max(j_min, m), j_max]: the
    lowest level certified to all relprec tracked digits, within the
    allowed range.  S_J is summed mod p^min(relprec, J) alone, as the
    digits past J are not certified.  The report is converged when the
    certified precision min(relprec, J) reaches target_valuation.
    """
    if params.relprec < params.target_valuation:
        raise InsufficientPrecision(
            f"relprec={params.relprec} cannot certify valuation {params.target_valuation}"
        )
    start = max(params.j_min, params.m)
    if start > params.j_max:
        raise ValueError(f"empty level range: start {start} > j_max {params.j_max}")
    J = min(max(params.relprec, start), params.j_max)
    digits = min(params.relprec, J)
    return EvalReport(value=riemann_sum(params, w, J, digits),
                      level_used=J, converged=digits >= params.target_valuation)


def special_value_closed_form(params: LpParams, n: int,
                              relprec: int | None = None) -> PadicNum:
    """The closed-form target at the weight-(n-1) evaluation, n >= 1:

    R = (1/n)(1 - chi(c) <c>^n)(1 - chi omega^(-n)(p) p^(n-1)) B_(n, chi omega^(-n)),

    one exact label sum embedded at relprec absolute digits (params.relprec when
    None); chi(c) <c>^n = c^n omega(s); the factor at p is 1 if p | cond chi omega^(-n).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    N = relprec if relprec is not None else params.relprec
    p, c, chi = params.p, params.c, params.chi
    s = chi.label(c) * pow(c, -n, p) % p
    nums, den = _euler_label_sum(chi_omega_minus_k(chi, n), n)
    return _embed_label_sum(p, _times_one_minus(p, nums, c**n, s), n * den, N)


def _certified_valuation(diff: PadicNum, threshold: int):
    """(valuation lower bound, certified >= threshold) for a difference."""
    if diff.is_exact_zero():
        return None, True
    v = diff.valuation()
    return v, v >= threshold


def verify_interpolation(params: LpParams, n: int) -> VerifyReport:
    """Compare the integral at weight n-1 with the closed form at n (n >= 2).

    Exactly one of L - R, L + R must reach params.target_valuation; the
    winning sign is reported so a caller can pin it across a whole suite.
    A non-converged integral propagates as a failed report.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    report = p_adic_L(params, Weight(n - 1))
    rhs = special_value_closed_form(params, n)
    if not report.converged:
        return VerifyReport(
            lhs=report.value, rhs=rhs, sign=None, valuation_of_difference=None,
            passed=False, converged=False, level_used=report.level_used,
        )
    lhs = report.value
    minus, plus = lhs - rhs, lhs + rhs
    v_minus, ok_minus = _certified_valuation(minus, params.target_valuation)
    v_plus, ok_plus = _certified_valuation(plus, params.target_valuation)
    if ok_minus == ok_plus:
        sign, vdiff, exact = None, None, None
    elif ok_minus:
        sign, vdiff, exact = "+", v_minus, minus.valuation_is_exact
    else:
        sign, vdiff, exact = "-", v_plus, plus.valuation_is_exact
    return VerifyReport(
        lhs=lhs, rhs=rhs, sign=sign, valuation_of_difference=vdiff,
        passed=sign is not None, valuation_is_exact=exact,
        converged=True, level_used=report.level_used,
        valuation_minus=v_minus, valuation_plus=v_plus,
    )
