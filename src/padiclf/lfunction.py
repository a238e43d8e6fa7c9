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
docstring: a = c b - D t with b = c^(-1) a mod D, and the carry t
depends only on a mod c.  So on each class of a mod c L, a progression
of step c L, both psi(a) and E_c(j, a) are constant, and the sum of a^k
over it is summed in closed form by Faulhaber's formula, from the
integer form of B_(k+1)(X).  These class sums, totalled per unit
mod L, do not depend on psi: they are the residue pass, kept per
(p, d, c, j, k, relprec), and psi is a projection of it.  One pass costs
O(phi(L) * min(c, D/L + 1) * k) integer operations, independent of j,
and each further character at that level O(phi(L)).  This is the
regrouping behind Washington, Introduction to Cyclotomic Fields,
section 5.2 and Theorem 5.11.

Certified precision: on a level-j clopen a + d p^j Z_p with j >= m the
factor psi is constant and <x>^k = <a>^k mod p^j, while E_c is
p-integral on every clopen, so S_j agrees with the L-value mod p^j
(Washington, ch. 12).  A call therefore certifies LpParams.digits =
min(relprec, j_max) digits, known from its arguments alone: p_adic_L
refuses a call whose digits fall short of target_valuation before any
sum, and otherwise computes the single sum S_J at J = max(digits, j_min,
m), mod p^digits.  Every digit it claims is proved.

The interpolation property at negative integers is checked against the
closed form

    (1/n) * (1 - chi(c) <c>^n) * (1 - chi omega^(-n)(p) p^(n-1))
         * B_(n, chi omega^(-n))

computed as one exact label sum, embedded once; the weight on the
integral side is <a>^(n-1) while the absorbed c-factor uses exponent n,
an off-by-one that is mirrored deliberately.  Because sign conventions
for the measure differ across the classical literature, the verifier
measures both nu(L - R) and nu(L + R), accepts exactly one of them (or
both where L and R vanish to the target), and the bundled suite insists
on a single decided sign across all cases.
"""

from __future__ import annotations

from dataclasses import dataclass

from .dirichlet import DirichletCharacter, parse_character_spec
from .errors import InsufficientPrecision, LevelTooLow
from .genbernoulli import (_embed, _embed_label_sum, _euler_label_sum, _times_one_minus,
                           _unit_sum, chi_omega_minus_k)
from .measure import BernoulliParams
from .padic import DEFAULT_RELPREC, PadicNum, split_p_power

__all__ = [
    "LpParams",
    "EvalReport",
    "VerifyReport",
    "riemann_sum",
    "p_adic_L",
    "special_value_closed_form",
    "verify_interpolation",
]


@dataclass
class LpParams:
    """Everything an L-value evaluation needs, validated up front.

    The checks run cheapest first, so a bad call is refused before any
    power of p is built or any table file read: (p, d, c) as
    measure.BernoulliParams checks them; m >= 1; a level range
    [max(j_min, m), j_max] that is not empty; then chi,
    given as a character or as a spec string that
    dirichlet.parse_character_spec reads only now: chi over p; its level
    dividing d*p^m, read through split_p_power; d dividing its conductor.
    chi may be even or odd; p_adic_L answers an odd chi with the exact zero.
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
        if self.j_max < max(self.j_min, self.m):
            raise ValueError(f"j_max={self.j_max} is below max(j_min={self.j_min}, m={self.m})")
        if isinstance(self.chi, str):
            self.chi = parse_character_spec(self.chi, self.p)
        if self.chi.p != self.p:
            raise ValueError("character lives over a different prime")
        v, tame = split_p_power(self.p, self.chi.level)
        if v > self.m or self.d % tame:
            raise ValueError(f"character level {self.chi.level} does not divide "
                             f"d*p^m = {self.d}*{self.p}^{self.m}")
        if self.chi.conductor() % self.d:
            raise ValueError("d must divide the conductor of chi")

    @property
    def digits(self) -> int:
        """The digits an L-value is certified to: min(relprec, j_max)."""
        return min(self.relprec, self.j_max)


@dataclass
class EvalReport:
    """An L-value: the sum S_J at J = level_used, mod p^digits."""

    value: PadicNum
    level_used: int

    def to_json(self) -> dict:
        return {"value": self.value.to_json(), "level_used": self.level_used}


@dataclass
class VerifyReport:
    """Outcome of one interpolation check at a negative integer.

    sign is "+", "-", "both" where no sign wins but both differences reach
    the target, or None where the check fails.  valuation_of_difference is
    the valuation of the winning difference L -+ R, or None when it is the
    exact zero or no sign wins; valuation_is_exact is False when the
    difference vanished at the working precision, so that the valuation is
    only a lower bound.
    """

    lhs: PadicNum
    rhs: PadicNum
    sign: str | None
    valuation_of_difference: int | None
    passed: bool
    valuation_is_exact: bool | None
    level_used: int

    def to_json(self) -> dict:
        return {
            "lhs": self.lhs.to_json(),
            "rhs": self.rhs.to_json(),
            "sign": self.sign,
            "valuation_of_difference": self.valuation_of_difference,
            "valuation_is_exact": self.valuation_is_exact,
            "pass": self.passed,
        }


def riemann_sum(params: LpParams, k: int, j: int, relprec: int | None = None) -> PadicNum:
    """The level-j sum of chi omega^(-1)(a) <a>^k E_c(j, a) over units a mod D = d*p^j.

    Every term is p-integral (E_c lands in Z + (c-1)/2 and the integrand
    is a unit times a root of unity), so the sum is accumulated as a
    single integer mod p^relprec, params.relprec when relprec is None; the
    result is exact at that absolute precision.

    As <a>^k = omega(a)^(-k) a^k, the sum is half the kernel sum
    genbernoulli._unit_sum with psi = chi omega^(-(k+1)) and w = 2 E_c,
    regrouped by the carry t of E_c (module docstring).
    Cost: O(phi(L) * min(c, D/L + 1) * k) integer operations, independent
    of j, or O(phi(L)) when the residue pass at this level is kept.
    """
    if j < params.m:
        raise LevelTooLow(f"integration level {j} is below the character level {params.m}")
    c = params.c
    N = params.relprec if relprec is None else relprec
    # 2 E_c at the carry t is c - 1 - 2t
    total = _unit_sum(chi_omega_minus_k(params.chi, k + 1), params.d, j, k, N,
                      range(c - 1, -c - 1, -2))
    return _embed(params.p, total, N, 2)


def p_adic_L(params: LpParams, k: int) -> EvalReport:
    """The L-value at the weight a -> <a>^k, k >= 0, as the single Riemann
    sum S_J, certified mod p^params.digits.

    A negative k is refused with ValueError first, then a call whose digits
    fall short of target_valuation with InsufficientPrecision, before any
    sum.  S_J agrees with the L-value mod p^J for every J >= m (module
    docstring), so J = max(digits, j_min, m) is the lowest level of the
    range that certifies every digit; it is at most j_max, as LpParams
    checks.  S_J is summed mod p^digits alone.

    For an odd chi the L-value is the exact zero, returned without a sum:
    the integrand chi omega^(-1)(a) <a>^k is even and 2 E_c(j, -a) =
    -2 E_c(j, a) at every unit a, so every S_j vanishes, at every precision
    (Washington, section 5.2).  level_used is still J.
    """
    if k < 0:
        raise ValueError("weight exponent must be >= 0")
    digits = params.digits
    if digits < params.target_valuation:
        raise InsufficientPrecision(
            f"min(relprec={params.relprec}, j_max={params.j_max}) = {digits} certified "
            f"digits do not reach the target valuation {params.target_valuation}")
    J = max(digits, params.j_min, params.m)
    if not params.chi.is_even():
        return EvalReport(value=PadicNum.exact_zero(params.p), level_used=J)
    return EvalReport(value=riemann_sum(params, k, J, digits), level_used=J)


def special_value_closed_form(params: LpParams, n: int,
                              relprec: int | None = None) -> PadicNum:
    """The closed-form target at the weight-(n-1) evaluation, n >= 1:

    R = (1/n)(1 - chi(c) <c>^n)(1 - chi omega^(-n)(p) p^(n-1)) B_(n, chi omega^(-n)),

    one exact label sum embedded at relprec absolute digits (params.relprec when
    None); chi(c) <c>^n = c^n chi omega^(-n)(c); the factor at p is 1 if
    p | cond chi omega^(-n).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    N = relprec if relprec is not None else params.relprec
    p, c = params.p, params.c
    psi = chi_omega_minus_k(params.chi, n)
    nums, den = _euler_label_sum(psi, n)
    return _embed_label_sum(p, _times_one_minus(p, nums, c**n, psi.label(c)), n * den, N)


def verify_interpolation(params: LpParams, n: int) -> VerifyReport:
    """Compare the integral at weight n-1 with the closed form at n (n >= 2).

    The winning sign is the one whose difference, L - R for + and L + R
    for -, provably has the larger valuation: its valuation, or the lower
    bound where it vanished at the working precision, exceeds the other's
    exact one.  Their difference is 2R, so at most one sign wins.  The call
    passes when the winner reaches params.target_valuation, which also
    holds where v(R) reaches the target; the sign is reported so a caller
    can pin it across a whole suite.  Where L and R both vanish to the
    target neither sign is provable, yet both congruences hold: the call
    passes with the sign "both".  A call whose certified digits fall short
    of the target is refused by p_adic_L, before any sum or the closed form.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    report = p_adic_L(params, n - 1)
    rhs = special_value_closed_form(params, n)
    lhs = report.value
    minus, plus = lhs - rhs, lhs + rhs
    sign, vdiff, exact = None, None, None
    for winner, diff, other in (("+", minus, plus), ("-", plus, minus)):
        if (other.valuation_is_exact and diff.valuation() > other.valuation()
                and diff.valuation() >= params.target_valuation):
            sign, exact = winner, diff.valuation_is_exact
            vdiff = None if diff.is_exact_zero() else diff.valuation()
    if sign is None and min(minus.valuation(), plus.valuation()) >= params.target_valuation:
        sign = "both"
    return VerifyReport(
        lhs=lhs, rhs=rhs, sign=sign, valuation_of_difference=vdiff,
        passed=sign is not None, valuation_is_exact=exact, level_used=report.level_used,
    )
