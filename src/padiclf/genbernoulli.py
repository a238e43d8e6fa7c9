"""Generalized Bernoulli numbers B_(m,chi) and their finite-level limit checks.

For a character chi with associated primitive character chi0 of
conductor f and any positive multiple F of f,

    B_(m,chi) = F^(m-1) * sum_{a=1}^{F} chi0(a mod f) * B_m(a / F)

independently of F (the conductor-f extension by zero of chi0 is used
inside the sum, so terms at gcd(a, f) > 1 vanish).  The sum is exposed
both as an exact rational coefficient vector keyed by the mod-p value
labels, and embedded into Q_p.

The finite-level checks: the truncated twisted power mean

    (1/(d p^j)) * sum_{a < d p^j, gcd(a, dp) = 1} chi omega^(-k)(a) * a^k

approaches (1 - chi omega^(-k)(p) p^(k-1)) * B_(k, chi omega^(-k)) as j
grows, and the bare unit power sum with exponent k - 1 approaches 0;
both are computed at a given level so valuation growth can be observed.
Both are sums over the units a mod d p^j, and so is the Riemann sum of
padiclf.lfunction: all three go through _unit_sum, the one kernel that
regroups such a sum into residue progressions summed in closed form
(Washington, Introduction to Cyclotomic Fields, section 5.2 and ch. 12).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from fractions import Fraction

from .bernoulli import ProgressionPowerSum, bernoulli_poly
from .dirichlet import DirichletCharacter, char_power, make_teich_char, teichmuller_int
from .errors import NotMultipleOfConductor
from .modarith import units_of
from .padic import DEFAULT_RELPREC, PadicNum, split_p_power

__all__ = [
    "chi_omega_minus_k",
    "general_bernoulli_coeffs",
    "general_bernoulli",
    "general_bernoulli_exact",
    "twisted_mean_truncation",
    "twisted_mean_limit",
    "unit_power_sum",
]


def chi_omega_minus_k(chi: DirichletCharacter, k: int) -> DirichletCharacter:
    """The primitive character attached to chi * omega^(-k); omega has order
    p - 1.  It is kept on chi by -k mod p - 1, so one twist of chi is made,
    and its label table built, once."""
    p = chi.p
    e = -k % (p - 1)
    psi = chi._twists.get(e)
    if psi is None:
        psi = chi._twists[e] = chi * char_power(make_teich_char(p), e)
    return psi


def general_bernoulli_coeffs(chi: DirichletCharacter, m: int, F: int | None = None) -> dict:
    """Exact rational coefficients of B_(m,chi) grouped by value label.

    Returns {t: c_t} with B_(m,chi) = sum_t omega(t) * c_t, where
    c_t = F^(m-1) * sum of B_m(a/F) over 1 <= a <= F whose primitive
    character value has label t.  Zero coefficients are dropped, so the
    dict is independent of the multiple F chosen.

    Expanding B_m(a/F) = sum_i C(m,i) * B_i * (a/F)^(m-i) gives

        c_t = sum over the same a of sum_i C(m,i) * B_i * F^(i-1) * a^(m-i).

    Over the common denominator den of the weights C(m,i) * B_i * F^(i-1),
    with numerators n_i, each a adds the integer h(a) = sum_i n_i a^(m-i),
    evaluated by Horner's rule, to its label's total, and c_t is that
    total over den.
    """
    chi0 = chi.associated_primitive()
    f = chi0.level
    if F is None:
        F = f
    if F < 1 or F % f:
        raise NotMultipleOfConductor(f"{F} is not a positive multiple of the conductor {f}")
    # C(m,i) * B_i is the coefficient of X^(m-i) in B_m(X)
    weights = [w * Fraction(F) ** (i - 1) for i, w in enumerate(reversed(bernoulli_poly(m)))]
    den = math.lcm(*(w.denominator for w in weights))
    nums = [int(w * den) for w in weights]
    labels = chi0.labels
    totals: dict[int, int] = {}
    for a in range(1, F + 1):
        t = labels.get(a % f)
        if t is None:
            continue
        h = 0
        for n in nums:
            h = h * a + n
        totals[t] = totals.get(t, 0) + h
    return {t: Fraction(h, den) for t, h in totals.items() if h}


def _omega_sum(p: int, coeffs: dict, window: int) -> int:
    """sum_t c_t * omega(t) mod p^window for integer coefficients c_t,
    one Teichmuller lift per label t."""
    return sum(c * teichmuller_int(p, t, window) for t, c in coeffs.items()) % p**window


def _embed_label_sum(p: int, coeffs: dict, relprec: int) -> PadicNum:
    """Embed sum_t c_t * omega(t) keeping the full relative precision.

    Denominators are cleared first so the roots of unity are combined in
    one integer window; a term-by-term embedding would shed a digit for
    every power of p in a coefficient denominator.
    """
    if not coeffs:
        return PadicNum.exact_zero(p)
    den = math.lcm(*(c.denominator for c in coeffs.values()))
    window = relprec + split_p_power(p, den)[0]
    total = _omega_sum(p, {t: int(c * den) for t, c in coeffs.items()}, window)
    s = PadicNum.from_int_mod(p, total, window)
    return s * PadicNum.from_rational(p, Fraction(1, den), window)


def general_bernoulli(chi: DirichletCharacter, m: int,
                      relprec: int = DEFAULT_RELPREC) -> PadicNum:
    """B_(m,chi) as a p-adic number (conductor-length sum)."""
    return _embed_label_sum(chi.p, general_bernoulli_coeffs(chi, m), relprec)


def _exact_label_sum(p: int, coeffs: dict):
    """sum_t c_t * omega(t) as a Fraction when every label t is +-1 mod p, else None."""
    acc = Fraction(0)
    for t, c in coeffs.items():
        if t % p == 1:
            acc += c
        elif t % p == p - 1:
            acc -= c
        else:
            return None
    return acc


def general_bernoulli_exact(chi: DirichletCharacter, m: int,
                            F: int | None = None):
    """B_(m,chi) as an exact Fraction when all values are +-1, else None."""
    return _exact_label_sum(chi.p, general_bernoulli_coeffs(chi, m, F))


def _twist_preconditions(chi: DirichletCharacter, k: int, j: int):
    p = chi.p
    m, d = split_p_power(p, chi.level)
    if m < 1:
        raise ValueError(f"character level {chi.level} is not divisible by p={p}")
    if not chi.is_even():
        raise ValueError("an even character is required")
    if k < 1:
        raise ValueError("the twist exponent k must be >= 1")
    if j < 1:
        raise ValueError("the level j must be >= 1")
    return d, m


def _unit_sum(psi: DirichletCharacter, d: int, j: int, k: int, relprec: int,
              weights: Sequence[int] = (1,)) -> int:
    """The sum of psi(a) a^k w(a) over the units a mod D = d*p^j, mod p^relprec.

    This is the one progression-sum kernel: riemann_sum integrates against
    w = 2 E_c and the twisted sums take w = 1.  w(a) = weights[t], where t
    is the carry of a under c = len(weights) in the carry form of E_c
    (padiclf.measure docstring): a = c b - D t with b = c^(-1) a mod D.
    So 2 E_c is range(c - 1, -c - 1, -2), and weights = (1,) is w = 1,
    with c = 1, t = 0 and b = a.

    With L = lcm(level of psi, dp), b runs over the progressions r + L s
    (r a unit mod L), each ending at its first term >= D.  On each run of
    s sharing one t, a = c r - D t + c L s is a progression of step c L
    on which psi takes its value at c r mod L (this needs L | D when
    c > 1), and the sum of a^k over it has a closed form
    (bernoulli.ProgressionPowerSum).  The progression sums are added up
    per label of psi, and each label is lifted once.  Cost:
    O(phi(L) * min(c, D/L + 1) * k) integer operations, whatever j.
    """
    p = psi.p
    P = p**relprec
    c = len(weights)
    D = d * p**j
    L = math.lcm(psi.level, d * p)
    labels, q = psi.labels, psi.level
    step = c * L
    power_sum = ProgressionPowerSum(k, step, P)
    by_label: dict[int, int] = {}
    for r in units_of(L):
        # y = c*b runs over c*r + step*s up to c times the first r + L*s >= D
        y, end = c * r, c * (r - (r - D) // L * L)
        inner = 0
        while y < end:
            t = y // D
            # the first y of the progression at or past (t+1)*D, capped at end
            y1 = min(end, y + -((y - (t + 1) * D) // step) * step)
            inner += weights[t] * power_sum(y - t * D, y1 - t * D)
            y = y1
        t = labels[c * r % q]
        by_label[t] = by_label.get(t, 0) + inner
    return _omega_sum(p, by_label, relprec)


def twisted_mean_truncation(chi: DirichletCharacter, k: int, j: int,
                            relprec: int = DEFAULT_RELPREC) -> PadicNum:
    """The level-j mean (1/(d p^j)) * sum_{units a < d p^j} chi omega^(-k)(a) a^k.

    The 1/(d p^j) factor costs j digits of absolute precision, so callers
    should supply relprec at least j plus the valuation they intend to
    resolve.
    """
    p = chi.p
    d, _ = _twist_preconditions(chi, k, j)
    s = _unit_sum(chi_omega_minus_k(chi, k), d, j, k, relprec)
    return (PadicNum.from_int_mod(p, s, relprec)
            * PadicNum.from_rational(p, Fraction(1, d * p**j), relprec))


def twisted_mean_limit(chi: DirichletCharacter, k: int,
                       relprec: int = DEFAULT_RELPREC) -> PadicNum:
    """The limit target (1 - chi omega^(-k)(p) p^(k-1)) * B_(k, chi omega^(-k))."""
    p = chi.p
    _twist_preconditions(chi, k, 1)
    psi = chi_omega_minus_k(chi, k)
    at_p = psi.asso_eval(p % psi.level, relprec) * PadicNum.from_rational(p, p ** (k - 1), relprec)
    return (PadicNum.one(p, relprec) - at_p) * general_bernoulli(psi, k, relprec)


def unit_power_sum(chi: DirichletCharacter, k: int, j: int,
                   relprec: int = DEFAULT_RELPREC) -> PadicNum:
    """sum over units a of d*p^j of chi omega^(-k)(a) * a^(k-1); tends to 0 in j.

    Odd k makes chi omega^(-k) odd (for even chi) and is rejected.
    """
    d, _ = _twist_preconditions(chi, k, j)
    if k % 2:
        raise ValueError("k must be even (parity mismatch otherwise)")
    s = _unit_sum(chi_omega_minus_k(chi, k), d, j, k - 1, relprec)
    return PadicNum.from_int_mod(chi.p, s, relprec)
