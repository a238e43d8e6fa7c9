"""Generalized Bernoulli numbers B_(m,chi) and their finite-level limit checks.

For a character chi with associated primitive character chi0 of
conductor f and any positive multiple F of f,

    B_(m,chi) = F^(m-1) * sum_{a=1}^{F} chi0(a mod f) * B_m(a / F)

independently of F (the conductor-f extension by zero of chi0 is used
inside the sum, so terms at gcd(a, f) > 1 vanish).  The sum is exposed
both as integers keyed by the value labels, exponents e of omega(r)^e,
over one denominator, and embedded into Q_p by _embed, which builds every
PadicNum that this module and padiclf.lfunction return.  A label sum is
folded (_fold) onto the labels below (p - 1)/2 before it is read, so one
that is exactly 0 is the exact zero, and one whose values are all +-1 is
a Fraction.

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

from .bernoulli import ProgressionPowerSum, bernoulli_poly_int
from .dirichlet import (DirichletCharacter, _root_power, char_power, make_teich_char,
                        teichmuller_int)
from .errors import CostLimitExceeded, NotMultipleOfConductor
from .modarith import units_of
from .padic import DEFAULT_RELPREC, PadicNum, split_p_power

__all__ = [
    "MAX_HORNER_BITS",
    "chi_omega_minus_k",
    "general_bernoulli_coeffs",
    "general_bernoulli",
    "general_bernoulli_exact",
    "twisted_mean_truncation",
    "twisted_mean_limit",
    "unit_power_sum",
]

# The largest int, in bits, that _unit_sum's Horner's rule may build.
MAX_HORNER_BITS = 1_500_000


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


def general_bernoulli_coeffs(chi: DirichletCharacter, m: int, F: int | None = None) -> tuple:
    """B_(m,chi) as integers grouped by value label over one denominator.

    Returns (nums, den) with B_(m,chi) = sum_t omega(r)^t * nums[t] / den,
    where nums[t] / den = F^(m-1) * sum of B_m(a/F) over 1 <= a <= F whose
    primitive character value has label t.  Zero labels are dropped and
    gcd(den, *nums) = 1 with den > 0, so the pair is independent of F.

    Expanding B_m(a/F) = sum_i C(m,i) * B_i * (a/F)^(m-i) gives

        nums[t] / den = sum over the same a of sum_i C(m,i) * B_i * F^(i-1) * a^(m-i).

    With B_m(X)'s integer form (den_m, nums_m), C(m,i) * B_i = nums_m[m-i] / den_m,
    so the weights are n_i / (den_m F) with n_i = nums_m[m-i] * F^i.  Each a
    adds the integer h(a) = sum_i n_i a^(m-i), evaluated by Horner's rule,
    to its label's total, and the totals over den_m F are then reduced.
    """
    chi0 = chi.associated_primitive()
    f = chi0.level
    if F is None:
        F = f
    if F < 1 or F % f:
        raise NotMultipleOfConductor(f"{F} is not a positive multiple of the conductor {f}")
    den, nums = bernoulli_poly_int(m)
    # n_i = nums[m-i] * F^i for i = 0..m, that of a^m first
    weights, F_power = [], 1
    for num in reversed(nums):
        weights.append(num * F_power)
        F_power *= F
    labels = chi0.labels
    totals: dict[int, int] = {}
    for a in range(1, F + 1):
        t = labels.get(a % f)
        if t is None:
            continue
        h = 0
        for n in weights:
            h = h * a + n
        totals[t] = totals.get(t, 0) + h
    g = math.gcd(den * F, *totals.values())
    return {t: h // g for t, h in totals.items() if h}, den * F // g


def _omega_sum(p: int, nums: dict, window: int) -> int:
    """sum_e nums[e] * omega(r)^e mod p^window for integers nums[e], e mod p - 1:
    with g = gcd(p - 1, every e), sum_i nums[i g] zeta^i for zeta = omega(r^g),
    one Teichmuller lift, by Horner's rule over i <= max(e) / g < ord zeta,
    mod p^window at each step.  When every e is 0 no root is made."""
    mod, g = p**window, math.gcd(p - 1, *nums)
    if g == p - 1:
        return sum(nums.values()) % mod
    zeta, acc = teichmuller_int(p, _root_power(p, g), window), 0
    for i in range(max(nums) // g, -1, -1):
        acc = (acc * zeta + nums.get(i * g, 0)) % mod
    return acc


def _embed(p: int, total: int, N: int, den: int = 1) -> PadicNum:
    """total / den at N absolute digits, from total known mod p^(N + v) where
    den = p^v u, u a unit: total u^(-1) mod p^(N + v), shifted by p^(-v)."""
    v, u = split_p_power(p, den)
    return PadicNum.from_int_mod(p, total * pow(u, -1, p ** (N + v)), N + v, shift=-v)


def _fold(p: int, nums: dict) -> dict:
    """A label sum with every label below (p - 1)/2: omega(r)^((p-1)/2) = -1,
    so nums[e] moves to e - (p - 1)/2 with its sign flipped for e >= (p - 1)/2,
    and labels whose total is 0 are dropped.  A sum that is exactly 0 folds
    to {}, and one whose values are all +-1 to label 0 alone."""
    half, folded = (p - 1) // 2, {}
    for e, n in nums.items():
        if e >= half:
            e, n = e - half, -n
        folded[e] = folded.get(e, 0) + n
    return {e: n for e, n in folded.items() if n}


def _embed_label_sum(p: int, nums: dict, den: int, N: int) -> PadicNum:
    """(1/den) sum_e nums[e] * omega(r)^e at exactly N absolute digits, and
    the exact zero when the folded sum (_fold) is empty.

    The roots of unity are combined in one integer window, N plus the
    valuation of den, and _embed divides by den once; a term-by-term
    embedding would shed a digit for every power of p in den.
    """
    nums = _fold(p, nums)
    if not nums:
        return PadicNum.exact_zero(p)
    return _embed(p, _omega_sum(p, nums, N + split_p_power(p, den)[0]), N, den)


def _times_one_minus(p: int, nums: dict, s: int, u: int) -> dict:
    """(1 - s omega(r)^u) times a label sum: omega(r)^u moves exponent e to e + u mod p - 1."""
    moved = {(e + u) % (p - 1): s * n for e, n in nums.items()}
    return {t: nums.get(t, 0) - moved.get(t, 0) for t in nums.keys() | moved.keys()}


def _euler_label_sum(psi: DirichletCharacter, k: int) -> tuple[dict, int]:
    """(1 - psi(p) p^(k-1)) B_(k,psi) as integers over one denominator, psi extended by zero."""
    p = psi.p
    nums, den = general_bernoulli_coeffs(psi, k)
    s, u = (p ** (k - 1), psi.label(p)) if psi.conductor() % p else (0, 0)
    return _times_one_minus(p, nums, s, u), den


def general_bernoulli(chi: DirichletCharacter, m: int,
                      relprec: int = DEFAULT_RELPREC) -> PadicNum:
    """B_(m,chi) as a p-adic number (conductor-length sum)."""
    return _embed_label_sum(chi.p, *general_bernoulli_coeffs(chi, m), relprec)


def _exact_label_sum(p: int, nums: dict, den: int):
    """(1/den) sum_e nums[e] * omega(r)^e as a Fraction if the folded sum
    (_fold) has no label but 0, else None."""
    nums = _fold(p, nums)
    if nums.keys() - {0}:
        return None
    return Fraction(nums.get(0, 0), den)


def general_bernoulli_exact(chi: DirichletCharacter, m: int):
    """B_(m,chi) as an exact Fraction when its folded label sum has no label
    but 0, as when every value is +-1, else None."""
    return _exact_label_sum(chi.p, *general_bernoulli_coeffs(chi, m))


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
    c > 1), and the sum of a^k over it is (H(u1) - H(u0)) / div in the
    closed form of bernoulli.ProgressionPowerSum.  H is evaluated by
    Horner's rule on unreduced ints, with no reduction per step; the
    weighted differences w (H(u1) - H(u0)) are added up per label of psi,
    each label's total is an exact multiple of div and takes one
    `% mod // div`, and the label sum takes one lift (_omega_sum).  Cost:
    O(phi(L) * min(c, D/L + 1) * k) integer operations, whatever j, on
    ints of up to about (k + 1) log2(D) bits; a sum whose ints would pass
    MAX_HORNER_BITS raises CostLimitExceeded before any is built, and
    before D is built when the lower bound (k + 1) j (log2(p) rounded down)
    already passes it.
    """
    p = psi.p
    c = len(weights)
    L = math.lcm(psi.level, d * p)
    step = c * L
    # built first: a degree past bernoulli.MAX_BERNOULLI_DEGREE is refused
    # before the size of the ints or the label table is
    power_sum = ProgressionPowerSum(k, step, p**relprec)
    # D >= p^j >= 2^(j (b - 1)), b = p.bit_length(): a level this lower bound
    # refuses is never built
    bits = (k + 1) * j * (p.bit_length() - 1)
    size = f"more than {bits}"
    if bits <= MAX_HORNER_BITS:
        D = d * p**j
        bits = (k + 1) * D.bit_length()
        size = f"about {bits}"
    if bits > MAX_HORNER_BITS:
        raise CostLimitExceeded(
            f"a unit sum of degree {k} at level {j} would run Horner's rule on ints "
            f"of {size} bits, over the limit of {MAX_HORNER_BITS}")
    horner, mod, div = power_sum.horner, power_sum.mod, power_sum.div
    labels, q = psi.labels, psi.level
    by_label: dict[int, int] = {}
    for r in units_of(L):
        label = labels[c * r % q]
        acc = by_label.get(label, 0)
        # y = c*b runs over c*r + step*s up to c times the first r + L*s >= D
        y, end = c * r, c * (r - (r - D) // L * L)
        while y < end:
            t = y // D
            # the first y of the progression at or past (t+1)*D, capped at end
            y1 = min(end, y + -((y - (t + 1) * D) // step) * step)
            u0, u1 = y - t * D, y1 - t * D
            h0 = h1 = 0
            for h in horner:
                h0 = h0 * u0 + h
                h1 = h1 * u1 + h
            acc += weights[t] * (h1 - h0)
            y = y1
        by_label[label] = acc
    return _omega_sum(p, {t: h % mod // div for t, h in by_label.items()}, relprec)


def twisted_mean_truncation(chi: DirichletCharacter, k: int, j: int,
                            relprec: int = DEFAULT_RELPREC) -> PadicNum:
    """The level-j mean (1/(d p^j)) * sum_{units a < d p^j} chi omega^(-k)(a) a^k.

    The 1/(d p^j) factor costs j digits of absolute precision, so callers
    should supply relprec at least j plus the valuation they intend to
    resolve.
    """
    d, _ = _twist_preconditions(chi, k, j)
    s = _unit_sum(chi_omega_minus_k(chi, k), d, j, k, relprec)
    return _embed(chi.p, s, relprec - j, d * chi.p**j)


def twisted_mean_limit(chi: DirichletCharacter, k: int,
                       relprec: int = DEFAULT_RELPREC) -> PadicNum:
    """The limit target (1 - chi omega^(-k)(p) p^(k-1)) * B_(k, chi omega^(-k))."""
    _twist_preconditions(chi, k, 1)
    nums, den = _euler_label_sum(chi_omega_minus_k(chi, k), k)
    return _embed_label_sum(chi.p, nums, den, relprec)


def unit_power_sum(chi: DirichletCharacter, k: int, j: int,
                   relprec: int = DEFAULT_RELPREC) -> PadicNum:
    """sum over units a of d*p^j of chi omega^(-k)(a) * a^(k-1); tends to 0 in j.

    Odd k makes chi omega^(-k) odd (for even chi) and is rejected.
    """
    d, _ = _twist_preconditions(chi, k, j)
    if k % 2:
        raise ValueError("k must be even (parity mismatch otherwise)")
    return _embed(chi.p, _unit_sum(chi_omega_minus_k(chi, k), d, j, k - 1, relprec), relprec)
