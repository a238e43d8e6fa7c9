"""Brute-force oracles for the closed-form sums in padiclf.

Each visits every unit residue at the level, exactly as the sums are
defined, so the fast paths in the library can be checked against them.
"""

from __future__ import annotations

import math

from padiclf.dirichlet import teichmuller_int
from padiclf.genbernoulli import chi_omega_minus_k, level_decompose
from padiclf.padic import PadicNum


def riemann_sum_bruteforce(params, w, j: int) -> PadicNum:
    """sum of chi omega^(-1)(a) <a>^k E_c(j, a) over units a mod d*p^j, mod p^relprec."""
    p, d, c, N = params.p, params.d, params.c, params.relprec
    P = p**N
    psi = params.chi_omega_inv
    q = psi.level
    psi_label = psi.labels
    omega_of = {t: teichmuller_int(p, t, N) for t in set(psi_label.values())}
    teich_inv = {r: pow(teichmuller_int(p, r, N), -1, P) for r in range(1, p)}
    D = d * p**j
    cinv = pow(c, -1, D)
    inv2 = pow(2, -1, P)
    dp = d * p
    k = w.k
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
    d, _ = level_decompose(chi.level, p)
    psi = chi_omega_minus_k(chi, k)
    q = psi.level
    P = p**relprec
    labels = psi.labels
    omega_of = {t: teichmuller_int(p, t, relprec) for t in set(labels.values())}
    dp = d * p
    total = 0
    for a in range(d * p**j):
        if math.gcd(a, dp) != 1:
            continue
        total += omega_of[labels[a % q]] * pow(a, exponent, P)
    return PadicNum.from_int_mod(p, total, relprec)
