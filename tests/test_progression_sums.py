"""The one progression-sum kernel against brute force.

genbernoulli._unit_sum regroups a sum over the units a mod d*p^j into
arithmetic progressions summed by Faulhaber's formula.  With the weight
2 E_c it is the Riemann sum, with the weight 1 the twisted unit sum; each
is compared here with its term-by-term oracle in oracles.py for full
PadicNum equality (value and precision).  Characters are chi_d * omega^e
at level d*p^m, with chi_d the real character of conductor d in {3, 4}
given by a label table loaded through a `table:` spec, or trivial for
d = 1.  p = 43 is the first prime above the Miller-Rabin bases, where
teichmuller_int's primality check is no longer decided by a base
division; the brute-force sums are kept under 10^5 terms.
"""

import json
import math
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracles import (progression_power_sum_horner, riemann_sum_bruteforce,
                     twisted_unit_sum_bruteforce)
from padiclf.bernoulli import ProgressionPowerSum
from padiclf.dirichlet import parse_character_spec
from padiclf.genbernoulli import _unit_sum, chi_omega_minus_k
from padiclf.lfunction import LpParams, Weight, riemann_sum
from padiclf.padic import PadicNum

RELPREC = 10
# the most units a brute-force sum visits
MAX_ORACLE_TERMS = 10**5
# residues of the real character of conductor d with value -1
REAL_MINUS = {1: set(), 3: {2}, 4: {3}}


@pytest.fixture(scope="module")
def table_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("tables")


def even_character(table_dir, p: int, d: int, m: int, e: int):
    """chi_d * omega^e at level d*p^m, through a `table:` spec when d > 1."""
    level = d * p**m
    if d == 1:
        return parse_character_spec(f"omega^{e}", p, relprec=RELPREC).change_level(level)
    entries = {
        str(a): (-1 if a % d in REAL_MINUS[d] else 1) * pow(a, e, p) % p
        for a in range(level) if math.gcd(a, d * p) == 1
    }
    path = table_dir / f"chi_{p}_{d}_{m}_{e}.json"
    path.write_text(json.dumps({"p": p, "modulus": level, "entries": entries}))
    return parse_character_spec(f"table:{path}", p, relprec=RELPREC)


@st.composite
def characters(draw):
    p = draw(st.sampled_from([3, 5, 7, 11, 13]))
    d = draw(st.sampled_from([1, 3, 4]))
    assume(d != p)
    m = draw(st.integers(1, 2))
    # chi_d is odd for d in {3, 4}, so omega's exponent must match its parity
    e = draw(st.sampled_from(range(0 if d == 1 else 1, p - 1, 2)))
    return p, d, m, e


@given(k=st.integers(0, 8), step=st.integers(1, 60), u0=st.integers(-10**6, 10**6),
       n=st.integers(0, 40), modulus=st.sampled_from([1, 7, 3**10, 2**61 - 1]))
def test_progression_power_sum_matches_direct_sum(k, step, u0, n, modulus):
    u1 = u0 + n * step
    expected = sum(u**k for u in range(u0, u1, step)) % modulus
    assert progression_power_sum_horner(ProgressionPowerSum(k, step, modulus), u0, u1) == expected


# c > D/L: every run holds one term (D/L = 1 for omega^2 at p = 5, level 5)
@example(char=(5, 1, 1, 2), c=101, k=3, dj=0)
@example(char=(7, 4, 2, 1), c=197, k=6, dj=1)
@example(char=(43, 1, 1, 2), c=2, k=2, dj=0)
@example(char=(43, 4, 1, 5), c=3, k=4, dj=1)
@settings(max_examples=150, deadline=None)
@given(char=characters(), c=st.integers(2, 200), k=st.integers(0, 6), dj=st.integers(0, 3))
def test_riemann_sum_matches_oracle(table_dir, char, c, k, dj):
    p, d, m, e = char
    j = m + dj
    assume(d * p**j <= MAX_ORACLE_TERMS)
    while math.gcd(c, d * p) != 1:
        c += 1
    chi = even_character(table_dir, p, d, m, e)
    params = LpParams(p=p, d=d, c=c, m=m, chi=chi, relprec=RELPREC, j_max=m + 3)
    P = p**RELPREC
    # w = 2 E_c: the carry t weighs c - 1 - 2t
    twice = _unit_sum(chi_omega_minus_k(chi, k + 1), d, j, k, RELPREC, range(c - 1, -c - 1, -2))
    fast = PadicNum.from_int_mod(p, twice * pow(2, -1, P), RELPREC)
    slow = riemann_sum_bruteforce(params, Weight(k), j)
    assert fast == slow
    assert fast.abs_precision == slow.abs_precision
    assert riemann_sum(params, Weight(k), j) == slow


# j < m: the sum runs below the level d*p^m of the character
@example(char=(5, 4, 2, 1), k=1, j=1, shift=0, c=3)
@example(char=(7, 1, 2, 2), k=3, j=1, shift=1, c=1)
@example(char=(43, 1, 1, 4), k=2, j=2, shift=1, c=2)
@example(char=(43, 3, 1, 3), k=3, j=1, shift=0, c=5)
@settings(max_examples=150, deadline=None)
@given(char=characters(), k=st.integers(1, 6), j=st.integers(1, 5),
       shift=st.sampled_from([0, 1]), c=st.integers(1, 60))
def test_twisted_unit_sum_matches_oracle(table_dir, char, k, j, shift, c):
    p, d, m, e = char
    assume(j <= m + 3 and d * p**j <= MAX_ORACLE_TERMS)
    while math.gcd(c, d * p) != 1:
        c += 1
    chi = even_character(table_dir, p, d, m, e)
    psi = chi_omega_minus_k(chi, k)
    slow = twisted_unit_sum_bruteforce(chi, k, j, k - shift, RELPREC)
    cases = [
        # w = 1 walked through the carry runs of c: every carry weighs 1
        (psi, (1,) * c),
        # psi at the level of chi: L = d*p^m does not divide d*p^j when
        # j < m, and the progressions must stop below d*p^j
        (psi.change_level(d * p**m), (1,)),
    ]
    for twist, weights in cases:
        total = _unit_sum(twist, d, j, k - shift, RELPREC, weights)
        fast = PadicNum.from_int_mod(p, total, RELPREC)
        assert fast == slow
        assert fast.abs_precision == slow.abs_precision


def test_warm_power_sum_and_unit_sum_make_no_fraction(monkeypatch):
    # the Horner coefficients come from the cached integer form of B_(k+1),
    # and the kernel works in ints: once warm, neither makes a Fraction
    chi = parse_character_spec("omega^2", 5).change_level(25)
    psi = chi_omega_minus_k(chi, 4)
    weights = range(2, -4, -2)
    expected = _unit_sum(psi, 1, 3, 3, RELPREC, weights)
    ProgressionPowerSum(3, 75, 5**RELPREC)
    made = []
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counted))
    if "_from_coprime_ints" in vars(Fraction):  # arithmetic bypasses __new__ on 3.12+
        from_ints = vars(Fraction)["_from_coprime_ints"].__func__

        def counted_ints(cls, *args):
            made.append(args)
            return from_ints(cls, *args)

        monkeypatch.setattr(Fraction, "_from_coprime_ints", classmethod(counted_ints))
    power_sum = ProgressionPowerSum(3, 75, 5**RELPREC)
    assert _unit_sum(psi, 1, 3, 3, RELPREC, weights) == expected
    expected_sum = sum(u**3 for u in range(2, 302, 75)) % 5**RELPREC
    assert progression_power_sum_horner(power_sum, 2, 2 + 75 * 4) == expected_sum
    assert made == []
