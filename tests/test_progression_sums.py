"""The one progression-sum kernel against brute force.

genbernoulli._unit_sum regroups a sum over the units a mod d*p^j into
arithmetic progressions summed by Faulhaber's formula.  With the weight
2 E_c it is the Riemann sum, with the weight 1 the twisted unit sum; each
is compared here with its term-by-term oracle in oracles.py for full
PadicNum equality (value and precision), and the per-unit totals of the
residue pass beneath both with direct sums.  Characters are chi_d * omega^e
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

from oracles import riemann_sum_bruteforce, twisted_unit_sum_bruteforce
from padiclf.dirichlet import parse_character_spec
from padiclf.genbernoulli import _residue_pass, _unit_sum, chi_omega_minus_k
from padiclf.lfunction import LpParams, riemann_sum
from padiclf.padic import PadicNum

RELPREC = 10
# the most units a brute-force sum visits
MAX_ORACLE_TERMS = 10**5
# residues of the real character of conductor d with value -1
REAL_MINUS = {1: set(), 3: {2}, 4: {3}}


@pytest.fixture(scope="module")
def table_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("tables")


def even_character(table_dir, p: int, d: int, m: int, e: int, table: bool = False):
    """chi_d * omega^e at level d*p^m, through a `table:` spec when d > 1
    or table is true."""
    level = d * p**m
    if d == 1 and not table:
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


# c L > D: every class holds one term, its upper end rho + M past D; and
# c = 1, one carry
@example(p=5, L_over_p=1, j=1, k=3, c=7, relprec=4)
@example(p=7, L_over_p=4, j=1, k=8, c=29, relprec=12)
@example(p=3, L_over_p=2, j=2, k=0, c=1, relprec=1)
@settings(max_examples=100, deadline=None)
@given(p=st.sampled_from([3, 5, 7]), L_over_p=st.sampled_from([1, 2, 4]),
       j=st.integers(1, 4), k=st.integers(0, 8), c=st.integers(1, 30),
       relprec=st.integers(1, 12))
def test_residue_pass_totals_match_direct_sums(p, L_over_p, j, k, c, relprec):
    # at each unit x mod L, the pass's total over div is the sum of
    # w(a) a^k over the a < D with a = x (mod L), for w = 2 E_c, whose carry
    # t(a) = (c b - a) / D with b = c^(-1) a mod D weighs c - 1 - 2t(a),
    # and for w = 1
    L, D, P = L_over_p * p, L_over_p * p**j, p**relprec
    while math.gcd(c, L) != 1:
        c += 1
    cinv = pow(c, -1, D)

    def twice_E_c(a):
        return c - 1 - 2 * ((c * (cinv * a % D) - a) // D)

    for weights, w in ((range(c - 1, -c - 1, -2), twice_E_c), ((1,), lambda a: 1)):
        units, totals, mod, div = _residue_pass.__wrapped__(p, L, D, k, relprec, weights)
        assert units == tuple(x for x in range(L) if math.gcd(x, L) == 1)
        for x, h in zip(units, totals):
            assert h % mod // div == sum(w(a) * a**k for a in range(x, D, L)) % P


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
    slow = riemann_sum_bruteforce(params, k, j)
    assert fast == slow
    assert fast.abs_precision == slow.abs_precision
    assert riemann_sum(params, k, j) == slow


def test_riemann_sum_at_the_largest_c_the_pass_walks():
    # c = 2^63 - 1, the largest c whose weights range(c - 1, -c - 1, -2) has a
    # len on a 64-bit build: c L > D at every level, so each class holds one
    # term, and the pass's ints are about (k + 1) log2(c L) bits long
    c = 2**63 - 1
    chi = parse_character_spec("omega^2", 5, relprec=RELPREC)
    params = LpParams(p=5, d=1, c=c, m=1, chi=chi, relprec=RELPREC, j_max=5)
    for j in (1, 3, 5):
        for k in (0, 2, 5):
            assert riemann_sum(params, k, j) == riemann_sum_bruteforce(params, k, j)


@example(p=5, d=1, c=2, k=2, j=2)
@example(p=7, d=4, c=3, k=3, j=2)
@settings(max_examples=20, deadline=None)
@given(p=st.sampled_from([3, 5, 7, 11, 13]), d=st.sampled_from([1, 3, 4]),
       c=st.integers(2, 200), k=st.integers(0, 6), j=st.integers(2, 3))
def test_one_residue_pass_serves_every_character(table_dir, p, d, c, k, j):
    # every even chi_d omega^e, and chi_d omega^e again through a table at
    # level d*p^2, shares L = dp and so one pass: one miss, then only hits,
    # and each projection equals the brute-force sum
    assume(d != p and d * p**j <= MAX_ORACLE_TERMS)
    while math.gcd(c, d * p) != 1:
        c += 1
    exponents = range(0 if d == 1 else 1, p - 1, 2)
    chars = [(1, even_character(table_dir, p, d, 1, e)) for e in exponents]
    chars.append((2, even_character(table_dir, p, d, 2, exponents[-1], table=True)))
    _residue_pass.cache_clear()
    for m, chi in chars:
        params = LpParams(p=p, d=d, c=c, m=m, chi=chi, relprec=RELPREC, j_max=j)
        assert riemann_sum(params, k, j) == riemann_sum_bruteforce(params, k, j)
    info = _residue_pass.cache_info()
    assert (info.misses, info.hits) == (1, len(chars) - 1)


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


def test_warm_residue_pass_makes_no_fraction(monkeypatch):
    # the Horner coefficients come from the cached integer form of B_(k+1),
    # and the kernel works in ints: once B_(k+1) is warm, a pass miss and
    # its projection make no Fraction
    chi = parse_character_spec("omega^2", 5).change_level(25)
    psi = chi_omega_minus_k(chi, 4)
    weights = range(2, -4, -2)
    expected = _unit_sum(psi, 1, 3, 3, RELPREC, weights)
    _residue_pass.cache_clear()
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
    assert _unit_sum(psi, 1, 3, 3, RELPREC, weights) == expected
    assert _residue_pass.cache_info().misses == 1
    assert made == []
