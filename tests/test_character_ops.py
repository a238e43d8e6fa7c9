"""Exponent-vector character operations against the label-table oracle.

DirichletCharacter stores a character as its exponents on the generators
of the level and derives products, powers, level changes, the conductor
and the primitive character from them.  oracles.TableCharacter does each
of these entry by entry on whole label tables of residues mod p.  The
lazily built table, read as residues, and the conductor, order and parity
of every derived character must equal the oracle's, on genuine characters
built without the library's generators
(test_character_validation.genuine_tables).
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import TableCharacter, residue_table
from padiclf import dirichlet
from padiclf.dirichlet import DirichletCharacter, char_power, trivial_character
from paper import decompose_coprime
from test_character_validation import check_against_oracle, genuine_tables, prime_powers

PRIMES = (3, 5, 7, 11)


def both(table):
    p, n, labels = table
    return DirichletCharacter(p, n, labels), TableCharacter(p, n, labels)


def assert_same(chi, oracle):
    assert (chi.p, chi.level) == (oracle.p, oracle.level)
    assert chi.conductor() == oracle.conductor()
    assert chi.order() == oracle.order()
    assert chi.is_even() == oracle.is_even()
    assert residue_table(chi.p, chi.labels) == oracle.labels


@settings(max_examples=150, deadline=None)
@given(genuine_tables(), st.integers(1, 6), st.integers(0, 12))
def test_single_character_operations(table, t, k):
    chi, oracle = both(table)
    assert_same(chi, oracle)
    assert_same(chi.change_level(chi.level * t), oracle.change_level(oracle.level * t))
    assert_same(char_power(chi, k), oracle.power(k))
    assert_same(chi.associated_primitive(), oracle.associated_primitive())
    assert_same(trivial_character(chi.p, chi.level), TableCharacter.trivial(chi.p, chi.level))


@st.composite
def same_prime_tables(draw):
    p = draw(st.sampled_from(PRIMES))
    return [draw(genuine_tables(primes=(p,), max_level=60)) for _ in range(2)]


@settings(max_examples=100, deadline=None)
@given(same_prime_tables())
def test_product(tables):
    (chi1, oracle1), (chi2, oracle2) = map(both, tables)
    assert_same(chi1 * chi2, oracle1 * oracle2)


@st.composite
def split_tables(draw):
    table = draw(genuine_tables())
    m = math.prod(q**e for q, e in prime_powers(table[1]).items() if draw(st.booleans()))
    return table, m


@settings(max_examples=100, deadline=None)
@given(split_tables())
def test_decompose_coprime(case):
    table, m = case
    chi, oracle = both(table)
    n = chi.level // m
    for got, want in zip(decompose_coprime(chi, m, n), oracle.decompose_coprime(m, n)):
        assert_same(got, want)


@settings(max_examples=40, deadline=None)
@given(genuine_tables(max_level=100), st.integers(1, 3))
def test_conductor_matches_bruteforce(table, t):
    chi, oracle = both(table)
    wide = chi.change_level(chi.level * t)
    wide_table = TableCharacter(wide.p, wide.level, residue_table(wide.p, wide.labels))
    assert wide.conductor() == wide_table.conductor() == oracle.conductor()


def test_one_root_serves_every_power_of_q(monkeypatch):
    # 5 is the least primitive root mod q = 40487 and 5^(q-1) = 1 mod q^2,
    # so 5 does not generate (Z/q^2)^x; the root taken at every power is 5 + q
    q, p = 40487, 3
    assert pow(5, q - 1, q * q) == 1
    assert dirichlet._primitive_root(q) == q + 5
    legendre = {a: 1 if pow(a, (q - 1) // 2, q) == 1 else p - 1 for a in range(1, q)}
    quad = DirichletCharacter(p, q, legendre)
    built = []
    build = dirichlet._label_table

    def counted(p, n, gens, exponents):
        built.append(n)
        return build(p, n, gens, exponents)

    monkeypatch.setattr(dirichlet, "_label_table", counted)
    wide = quad.change_level(q * q)
    assert wide.conductor() == q and wide.associated_primitive() == quad
    got = {a: wide.label(a) for a in (2, 5, 7, q + 2, q + 5, 123456789, q * q - 1)}
    assert residue_table(p, got) == {a: legendre[a % q] for a in got}
    assert q * q not in built


@pytest.mark.parametrize("n", [7, 9, 14])
def test_large_p_costs_nothing_in_p(n):
    # p = 10^9 + 9 = 1 mod 6: characters of order 6 exist at levels 7, 9
    # and 14, and reading their exponents or building their tables must
    # not walk the p - 1 powers of the root mod p
    p = 10**9 + 9
    t = pow(dirichlet._root(p), (p - 1) // 6, p)
    labels = {pow(5, i, n): pow(t, i, p) for i in range(6)}  # 5 generates
    chi = DirichletCharacter(p, n, labels)
    assert (chi.order(), chi.conductor(), chi.parity()) == (6, n if n != 14 else 7, "odd")
    assert residue_table(p, chi.labels) == labels
    cube = {a: pow(s, 3, p) for a, s in labels.items()}
    assert residue_table(p, char_power(chi, 3).labels) == cube
    assert residue_table(p, trivial_character(p).labels) == {0: 1}
    broken = {**labels, 25 % n: t}
    check_against_oracle(p, n, broken)
    with pytest.raises(ValueError, match=r"not multiplicative at the pair \(\d+, \d+\)"):
        DirichletCharacter(p, n, broken)
