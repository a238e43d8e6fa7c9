"""Character-table validation in one pass against the all-pairs oracle.

DirichletCharacter reads exponents off the labels at the generators of
(Z/nZ)^x and compares the table they generate with the input;
validate_bruteforce in oracles.py checks the value order at every unit
and every pair of units.  Both must accept exactly the same tables.
Genuine characters are built here without the library's generators: a
character of each odd prime power q^f | n through a discrete logarithm
to a primitive root found by search, and one of each 2^f | n through the
(-1)^s 5^t form found by search, multiplied pointwise.
"""

import itertools
import math
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import validate_bruteforce
from padiclf.dirichlet import DirichletCharacter
from padiclf.errors import PadicLFError

PAIR = re.compile(r"pair \((\d+), (\d+)\)")


def totient(n: int) -> int:
    return sum(1 for a in range(n) if math.gcd(a, n) == 1)


def mult_order(a: int, n: int) -> int:
    order, x = 1, a % n
    while x != 1 % n:
        x = x * a % n
        order += 1
    return order


def prime_powers(n: int) -> dict[int, int]:
    out, f = {}, 2
    while n > 1:
        while n % f == 0:
            out[f] = out.get(f, 0) + 1
            n //= f
        f += 1
    return out


def roots_of_unity(p: int, order: int) -> list[int]:
    """Labels t mod p with t^order = 1."""
    return [t for t in range(1, p) if pow(t, order, p) == 1]


def cyclic_component(draw, p: int, Q: int) -> dict[int, int]:
    """A character mod Q (an odd prime power) into mu_(p-1), by discrete log."""
    phi = totient(Q)
    g = next(g for g in range(2, Q) if math.gcd(g, Q) == 1 and mult_order(g, Q) == phi)
    h = draw(st.sampled_from(roots_of_unity(p, phi)))
    table, x = {}, 1
    for i in range(phi):
        table[x] = pow(h, i, p)
        x = x * g % Q
    return table


def two_power_component(draw, p: int, Q: int) -> dict[int, int]:
    """A character mod Q = 2^f into mu_(p-1), from a = (-1)^s 5^t mod Q."""
    if Q <= 2:
        return {a: 1 for a in range(Q) if math.gcd(a, Q) == 1}
    h_minus = draw(st.sampled_from(roots_of_unity(p, 2)))
    order5 = mult_order(5, Q)
    h_five = draw(st.sampled_from(roots_of_unity(p, order5)))
    return {(-1) ** s * pow(5, t, Q) % Q: pow(h_minus, s, p) * pow(h_five, t, p) % p
            for s in (0, 1) for t in range(order5)}


@st.composite
def genuine_tables(draw, primes=(3, 5, 7, 11), max_level=200):
    p = draw(st.sampled_from(primes))
    n = draw(st.integers(1, max_level))
    components = []
    for q, e in prime_powers(n).items():
        Q = q ** draw(st.integers(0, e))
        if q == 2:
            components.append((Q, two_power_component(draw, p, Q)))
        elif Q > 1:
            components.append((Q, cyclic_component(draw, p, Q)))
    labels = {}
    for a in range(n):
        if math.gcd(a, n) == 1:
            t = 1
            for Q, table in components:
                t = t * table[a % Q] % p
            labels[a] = t
    return p, n, labels


@st.composite
def tables(draw):
    p, n, labels = draw(genuine_tables())
    kind = draw(st.sampled_from(["genuine", "perturbed", "random", "dropped", "extra"]))
    keys = sorted(labels)
    if kind == "perturbed":
        a = draw(st.sampled_from(keys))
        labels[a] = draw(st.sampled_from([t for t in range(1, p) if t != labels[a]] or [1]))
    elif kind == "random":
        labels = {a: draw(st.integers(1, p - 1)) for a in keys}
    elif kind == "dropped" and len(keys) > 1:
        del labels[draw(st.sampled_from(keys))]
    elif kind == "extra":
        non_units = [a for a in range(n) if math.gcd(a, n) != 1]
        if non_units:
            labels[draw(st.sampled_from(non_units))] = 1
    return p, n, labels


def outcome(build):
    try:
        build()
    except (ValueError, PadicLFError) as exc:
        return exc
    return None


def check_against_oracle(p: int, n: int, labels: dict) -> None:
    expected = outcome(lambda: validate_bruteforce(p, n, labels))
    got = outcome(lambda: DirichletCharacter(p, n, labels))
    assert (got is None) == (expected is None), (p, n, labels, got, expected)
    if got is None:
        return
    message = str(got)
    if "missing" in message or "non-unit" in message:
        assert type(got) is type(expected) and message == str(expected)
    match = PAIR.search(message)
    if match:
        a, g = int(match.group(1)), int(match.group(2))
        assert (labels[a] * labels[g] - labels[a * g % n]) % p, (p, n, a, g)


@settings(max_examples=300, deadline=None)
@given(tables())
@example((5, 7, {1: 1, 2: 1, 3: 2, 4: 1, 5: 1, 6: 1}))
@example((5, 8, {1: 1, 3: 4, 5: 4, 7: 4}))
@example((5, 16, {1: 1, 5: 2, 9: 4, 13: 3, 15: 4, 11: 3, 7: 1, 3: 2}))
@example((7, 9, {1: 1, 2: 3, 4: 2, 8: 6, 7: 4, 5: 5}))
def test_generators_accept_what_the_oracle_accepts(table):
    check_against_oracle(*table)


@pytest.mark.parametrize("p", [3, 5])
def test_every_small_table(p):
    # every table of labels on the units, at each level up to 18 with at
    # most 4096 tables
    for n in range(1, 19):
        units = [a for a in range(n) if math.gcd(a, n) == 1]
        if (p - 1) ** len(units) > 4096:
            continue
        for values in itertools.product(range(1, p), repeat=len(units)):
            check_against_oracle(p, n, dict(zip(units, values)))
