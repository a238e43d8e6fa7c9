import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import factorize_trial, residue_table, teichmuller_pow
from padiclf import dirichlet
from padiclf.dirichlet import (
    DirichletCharacter,
    char_power,
    decompose_coprime,
    load_table_character,
    make_teich_char,
    parse_character_spec,
    teichmuller_int,
    trivial_character,
)
from padiclf.errors import (
    CostLimitExceeded,
    NotAUnit,
    NotCoprime,
    NotDivisible,
    UnsupportedOrder,
)
from padiclf.modarith import units_of
from padiclf.padic import DEFAULT_RELPREC
from padiclf.suite import conductor_bruteforce, factors_through


def teich_root_oracle(p, a, N):
    """Brute-force oracle: the unique (p-1)-st root of unity = a mod p."""
    mod = p**N
    roots = [x for x in range(1, mod)
             if pow(x, p - 1, mod) == 1 and x % p == a % p]
    assert len(roots) == 1
    return roots[0]


class TestTeichmuller:
    def test_examples(self):
        assert teichmuller_int(5, 1, 4) == 1
        assert teichmuller_int(5, 2, 3) == 57
        assert teichmuller_int(5, 4, 3) == 5**3 - 1

    def test_against_root_oracle(self):
        for p in (3, 5, 7):
            for a in range(1, p):
                assert teichmuller_int(p, a, 3) == teich_root_oracle(p, a, 3)

    def test_defining_properties(self):
        for p in (3, 5, 7, 11):
            mod = p**8
            for a in range(1, p):
                w = teichmuller_int(p, a, 8)
                assert w % p == a
                assert pow(w, p - 1, mod) == 1

    @settings(max_examples=200, deadline=None)
    @given(p=st.sampled_from([3, 5, 7, 11, 13, 101, 1009]), a=st.integers(1, 10**6),
           relprec=st.integers(1, 60))
    def test_newton_lift_matches_the_power(self, p, a, relprec):
        if a % p:
            assert teichmuller_int(p, a, relprec) == teichmuller_pow(p, a % p, relprec)

    def test_minus_one(self):
        for p in (3, 5, 7, 11):
            assert teichmuller_int(p, p - 1, 6) == p**6 - 1

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            teichmuller_int(2, 1, 4)
        with pytest.raises(ValueError):
            teichmuller_int(6, 1, 4)
        with pytest.raises(NotAUnit):
            teichmuller_int(5, 10, 4)

    def test_p_is_checked_once_per_cache_entry(self, monkeypatch):
        checked = []
        check = dirichlet.require_odd_prime

        def counted(p):
            checked.append(p)
            check(p)

        monkeypatch.setattr(dirichlet, "require_odd_prime", counted)
        monkeypatch.setattr(dirichlet, "_TEICH_CACHE", {})
        for a in range(1, 200):
            if a % 101:
                assert teichmuller_int(101, a, 5) % 101 == a % 101
        assert checked == [101]
        # a p that fails gets no cache entry, so every call raises
        for _ in range(3):
            with pytest.raises(ValueError):
                teichmuller_int(15, 2, 5)
        assert checked == [101, 15, 15, 15]


class TestFactorize:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 10**6 - 1))
    def test_matches_trial_division(self, n):
        assert dirichlet._factorize(n) == factorize_trial(n)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(0, 3000), min_size=4, max_size=4),
           st.sampled_from([1, 11, 13 * 17, 10**9 + 7]))
    def test_large_exponents(self, exponents, cofactor):
        n = cofactor
        for q, e in zip((2, 3, 5, 7), exponents):
            n *= q**e
        want = {q: e for q, e in zip((2, 3, 5, 7), exponents) if e}
        want.update(factorize_trial(cofactor))
        assert dirichlet._factorize(n) == want

    def test_stops_at_a_prime_cofactor(self):
        # the safe prime 1000000000000007243 = 2 q + 1 with q prime
        q = 500000000000003621
        assert dirichlet._factorize(2 * q) == {2: 1, q: 1}

    def test_refuses_a_composite_cofactor_past_the_bound(self):
        # the cofactor (10^9 + 7)(10^9 + 9) has no factor up to the bound
        with pytest.raises(CostLimitExceeded, match="trial division past"):
            dirichlet._factorize(2 * (10**9 + 7) * (10**9 + 9))


class TestConstruction:
    def test_teich_char_tables(self):
        om5 = make_teich_char(5)
        assert {a: om5.asso_eval(a, 3).unit for a in om5.labels} == {1: 1, 2: 57, 3: 68, 4: 124}
        om3 = make_teich_char(3)
        assert {a: om3.asso_eval(a, 4).unit for a in om3.labels} == {1: 1, 2: 3**4 - 1}

    def test_values_are_roots_of_unity(self):
        for chi, relprec in ((make_teich_char(7), 5), (trivial_character(7, 10), 8),
                             (DirichletCharacter(5, 8, {1: 1, 3: 4, 5: 4, 7: 1}), 8)):
            mod = chi.p**relprec
            for a in chi.labels:
                assert pow(chi.asso_eval(a, relprec).unit, chi.p - 1, mod) == 1

    def test_keys_are_read_as_integers_not_parsed(self):
        with pytest.raises(ValueError, match="key must be an integer, not '2'"):
            DirichletCharacter(5, 3, {1: 1, "2": 4})

    def test_missing_entry_rejected(self):
        with pytest.raises(ValueError, match="missing"):
            DirichletCharacter(5, 5, {1: 1, 2: 2, 3: 3})

    def test_nonunit_key_rejected(self):
        with pytest.raises(ValueError, match="non-unit"):
            DirichletCharacter(5, 4, {1: 1, 2: 1, 3: 1})

    def test_identity_must_map_to_one(self):
        with pytest.raises(ValueError, match="does not send 1 to 1"):
            DirichletCharacter(5, 5, {1: 2, 2: 4, 3: 3, 4: 1})

    def test_unsupported_order(self):
        # 3 has order 6 in (Z/7Z)^x but the label 2 has order 4 in mu_4 at
        # p=5; no character can realize that assignment
        with pytest.raises(UnsupportedOrder):
            DirichletCharacter(5, 7, {1: 1, 2: 1, 3: 2, 4: 1, 5: 1, 6: 1})

    def test_non_multiplicative_names_pair(self):
        with pytest.raises(ValueError, match=r"pair \("):
            DirichletCharacter(5, 8, {1: 1, 3: 4, 5: 4, 7: 4})

    def test_level_one(self):
        chi = trivial_character(5, 1)
        assert chi.asso_eval(0).unit == 1
        assert chi.conductor() == 1
        assert chi.is_even()


class TestAssoEval:
    def test_unit_value(self):
        om5 = make_teich_char(5)
        assert om5.asso_eval(2, 3).unit == 57

    def test_nonunit_is_exact_zero(self):
        om5 = make_teich_char(5)
        assert om5.asso_eval(0).is_exact_zero()
        assert trivial_character(5, 6).asso_eval(3).is_exact_zero()

    def test_precision_override(self):
        om5 = make_teich_char(5)
        assert om5.asso_eval(2).relprec == DEFAULT_RELPREC
        assert om5.asso_eval(2, relprec=5).relprec == 5


class TestLevelChange:
    def test_trivial_extension(self):
        assert trivial_character(5, 1).change_level(6) == trivial_character(5, 6)

    def test_quadratic_extension_example(self):
        quad3 = DirichletCharacter(5, 3, {1: 1, 2: 4})
        q9 = quad3.change_level(9)
        table = residue_table(5, q9.labels)
        signs = {a: (1 if table[a] == 1 else -1) for a in (1, 2, 4, 5, 7, 8)}
        assert signs == {1: 1, 2: -1, 4: 1, 5: -1, 7: 1, 8: -1}

    def test_identity_change(self):
        om = make_teich_char(5)
        assert om.change_level(5) == om

    def test_not_divisible(self):
        with pytest.raises(NotDivisible):
            make_teich_char(5).change_level(7)


class TestConductor:
    def test_examples(self):
        assert trivial_character(5, 12).conductor() == 1
        quad9 = DirichletCharacter(5, 3, {1: 1, 2: 4}).change_level(9)
        assert quad9.conductor() == 3
        assert make_teich_char(5).conductor() == 5

    def test_factors_through(self):
        quad9 = DirichletCharacter(5, 3, {1: 1, 2: 4}).change_level(9)
        assert factors_through(trivial_character(5, 12), 1)
        assert factors_through(quad9, 3)
        assert not factors_through(make_teich_char(5), 1)
        with pytest.raises(NotDivisible):
            factors_through(quad9, 2)

    def test_against_bruteforce_small_levels(self):
        chars = []
        for p in (3, 5, 7):
            for k in range(p - 1):
                chi = char_power(make_teich_char(p), k)
                chars.append(chi)
                if chi.level * 6 <= 100:
                    chars.append(chi.change_level(chi.level * 6))
        chars.append(DirichletCharacter(5, 8, {1: 1, 3: 4, 5: 4, 7: 1}))
        for chi in chars:
            assert chi.conductor() == conductor_bruteforce(chi)

    def test_change_level_preserves_conductor(self):
        quad3 = DirichletCharacter(5, 3, {1: 1, 2: 4})
        for m in (3, 6, 15, 21, 60, 99, 198):
            assert quad3.change_level(m).conductor() == 3

    def test_primitive_round_trip(self):
        quad9 = DirichletCharacter(5, 3, {1: 1, 2: 4}).change_level(9)
        prim = quad9.associated_primitive()
        assert prim == DirichletCharacter(5, 3, {1: 1, 2: 4})
        assert prim.is_primitive()
        assert prim.change_level(9) == quad9
        assert trivial_character(5, 12).associated_primitive() == trivial_character(5, 1)
        om = make_teich_char(5)
        assert om.associated_primitive() == om


class TestMultiplication:
    def test_omega_power_arithmetic(self):
        om = make_teich_char(5)
        assert char_power(om, 2) * char_power(om, 3) == om
        assert (om * char_power(om, 3)).level == 1
        quad3 = DirichletCharacter(5, 3, {1: 1, 2: 4})
        assert quad3 * trivial_character(5, 1) == quad3

    def test_commutative_at_table_level(self):
        om = make_teich_char(5)
        quad3 = DirichletCharacter(5, 3, {1: 1, 2: 4})
        a, b = quad3 * om, om * quad3
        assert a.level == b.level and a == b

    def test_omega_power_orders(self):
        for p in (3, 5, 7):
            om = make_teich_char(p)
            assert char_power(om, p - 1) == trivial_character(p, p)
            for k in range(p - 1):
                chi = char_power(om, k)
                assert chi.conductor() == (1 if k % (p - 1) == 0 else p)

    def test_associativity_spot_check(self):
        om = make_teich_char(5)
        a, b, c = om, char_power(om, 2), char_power(om, 3)
        assert (a * b) * c == a * (b * c)


class TestParity:
    def test_examples(self):
        assert make_teich_char(5).parity() == "odd"
        assert char_power(make_teich_char(5), 2).parity() == "even"
        assert trivial_character(5, 1).parity() == "even"
        assert trivial_character(5, 2).parity() == "even"

    def test_every_character_even_or_odd(self):
        for p in (3, 5, 7):
            for k in range(p - 1):
                chi = char_power(make_teich_char(p), k)
                # chi(-1) = +-1, and it is +1 exactly for even k
                assert residue_table(p, chi.labels)[chi.level - 1] in (1, p - 1)
                assert chi.is_even() == (k % 2 == 0)


class TestDecompose:
    def test_examples(self):
        t15 = trivial_character(5, 15)
        assert decompose_coprime(t15, 3, 5) == (trivial_character(5, 3),
                                                trivial_character(5, 5))
        quad3 = DirichletCharacter(5, 3, {1: 1, 2: 4})
        c1, c2 = decompose_coprime(quad3.change_level(15), 3, 5)
        assert c1 == quad3 and c2 == trivial_character(5, 5)
        c1, c2 = decompose_coprime(make_teich_char(5), 1, 5)
        assert c1.level == 1 and c2 == make_teich_char(5)

    def test_product_recovers_character(self):
        om = make_teich_char(5)
        quad3 = DirichletCharacter(5, 3, {1: 1, 2: 4})
        quad3_table, om_table = residue_table(5, quad3.labels), residue_table(5, om.labels)
        chi = DirichletCharacter(5, 15, {
            u: (quad3_table[u % 3] * om_table[u % 5]) % 5
            for u in units_of(15)
        })
        c1, c2 = decompose_coprime(chi, 3, 5)
        assert c1.change_level(15) * c2.change_level(15) == chi.associated_primitive()
        # first factor is primitive when its level divides the conductor
        assert chi.conductor() == 15 and c1.is_primitive()

    def test_not_coprime(self):
        with pytest.raises(NotCoprime):
            decompose_coprime(trivial_character(5, 9), 3, 3)


class TestSpecsAndTables:
    def test_parse_specs(self):
        assert parse_character_spec("triv", 5) == trivial_character(5, 1)
        assert parse_character_spec("triv", 5).change_level(15) == trivial_character(5, 15)
        assert parse_character_spec("omega^2", 5) == char_power(make_teich_char(5), 2)
        with pytest.raises(ValueError):
            parse_character_spec("omega^x", 5)
        with pytest.raises(ValueError):
            parse_character_spec("nonsense", 5)

    def test_table_round_trip(self, tmp_path):
        quad8 = DirichletCharacter(5, 8, {1: 1, 3: 4, 5: 4, 7: 1})
        path = tmp_path / "chi.json"
        path.write_text(json.dumps(quad8.to_json()))
        loaded = load_table_character(str(path))
        assert loaded == quad8

    def test_one_value_is_one_object(self, tmp_path):
        # characters are interned by value and table files by text, so what
        # a character keeps (label table, conductor, twists) is built once
        chi = parse_character_spec("omega^2", 5).change_level(25)
        assert chi is char_power(make_teich_char(5), 2).change_level(25)
        assert chi.associated_primitive() is parse_character_spec("omega^2", 5)
        assert make_teich_char(5) * make_teich_char(5) is chi.associated_primitive()
        path = tmp_path / "chi.json"
        path.write_text(json.dumps({"p": 5, "modulus": 3, "entries": {"1": 1, "2": 4}}))
        assert load_table_character(str(path)) is load_table_character(str(path))

    def test_a_long_table_text_is_not_kept(self, tmp_path):
        # a large table is checked on every read, so that one read once
        # does not hold its memory in the cache
        chi = char_power(make_teich_char(5), 2).change_level(1000)
        text = json.dumps(chi.to_json())
        assert len(text) > dirichlet.MAX_CACHED_TABLE_TEXT
        path = tmp_path / "chi.json"
        path.write_text(text)
        kept = dirichlet._table_character.cache_info().currsize
        first, second = load_table_character(str(path)), load_table_character(str(path))
        assert first == second == chi and first is not second
        assert dirichlet._table_character.cache_info().currsize == kept
        # what is derived from it is interned all the same
        assert first.associated_primitive() is second.associated_primitive()

    def test_table_validation_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(
            {"p": 5, "modulus": 8, "entries": {"1": 1, "3": 4, "5": 4, "7": 4}}
        ))
        with pytest.raises(ValueError, match=r"pair \("):
            load_table_character(str(path))

    def test_table_via_spec(self, tmp_path):
        path = tmp_path / "chi.json"
        path.write_text(json.dumps(
            {"p": 5, "modulus": 3, "entries": {"1": 1, "2": 4}}
        ))
        chi = parse_character_spec(f"table:{path}", 5)
        assert chi.conductor() == 3 and not chi.is_even()
        with pytest.raises(ValueError, match="over p="):
            parse_character_spec(f"table:{path}", 7)


def test_multiplicativity_invariant_on_all_paths():
    # construction, power, level change, and product keep tables multiplicative
    for chi in (make_teich_char(7),
                char_power(make_teich_char(7), 3).change_level(21),
                make_teich_char(5) * DirichletCharacter(5, 3, {1: 1, 2: 4})):
        table = residue_table(chi.p, chi.labels)
        for a in table:
            for b in table:
                assert table[a] * table[b] % chi.p == table[a * b % chi.level]
