import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permlab.numtheory import (
    MODULAR_KINDS,
    PredicateSpec,
    PredicateTable,
    euler_phi,
    eval_predicate,
    factorize,
    find_primitive_root,
    first_n_primes,
    has_primitive_root,
    is_prime,
    is_primitive_root,
    is_quadratic_residue,
    predicate_allows,
    primes_upto,
)


def trial_division(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class TestIsPrime:
    def test_examples(self):
        assert is_prime(2)
        assert not is_prime(1)
        assert is_prime(541)

    def test_agrees_with_sieve_to_1e4(self):
        sieve = primes_upto(10**4)
        for n in range(10**4 + 1):
            assert is_prime(n) == (n in sieve)

    def test_known_large(self):
        assert is_prime(2**61 - 1)
        assert not is_prime(2**62 - 1)
        # strong pseudoprimes to single bases must still be rejected
        assert not is_prime(3215031751)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            is_prime(2**64)
        with pytest.raises(ValueError):
            is_prime(-3)

    @given(st.integers(min_value=0, max_value=10**7))
    @settings(max_examples=300)
    def test_matches_trial_division(self, n):
        assert is_prime(n) == trial_division(n)


class TestSieve:
    def test_examples(self):
        assert primes_upto(10).primes() == [2, 3, 5, 7]
        assert primes_upto(2).primes() == [2]
        assert primes_upto(100).count() == 25

    def test_limit_too_small(self):
        with pytest.raises(ValueError):
            primes_upto(1)

    def test_first_n_primes(self):
        assert first_n_primes(5) == [2, 3, 5, 7, 11]
        ps = first_n_primes(100)
        assert len(ps) == 100 and ps[-1] == 541


class TestFactorize:
    def test_small(self):
        assert factorize(1).pairs == ()
        assert factorize(12).pairs == ((2, 2), (3, 1))
        assert factorize(97).pairs == ((97, 1),)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            factorize(0)

    @given(st.integers(min_value=1, max_value=10**12))
    @settings(max_examples=200, deadline=None)
    def test_roundtrip(self, n):
        f = factorize(n)
        prod = 1
        for p, e in f:
            assert is_prime(p)
            prod *= p**e
        assert prod == n
        assert list(f.primes()) == sorted(f.primes())


class TestEulerPhi:
    def test_examples(self):
        assert euler_phi(1) == 1
        assert euler_phi(9) == 6
        assert euler_phi(27) == 18

    def test_zero(self):
        with pytest.raises(ValueError):
            euler_phi(0)

    def test_multiplicative_on_coprime_pairs(self):
        from math import gcd

        rng = random.Random(0)
        done = 0
        while done < 1000:
            a = rng.randint(1, 10**4)
            b = rng.randint(1, 10**4)
            if gcd(a, b) != 1:
                continue
            assert euler_phi(a * b) == euler_phi(a) * euler_phi(b)
            done += 1


class TestPrimitiveRoots:
    def test_examples(self):
        assert is_primitive_root(3, 7)
        assert not is_primitive_root(2, 7)
        assert is_primitive_root(6, 11)
        assert find_primitive_root(7) == 3
        assert find_primitive_root(11) == 2
        assert find_primitive_root(9) == 2

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            is_primitive_root(3, 8)  # no primitive roots mod 8
        with pytest.raises(ValueError):
            is_primitive_root(6, 9)  # shared factor

    def test_count_matches_phi_phi(self):
        for n in range(3, 10**4 + 1):
            if not has_primitive_root(n):
                continue
            from math import gcd

            count = sum(
                1
                for g in range(1, n)
                if gcd(g, n) == 1 and is_primitive_root(g, n)
            )
            assert count == euler_phi(euler_phi(n)), n


class TestQuadraticResidues:
    def test_examples(self):
        assert is_quadratic_residue(5, 29)
        assert not is_quadratic_residue(2, 11)
        for p in (3, 5, 7, 11, 13, 101):
            assert is_quadratic_residue(1, p)

    def test_zero_class_rejected(self):
        with pytest.raises(ValueError):
            is_quadratic_residue(22, 11)

    def test_half_are_residues(self):
        for p in primes_upto(1000).primes():
            if p == 2:
                continue
            count = sum(1 for a in range(1, p) if is_quadratic_residue(a, p))
            assert count == (p - 1) // 2


class TestPredicates:
    def test_examples(self):
        assert eval_predicate(PredicateSpec("twin_index"), 1)
        assert eval_predicate(PredicateSpec("sophie_germain_index"), 1)
        assert eval_predicate(PredicateSpec("primitive_root_mod", (11,)), 6)

    def test_twin_index_definition_to_1e5(self):
        sieve = primes_upto(6 * 10**5 + 1)
        spec = PredicateSpec("twin_index")
        table = PredicateTable(spec, 1, 10**5)
        for k in range(1, 10**5 + 1):
            expect = (6 * k - 1) in sieve and (6 * k + 1) in sieve
            assert table.lookup(k) == expect
        for k in random.Random(1).sample(range(1, 10**5), 500):
            assert eval_predicate(spec, k) == table.lookup(k)

    def test_strict_domain(self):
        with pytest.raises(ValueError):
            eval_predicate(PredicateSpec("twin_index"), 0)
        with pytest.raises(ValueError):
            eval_predicate(PredicateSpec("primitive_root_mod", (11,)), 22)
        with pytest.raises(ValueError):
            eval_predicate(PredicateSpec("prime_shift", (4, -1)), -1)

    def test_lenient_matches_strict_in_domain(self):
        specs = [
            PredicateSpec("twin_index"),
            PredicateSpec("sophie_germain_index"),
            PredicateSpec("prime"),
            PredicateSpec("prime_shift", (2, 1)),
            PredicateSpec("prime_shift", (4, -1)),
            PredicateSpec("coprime_to", (90,)),
            PredicateSpec("primitive_root_mod", (11,)),
            PredicateSpec("quadratic_residue_mod", (13,)),
            PredicateSpec("quadratic_nonresidue_mod", (13,)),
        ]
        for spec in specs:
            for k in range(1, 200):
                try:
                    strict = eval_predicate(spec, k)
                except ValueError:
                    assert not predicate_allows(spec, k)
                else:
                    assert strict == predicate_allows(spec, k)

    def test_lenient_zero_mod_is_false(self):
        assert not predicate_allows(PredicateSpec("primitive_root_mod", (11,)), 0)
        assert not predicate_allows(PredicateSpec("quadratic_residue_mod", (11,)), 22)

    def test_tables_match_direct(self):
        rng = random.Random(3)
        for spec in (
            PredicateSpec("prime"),
            PredicateSpec("prime_shift", (4, 1)),
            PredicateSpec("coprime_to", (48,)),
            PredicateSpec("sophie_germain_index"),
        ):
            table = PredicateTable(spec, -50, 400)
            for _ in range(300):
                k = rng.randint(-50, 400)
                assert table.lookup(k) == predicate_allows(spec, k), (spec, k)

    def test_range_table_covers_negative_arguments(self):
        # k + 10 is prime for k = -3, -7, -9: the table must not read every
        # negative k as false
        spec = PredicateSpec("prime_shift", (1, 10))
        table = PredicateTable(spec, -30, 30)
        for k in range(-30, 31):
            assert table.lookup(k) == predicate_allows(spec, k), k

    def test_truths_match_lookup_inside_and_outside_the_table(self):
        for spec, lo, hi in (
            (PredicateSpec("prime_shift", (3, -4)), -5, 40),
            (PredicateSpec("twin_index"), 0, 30),
            (PredicateSpec("coprime_to", (0,)), 0, 0),
        ):
            table = PredicateTable(spec, lo, hi)
            labels = list(range(lo - 20, hi + 20, 3))
            expected = bytes(predicate_allows(spec, k) for k in labels)
            assert table.truths(labels) == expected, spec
            assert table.truths(labels[5:9]) == expected[5:9], spec

    @pytest.mark.parametrize("kind", MODULAR_KINDS)
    def test_table_refuses_modular_kinds(self, kind):
        # the modular kinds are read off the field tables of F_q
        with pytest.raises(ValueError, match="field tables"):
            PredicateTable(PredicateSpec(kind, (13,)))

    def test_bad_specs(self):
        with pytest.raises(ValueError):
            PredicateSpec("prime_shift", (0, 1))
        with pytest.raises(ValueError):
            PredicateSpec("no_such_kind")
        with pytest.raises(ValueError):
            PredicateSpec("primitive_root_mod", ())
