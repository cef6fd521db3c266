import gc
import hashlib
import random
from itertools import product

import pytest

from permlab.algebra import (
    CIRCULAR,
    LINEAR,
    Arrangement,
    CyclicProduct,
    GroundSet,
    Integers,
    IntegerVectors,
    PrimeField,
    PrimePowerField,
    element_coords,
    element_from_coords,
    field_make,
    field_spec_for,
    field_view,
    group_add,
    group_add_all,
    group_cmp,
    group_elements,
    group_mul,
    group_mul_all,
    group_neg,
    group_neg_all,
    group_sub,
    spec_from_dict,
    spec_to_dict,
    sylow2_cyclic,
    validate_element,
    validate_elements,
)
# the irreducibility test and the product the field tables are built from
from permlab.algebra import _is_irreducible, _ppf_mul_raw
from permlab.conjectures import _GROUPS_BY_ORDER
from permlab.numtheory import factorize, is_prime

SPECS = [
    Integers(),
    IntegerVectors(2),
    IntegerVectors(3),
    CyclicProduct((12,)),
    CyclicProduct((2, 2)),
    CyclicProduct((4, 3, 5)),
    PrimeField(13),
]


def random_element(rng, spec):
    if isinstance(spec, Integers):
        return rng.randint(-10**6, 10**6)
    if isinstance(spec, IntegerVectors):
        return tuple(rng.randint(-1000, 1000) for _ in range(spec.rank))
    if isinstance(spec, CyclicProduct):
        if len(spec.moduli) == 1:
            return rng.randrange(spec.moduli[0])
        return tuple(rng.randrange(m) for m in spec.moduli)
    return rng.randrange(spec.p)


class TestGroupOps:
    def test_examples(self):
        assert group_add(Integers(), 3, -5) == -2
        assert group_add(CyclicProduct((2, 2)), (1, 0), (1, 1)) == (0, 1)
        assert group_cmp(IntegerVectors(2), (1, 7), (2, 0)) == -1

    def test_axioms_randomized(self):
        rng = random.Random(0)
        for spec in SPECS:
            zero = group_sub(spec, random_element(rng, spec), random_element(rng, spec))
            zero = group_sub(spec, zero, zero)
            for _ in range(1000):
                x = random_element(rng, spec)
                y = random_element(rng, spec)
                z = random_element(rng, spec)
                assert group_add(spec, group_add(spec, x, y), z) == group_add(
                    spec, x, group_add(spec, y, z)
                )
                assert group_add(spec, x, zero) == x
                assert group_add(spec, x, group_neg(spec, x)) == zero
                assert group_add(spec, x, y) == group_add(spec, y, x)

    def test_order_compatible_with_addition(self):
        rng = random.Random(1)
        for spec in (Integers(), IntegerVectors(2), IntegerVectors(3)):
            for _ in range(1000):
                a = random_element(rng, spec)
                b = random_element(rng, spec)
                if a == b:
                    continue
                if group_cmp(spec, a, b) == 1:
                    a, b = b, a
                c = random_element(rng, spec)
                assert group_cmp(spec, group_add(spec, a, c), group_add(spec, b, c)) == -1
                assert group_cmp(spec, group_neg(spec, b), group_neg(spec, a)) == -1

    def test_no_order_on_finite_groups(self):
        with pytest.raises(ValueError):
            group_cmp(CyclicProduct((5,)), 1, 2)
        with pytest.raises(ValueError):
            group_cmp(PrimeField(7), 1, 2)

    def test_validate_element(self):
        validate_element(CyclicProduct((2, 2)), (1, 1))
        with pytest.raises(ValueError):
            validate_element(CyclicProduct((2, 2)), (2, 0))
        with pytest.raises(ValueError):
            validate_element(Integers(), (1,))
        with pytest.raises(ValueError):
            validate_element(PrimeField(5), 5)


class TestFields:
    def test_field_29_squares(self):
        fv = field_make(29)
        assert fv.squares == frozenset(
            {1, 4, 5, 6, 7, 9, 13, 16, 20, 22, 23, 24, 25, 28}
        )
        assert len(fv.nonsquares) == 14

    def test_field_9(self):
        fv = field_make(3, 2)
        assert fv.q == 9
        assert len(fv.squares) == 4

    def test_field_2(self):
        fv = field_make(2)
        assert fv.squares == frozenset({1})
        assert fv.nonsquares == frozenset()

    def test_exp_log_roundtrip(self):
        for q in (3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27, 29, 31, 32, 49):
            p, k = field_spec_for(q).p, 1
            spec = field_spec_for(q)
            if isinstance(spec, PrimePowerField):
                p, k = spec.p, spec.k
            fv = field_make(p, k)
            for x in range(1, q):
                assert fv.exp_table[fv.log_table[x]] == x

    def test_nonsquare_products_are_squares(self):
        for q in (5, 7, 9, 11, 13, 25, 27, 49):
            spec = field_spec_for(q)
            fv = field_view(spec)
            for a in fv.nonsquares:
                for b in fv.nonsquares:
                    assert fv.mul(a, b) in fv.squares

    def test_prime_field_mul_agrees(self):
        for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
            fv = field_make(p)
            for x in range(p):
                for y in range(p):
                    assert fv.mul(x, y) == x * y % p

    def test_capacity_and_usage_errors(self):
        with pytest.raises(ValueError):
            field_make(2, 25)
        with pytest.raises(ValueError):
            field_make(6)

    def test_size_cap_before_the_search(self, monkeypatch):
        def search(p, k):
            raise AssertionError(f"searched for a modulus of degree {k} over F_{p}")

        monkeypatch.setattr("permlab.algebra._smallest_irreducible", search)
        with pytest.raises(ValueError, match=r"field size 2\*\*34 exceeds 1048576"):
            field_spec_for(2**34)

    def test_presentation(self):
        # the moduli every prime-power table and recorded witness rests on
        qs = sorted(p**k for p in range(2, 1025) if is_prime(p)
                    for k in range(2, 21) if p**k <= 1 << 20)
        polys = [field_spec_for(q).poly for q in qs]
        assert len(qs) == 242
        assert hashlib.sha1(repr(polys).encode()).hexdigest() == \
            "ab0b40537bad912d258e630253a06136aa97547b"

    def test_irreducible_iff_no_root(self):
        # a polynomial of degree 2 or 3 is reducible iff it has a linear factor
        for p in (2, 3, 5, 7):
            for k in (2, 3):
                for coeffs in product(range(p), repeat=k):
                    poly = (*coeffs, 1)
                    has_root = any(sum(c * x**i for i, c in enumerate(poly)) % p == 0
                                   for x in range(p))
                    assert _is_irreducible(poly, p) == (not has_root), (p, poly)

    def test_field_mul_distributes(self):
        rng = random.Random(2)
        for q in (8, 9, 27, 25):
            spec = field_spec_for(q)
            fv = field_view(spec)
            for _ in range(500):
                x, y, z = (rng.randrange(q) for _ in range(3))
                left = fv.mul(x, group_add(spec, y, z))
                right = group_add(spec, fv.mul(x, y), fv.mul(x, z))
                assert left == right

    def test_tables_match_the_element_by_element_build(self):
        # every field the catalog and the benchmark workloads build (q <= 150
        # there), and a prime above 10^5 as the quadratic-residue constructions use
        qs = [q for q in range(2, 1100) if len(factorize(q).pairs) == 1] + [101_737]
        for q in qs:
            spec = field_spec_for(q)
            fv = field_view(spec)
            assert (fv.generator, fv.exp_table, fv.log_table, fv.squares, fv.nonsquares) == \
                _reference_tables(spec), q

    def test_deterministic_polynomial(self):
        s1 = field_spec_for(27)
        s2 = field_spec_for(27)
        assert s1 == s2
        assert field_make(3, 3).generator == field_make(3, 3).generator


def _reference_tables(spec):
    """field_view's generator, tables and square split, one element at a
    time, as they were built before the tables were built in blocks."""
    if isinstance(spec, PrimeField):
        q = spec.p
        mul = lambda x, y: x * y % q
    else:
        q = spec.q
        mul = lambda x, y: _ppf_mul_raw(spec, x, y)

    def power(g, e):
        acc = 1
        while e:
            if e & 1:
                acc = mul(acc, g)
            g, e = mul(g, g), e >> 1
        return acc

    primes = factorize(q - 1).primes()
    generator = 1 if q == 2 else next(
        g for g in range(2, q) if all(power(g, (q - 1) // r) != 1 for r in primes))
    exp = [1] * (q - 1)
    for i in range(1, q - 1):
        exp[i] = mul(exp[i - 1], generator)
    log = [0] * q
    for i, v in enumerate(exp):
        log[v] = i
    squares = frozenset(exp[i] for i in range(0, q - 1, 2)) if q % 2 else frozenset(exp)
    return generator, tuple(exp), tuple(log), squares, frozenset(range(1, q)) - squares


class TestSylow2Cyclic:
    def test_at_most_one_involution(self):
        # an abelian 2-group is cyclic iff at most one x != 0 has 2x = 0
        moduli_lists = [g for groups in _GROUPS_BY_ORDER.values() for g in groups]
        moduli_lists += list(product((2, 3, 4, 6, 8, 12), repeat=3))
        for moduli in moduli_lists:
            spec = CyclicProduct(moduli)
            zero = group_elements(spec)[0]
            involutions = sum(x != zero and group_add(spec, x, x) == zero
                              for x in group_elements(spec))
            assert sylow2_cyclic(spec) == (involutions <= 1), moduli

    def test_sylow(self):
        assert sylow2_cyclic(CyclicProduct((4,)))
        assert not sylow2_cyclic(CyclicProduct((2, 2)))
        assert sylow2_cyclic(CyclicProduct((2, 3)))
        assert not sylow2_cyclic(CyclicProduct((2, 4, 3)))
        assert sylow2_cyclic(CyclicProduct((8, 3, 9)))


class TestArrangement:
    def test_distinctness(self):
        with pytest.raises(ValueError):
            Arrangement(Integers(), LINEAR, (1, 1))
        with pytest.raises(ValueError):
            Arrangement(Integers(), "ring", (1, 2))

    def test_edges(self):
        a = Arrangement(Integers(), CIRCULAR, (1, 2, 3))
        assert a.edge_index_pairs() == [(0, 1), (1, 2), (2, 0)]
        b = Arrangement(Integers(), CIRCULAR, (1, 2))
        assert b.edge_index_pairs() == [(0, 1), (1, 0)]
        c = Arrangement(Integers(), CIRCULAR, (1,))
        assert c.edge_index_pairs() == []
        d = Arrangement(Integers(), LINEAR, (1, 2, 3))
        assert d.edge_index_pairs() == [(0, 1), (1, 2)]
        assert d.triple_index_runs() == [(0, 1, 2)]
        assert a.triple_index_runs() == [(0, 1, 2), (1, 2, 0), (2, 0, 1)]

    def test_ground_set(self):
        with pytest.raises(ValueError):
            GroundSet(Integers(), ())
        with pytest.raises(ValueError):
            GroundSet(Integers(), (1, 1))


# every spec kind, the fields in both characteristics included
SEQUENCE_SPECS = SPECS + [field_spec_for(8), field_spec_for(9), field_spec_for(27)]

# elements validate_element refuses, per spec; True passes as the int 1
BAD_ELEMENTS = {
    Integers(): ("a", 1.5, (1,), None),
    IntegerVectors(2): ((1,), (1, 2, 3), (1, 2.0), [1, 2], 5),
    IntegerVectors(3): ((1, 2), ("a", 0, 0)),
    CyclicProduct((12,)): (12, -1, (1,), 1.0),
    CyclicProduct((2, 2)): ((2, 0), (0, -1), (0,), 1, (0, 1.0)),
    CyclicProduct((4, 3, 5)): ((3, 3, 4), (0, 0, 5)),
    PrimeField(13): (13, -1, 2.0),
    field_spec_for(8): (8, -1),
    field_spec_for(9): (9, (1, 1)),
    field_spec_for(27): (27,),
}


# integer vectors and cyclic products of ranks 1 to 3
RANKED_SPECS = [
    IntegerVectors(1), IntegerVectors(2), IntegerVectors(3),
    CyclicProduct((5,)), CyclicProduct((3, 4)), CyclicProduct((2, 3, 5)),
]


def any_element(rng, spec):
    if isinstance(spec, PrimePowerField):
        return rng.randrange(spec.q)
    return random_element(rng, spec)


def _first_error(fn, *args):
    try:
        fn(*args)
    except ValueError as exc:
        return str(exc)
    return None


def _reference_members(spec, elements, what):
    """GroundSet's and Arrangement's element checks as one loop, as they
    were written before the whole-sequence checks."""
    if not elements:
        raise ValueError(f"{what} is empty")
    seen = set()
    for x in elements:
        validate_element(spec, x)
        if x in seen:
            raise ValueError(f"duplicate element {x!r}")
        seen.add(x)


class TestWholeSequenceOps:
    def test_match_one_element_ops(self):
        rng = random.Random(6)
        cases = []
        for spec in SEQUENCE_SPECS:
            for n in (0, 1, 2, 7, 40):
                xs = [any_element(rng, spec) for _ in range(n)]
                ys = [any_element(rng, spec) for _ in range(n)]
                cases.append((spec, xs, ys, any_element(rng, spec)))
        # every pair over three prime-power fields, so that 0 * 0 and a
        # carry out of every digit occur, which random pairs can miss
        for q in (9, 25, 27):
            xs, ys = map(list, zip(*product(range(q), repeat=2)))
            cases.append((field_spec_for(q), xs, ys, q - 1))
        for spec, xs, ys, c in cases:
            assert group_add_all(spec, xs, ys) == [group_add(spec, x, y) for x, y in zip(xs, ys)]
            assert group_neg_all(spec, xs) == [group_neg(spec, x) for x in xs]
            assert group_add_all(spec, [c] * len(ys), ys) == [group_add(spec, c, y) for y in ys]
            try:
                group_mul(spec, c, c)
            except ValueError as exc:  # a group has no product
                assert _first_error(group_mul_all, spec, xs, ys) == str(exc)
            else:
                assert group_mul_all(spec, xs, ys) == [group_mul(spec, x, y) for x, y in zip(xs, ys)]

    def test_validate_elements_names_the_first_bad_element(self):
        rng = random.Random(7)
        for spec in SEQUENCE_SPECS:
            good = [any_element(rng, spec) for _ in range(30)]
            validate_elements(spec, good)
            validate_elements(spec, [])
            for bad in BAD_ELEMENTS[spec]:
                for at in (0, 13, 30):
                    xs = good[:at] + [bad] + good[at:] + [bad]
                    assert _first_error(validate_elements, spec, xs) == _first_error(
                        validate_element, spec, bad)

    def test_bools_pass_as_ints(self):
        validate_elements(Integers(), [True, False, 2])
        validate_elements(PrimeField(13), [True, 12])
        validate_elements(CyclicProduct((2, 2)), [(True, 0), (0, 1)])
        GroundSet(Integers(), (True, 2))
        with pytest.raises(ValueError, match="duplicate element 1"):
            GroundSet(Integers(), (True, 2, 1))

    def test_member_errors_match_the_element_loop(self):
        rng = random.Random(8)
        for spec in SEQUENCE_SPECS:
            good = list(dict.fromkeys(any_element(rng, spec) for _ in range(20)))
            cases = [(), tuple(good)]
            for bad in BAD_ELEMENTS[spec]:
                # a bad element before a duplicate, and after one
                cases.append(tuple(good[:5] + [bad] + good[2:4] + good[5:]))
                cases.append(tuple(good[:5] + good[2:4] + [bad] + good[5:]))
            for elements in cases:
                for make, what in ((GroundSet, "ground set"), (Arrangement, "arrangement")):
                    args = (spec, elements) if make is GroundSet else (spec, CIRCULAR, elements)
                    assert _first_error(make, *args) == _first_error(
                        _reference_members, spec, elements, what), (spec, elements)

    def test_member_messages(self):
        with pytest.raises(ValueError, match=r"^expected int, got 'a'$"):
            GroundSet(Integers(), (1, "a", 1))
        with pytest.raises(ValueError, match=r"^duplicate element 1$"):
            GroundSet(Integers(), (1, 1, "a"))
        with pytest.raises(ValueError, match=r"^expected reduced tuple for moduli \(2, 4\), got \(0, 4\)$"):
            Arrangement(CyclicProduct((2, 4)), LINEAR, ((0, 0), (0, 4)))
        with pytest.raises(ValueError, match=r"^expected 2-tuple of ints, got \(1, 2, 3\)$"):
            Arrangement(IntegerVectors(2), LINEAR, ((0, 0), (1, 2, 3)))
        with pytest.raises(ValueError, match=r"^expected encoded field element in \[0, 9\), got 9$"):
            GroundSet(field_spec_for(9), (0, 9))
        with pytest.raises(ValueError, match=r"^arrangement is empty$"):
            Arrangement(Integers(), LINEAR, ())

    def test_ranks_one_to_three(self):
        rng = random.Random(10)
        for spec in RANKED_SPECS:
            for n in (0, 1, 2, 9, 60):
                xs = [random_element(rng, spec) for _ in range(n)]
                ys = [random_element(rng, spec) for _ in range(n)]
                assert group_add_all(spec, xs, ys) == list(map(group_add, [spec] * n, xs, ys))
                assert group_neg_all(spec, xs) == [group_neg(spec, x) for x in xs]
                validate_elements(spec, xs)

    def test_unreduced_residues(self):
        # the ops reduce what they are given, as the one-element ops do;
        # validation names the first residue out of range
        rng = random.Random(11)
        for spec in RANKED_SPECS:
            if not isinstance(spec, CyclicProduct):
                continue
            moduli = spec.moduli
            wide = [tuple(rng.randrange(-2 * m, 2 * m) for m in moduli) for _ in range(40)]
            if len(moduli) == 1:
                wide = [x for (x,) in wide]
            assert group_add_all(spec, wide, wide[::-1]) == list(
                map(group_add, [spec] * 40, wide, wide[::-1]))
            assert group_neg_all(spec, wide) == [group_neg(spec, x) for x in wide]
            bad = next(x for x in wide if _first_error(validate_element, spec, x))
            assert _first_error(validate_elements, spec, wide) == _first_error(
                validate_element, spec, bad)

    def test_bad_ranks(self):
        rng = random.Random(12)
        for spec in RANKED_SPECS:
            rank = spec.rank if isinstance(spec, IntegerVectors) else len(spec.moduli)
            good = list(dict.fromkeys(random_element(rng, spec) for _ in range(20)))
            for bad in ((0,) * (rank + 1), (0,) * (rank - 1), (1,) * (rank + 2)):
                for at in (0, 7, len(good)):
                    xs = good[:at] + [bad] + good[at:]
                    want = _first_error(validate_element, spec, bad)
                    assert want is not None
                    assert _first_error(validate_elements, spec, xs) == want
                    assert _first_error(GroundSet, spec, tuple(xs)) == want

    def test_no_object_per_element(self):
        """The tuple ops allocate their results and no other object per
        element.  The cyclic collector runs once per `threshold` net
        allocations of objects it tracks, so n new tuples cost about
        n / threshold collections; a transpose with zip(*xs), which makes an
        iterator per element, cost twice or three times that."""
        threshold = gc.get_threshold()[0]
        if not gc.isenabled() or not threshold:
            pytest.skip("the cyclic collector is off")
        n = 50_000
        rng = random.Random(13)
        runs = []

        def count(phase, info):
            if phase == "start":
                runs.append(info["generation"])

        for spec in (IntegerVectors(2), CyclicProduct((7, 11, 13))):
            xs = [random_element(rng, spec) for _ in range(n)]
            ys = xs[::-1]
            # validation makes no tuple at all
            for op, args, most in ((group_add_all, (spec, xs, ys), 1.5),
                                   (group_neg_all, (spec, xs), 1.5),
                                   (validate_elements, (spec, xs), 0.5)):
                gc.collect()
                runs.clear()
                gc.callbacks.append(count)
                try:
                    op(*args)
                finally:
                    gc.callbacks.remove(count)
                assert len(runs) <= most * n / threshold, (spec, op.__name__, len(runs))


class TestSerialization:
    def test_spec_roundtrip(self):
        for spec in SPECS + [field_spec_for(8), field_spec_for(27)]:
            assert spec_from_dict(spec_to_dict(spec)) == spec

    def test_element_roundtrip(self):
        rng = random.Random(4)
        for spec in SPECS:
            for _ in range(50):
                x = random_element(rng, spec)
                assert element_from_coords(spec, element_coords(spec, x)) == x

    def test_field_element_coords(self):
        spec = field_spec_for(9)
        for x in range(9):
            coords = element_coords(spec, x)
            assert len(coords) == 2
            assert element_from_coords(spec, coords) == x
