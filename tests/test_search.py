import hashlib
import random
import re
import tracemalloc
from itertools import count, permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    field_spec_for,
    field_view,
    group_add,
    group_double,
    group_elements,
    group_mul,
    group_neg_all,
    group_sub,
)
from permlab.numtheory import (
    MODULAR_KINDS,
    PredicateSpec,
    factorize,
    is_prime,
    predicate_allows,
)
from permlab.search import (
    CheckReport,
    Constraint,
    PredicateClause,
    RainbowClause,
    Violation,
    _columns,
    _compile_adjacency,
    _field_table,
    _predicate_evaluator,
    _rainbow_tracker,
    _square_class_table,
    brute_force_enumerate,
    canonical_form,
    check,
    check_pair_numbering,
    predicate_labels,
    rainbow_labels,
    search,
    search_pair_numbering,
)

Z = Integers()


def ints(*xs):
    return GroundSet(Z, tuple(xs))


def rainbow(kind, modulus=None, first=None, last=None):
    return Constraint((RainbowClause(kind, modulus),), first=first, last=last)


def predicate(kind, params=(), labeler="sum", a0=None, first=None, last=None):
    return Constraint(
        (PredicateClause(PredicateSpec(kind, params), labeler, a0=a0),),
        first=first,
        last=last,
    )


class TestCheck:
    def test_primitive_sum_cycle_mod_11(self):
        arr = Arrangement(PrimeField(11), CIRCULAR, (0, 6, 7, 1, 5, 3, 10, 8, 9, 4, 2))
        assert check(arr, predicate("primitive_root_mod", (11,))).ok

    def test_product_minus_one_cycle_mod_11(self):
        arr = Arrangement(PrimeField(11), CIRCULAR, (1, 9, 2, 4, 5, 8, 10, 3, 6, 7))
        assert check(
            arr, predicate("primitive_root_mod", (11,), "product_minus_one")
        ).ok

    def test_rainbow_sum_failure_localized(self):
        arr = Arrangement(CyclicProduct((4,)), CIRCULAR, (1, 2, 3, 0))
        report = check(arr, rainbow("sum"))
        assert not report.ok
        v = report.first
        assert v.clause_index == 0
        assert len(v.positions) == 4  # both offending edges

    def test_pin_violations(self):
        arr = Arrangement(Z, LINEAR, (2, 1, 3))
        report = check(arr, rainbow("distance", first=1))
        assert not report.ok and report.first.clause_index is None

    def test_checker_hand_computed(self):
        # 2*1*2+1 = 5 and 2*2*4+1 = 17 are prime but the wrap edge gives
        # 2*4*1+1 = 9, so the report must localize the failure to (2, 0)
        arr = Arrangement(Z, CIRCULAR, (1, 2, 4))
        report = check(arr, predicate("prime", (), "two_product_plus_one"))
        assert not report.ok
        assert report.first.positions == (2, 0)


class TestSearchBasics:
    def test_odd_mod_diff_exhausted(self):
        out = search(ints(1, 2, 3), LINEAR, rainbow("diff", modulus=3))
        assert out.status == "exhausted"
        cnt, _ = brute_force_enumerate(ints(1, 2, 3), LINEAR, rainbow("diff", modulus=3))
        assert cnt == 0

    def test_filz_first_witness(self):
        out = search(ints(1, 2, 3, 4), CIRCULAR, predicate("prime"))
        assert out.status == "witness"
        assert out.witness.elements == (1, 2, 3, 4)

    def test_filz_circle_counts(self):
        # prime circles of 1..2m up to rotation and reflection, OEIS A051252
        expected = [1, 1, 1, 2, 48, 512, 1440]
        counts = [
            search(ints(*range(1, 2 * m + 1)), CIRCULAR, predicate("prime"),
                   count_witnesses=True).witness_count
            for m in range(1, 8)
        ]
        assert counts == expected

    def test_sign_pair_set_exhausted(self):
        cons = Constraint((RainbowClause("sum"), RainbowClause("product")))
        out = search(ints(1, -1, 2, -2), CIRCULAR, cons)
        assert out.status == "exhausted"
        cnt, _ = brute_force_enumerate(ints(1, -1, 2, -2), CIRCULAR, cons)
        assert cnt == 0

    def test_budget_exceeded(self):
        out = search(ints(*range(12)), CIRCULAR, rainbow("sum"), budget=10)
        assert out.status == "budget"
        assert out.nodes == 11
        # a witness found at the last node the budget allows is a witness
        nodes = search(ints(1, 2, 3, 4), CIRCULAR, predicate("prime")).nodes
        out = search(ints(1, 2, 3, 4), CIRCULAR, predicate("prime"), budget=nodes)
        assert (out.status, out.nodes) == ("witness", nodes)
        out = search(ints(1, 2, 3, 4), CIRCULAR, predicate("prime"), budget=nodes - 1)
        assert (out.status, out.nodes, out.witness) == ("budget", nodes, None)

    def test_singleton(self):
        # a single element is its own arrangement, found in one node, on
        # either shape and under any clause or pin
        cases = [
            (ints(7), rainbow("sum")),
            (ints(7), predicate("prime")),
            (ints(7), rainbow("diff", first=7, last=7)),
            (GroundSet(CyclicProduct((7,)), (3,)), rainbow("diff")),
        ]
        for (ground, cons), shape, counting in product(cases, (LINEAR, CIRCULAR), (False, True)):
            out = search(ground, shape, cons, count_witnesses=counting)
            assert (out.status, out.nodes) == ("witness", 1), (cons, shape)
            assert out.witness == Arrangement(ground.spec, shape, ground.elements)
            assert out.witness_count == (1 if counting else None)
            assert brute_force_enumerate(ground, shape, cons)[0] == 1

    def test_two_cycle_sum_rainbow_impossible(self):
        out = search(ints(1, 2), CIRCULAR, rainbow("sum"))
        assert out.status == "exhausted"

    def test_two_cycle_diff_rainbow_fine(self):
        out = search(ints(1, 2), CIRCULAR, rainbow("diff"))
        assert out.status == "witness"

    def test_pins(self):
        out = search(ints(11, 13, 17, 19, 23, 29), CIRCULAR,
                     rainbow("distance", first=11, last=29))
        assert out.status == "witness"
        w = out.witness.elements
        assert w[0] == 11 and w[-1] == 29

    def test_distance_rainbow_range_cycle_impossible(self):
        # a 6-cycle over 0..5 has 6 edges but only 5 possible distances
        out = search(ints(0, 1, 2, 3, 4, 5), CIRCULAR, rainbow("distance"))
        assert out.status == "exhausted"

    def test_witness_checked_in_kernel(self):
        # every returned witness re-passes the direct checker
        for n in range(4, 9):
            out = search(ints(*range(n)), CIRCULAR, rainbow("distance"))
            if out.status == "witness":
                assert check(out.witness, rainbow("distance")).ok


class TestPinnedStarts:
    def test_last_pin_alone_tries_every_start(self):
        # both circles end at 11, and neither has the minimum right after
        # it; the walk starts at 11 and meets them in the lex order of the
        # elements that follow it
        g = ints(0, 3, 8, 11)
        cons = rainbow("diff", last=11)
        out = search(g, CIRCULAR, cons, count_witnesses=True)
        assert out.status == "witness"
        assert out.witness.elements == (3, 0, 8, 11)
        assert out.witness_count == brute_force_enumerate(g, CIRCULAR, cons)[0] == 2

    def test_last_pin_alone_with_predicate_memo(self):
        # predicate-only, so the failure memo is on; the walk starts at the
        # last pin, so one memo serves every element that follows it
        g = ints(1, 2, 4, 6, 12)
        cons = predicate("coprime_to", (6,), "product_minus_one", last=4)
        out = search(g, CIRCULAR, cons, count_witnesses=True)
        assert out.witness_count == brute_force_enumerate(g, CIRCULAR, cons)[0] == 12


class TestDeterminism:
    def test_identical_reruns(self):
        cons = predicate("twin_index", (), "sum")
        g = ints(*range(8))
        a = search(g, CIRCULAR, cons)
        b = search(g, CIRCULAR, cons)
        assert a.status == b.status
        assert a.nodes == b.nodes
        assert (a.witness.elements if a.witness else None) == (
            b.witness.elements if b.witness else None
        )

    def test_candidates_ascending(self):
        # the minimum element is fixed first and extensions are ascending, so
        # the first witness is the lexicographically least in reduced space
        out = search(ints(5, 1, 2), CIRCULAR, rainbow("distance"))
        assert out.status == "witness"
        assert out.witness.elements == (1, 2, 5)


class TestSymmetryReduction:
    @pytest.mark.parametrize("kind", ["sum", "distance", "product"])
    def test_reduction_counts_match_raw(self, kind):
        rng = random.Random(42)
        for _ in range(6):
            n = rng.randint(3, 6)
            vals = rng.sample(range(1, 40), n)
            cons = rainbow(kind)
            g = ints(*vals)
            reduced = search(g, CIRCULAR, cons, count_witnesses=True)
            raw = 0
            for perm in permutations(sorted(vals)):
                if check(Arrangement(Z, CIRCULAR, perm), cons).ok:
                    raw += 1
            assert reduced.witness_count * n * 2 == raw, (kind, vals)

    def test_directed_no_reflection(self):
        rng = random.Random(43)
        for _ in range(6):
            n = rng.randint(3, 6)
            vals = rng.sample(range(1, 40), n)
            cons = rainbow("diff")
            reduced = search(ints(*vals), CIRCULAR, cons, count_witnesses=True)
            raw = sum(
                1
                for perm in permutations(sorted(vals))
                if check(Arrangement(Z, CIRCULAR, perm), cons).ok
            )
            assert reduced.witness_count * n == raw, vals

    @staticmethod
    def _line_counts(kind, seed):
        """(kernel count, count over every order) of unpinned lines of
        2 to 6 random integers under one rainbow clause."""
        rng = random.Random(seed)
        for _ in range(8):
            vals = rng.sample(range(1, 40), rng.randint(2, 6))
            cons = rainbow(kind)
            reduced = search(ints(*vals), LINEAR, cons, count_witnesses=True)
            raw = sum(1 for perm in permutations(sorted(vals))
                      if check(Arrangement(Z, LINEAR, perm), cons).ok)
            yield reduced.witness_count, raw

    @pytest.mark.parametrize("kind", ["sum", "distance", "product"])
    def test_line_counted_up_to_reversal(self, kind):
        counts = list(self._line_counts(kind, 44))
        assert all(raw == 2 * reduced for reduced, raw in counts), counts
        assert any(raw for _, raw in counts)

    def test_directed_line_no_reflection(self):
        counts = list(self._line_counts("diff", 45))
        assert all(raw == reduced for reduced, raw in counts), counts
        assert any(raw for _, raw in counts)


class TestCanonicalForm:
    def test_examples(self):
        sym = rainbow("sum")
        directed = rainbow("diff")
        arr = Arrangement(Z, CIRCULAR, (3, 1, 2))
        assert canonical_form(arr, sym).elements == (1, 2, 3)
        assert canonical_form(arr, directed).elements == (1, 2, 3)
        arr2 = Arrangement(Z, CIRCULAR, (2, 1, 3))
        assert canonical_form(arr2, directed).elements == (1, 3, 2)
        lin = Arrangement(Z, LINEAR, (2, 1, 3))
        assert canonical_form(lin, sym).elements == (2, 1, 3)

    def test_linear_reversal_dedupe(self):
        cnt, wits = brute_force_enumerate(ints(1, 2), LINEAR, rainbow("sum"))
        assert cnt == 1

    def test_brute_force_capacity(self):
        with pytest.raises(ValueError):
            brute_force_enumerate(ints(*range(10)), LINEAR, rainbow("sum"))


def _full_walk(ground, shape, cons):
    """The oracle's definition, literally: check every order of the
    ground, then keep the first of each canonical form."""
    seen, witnesses = set(), []
    for seq in permutations(sorted(ground.elements)):
        arr = Arrangement(ground.spec, shape, seq)
        canon = canonical_form(arr, cons).elements
        if check(arr, cons).ok and canon not in seen:
            seen.add(canon)
            witnesses.append(Arrangement(ground.spec, shape, canon))
    return len(witnesses), witnesses


class TestBruteForcePins:
    """The oracle fixes pinned ends and permutes the rest; it must count and
    list what the walk over every order does, under every pin pair."""

    @pytest.mark.parametrize("shape", [LINEAR, CIRCULAR])
    @pytest.mark.parametrize("ground_of, kind", [
        (lambda n: GroundSet(CyclicProduct((7,)), tuple(range(n))), "diff"),
        (lambda n: ints(*(0, 1, 3, 4, 8, 9)[:n]), "sum"),
    ], ids=["Z7-diff", "Z-sum"])
    def test_every_pin_pair(self, shape, ground_of, kind):
        found = 0
        for n in range(1, 7):
            ground = ground_of(n)
            pins = (None, *ground.elements)
            for first, last in product(pins, pins):
                if first is not None and first == last and n > 1:
                    continue  # refused as an instance
                cons = rainbow(kind, first=first, last=last)
                expected = _full_walk(ground, shape, cons)
                assert brute_force_enumerate(ground, shape, cons) == expected, (n, first, last)
                found += expected[0]
        assert found > 100


class TestOracleAgreement:
    def test_random_instances(self):
        rng = random.Random(5)
        kinds = ["sum", "diff", "distance", "weighted", "product", "triple"]
        for _ in range(40):
            n = rng.randint(3, 6)
            vals = rng.sample(range(-8, 12), n)
            if any(v == 0 for v in vals):
                vals = [v for v in vals if v != 0] + [13]
            kind = rng.choice(kinds)
            shape = rng.choice([LINEAR, CIRCULAR])
            cons = rainbow(kind)
            g = ints(*vals)
            out = search(g, shape, cons, budget=10**6)
            cnt, wits = brute_force_enumerate(g, shape, cons)
            assert (out.status == "witness") == (cnt > 0), (vals, kind, shape)
            for w in wits or []:
                assert check(w, cons).ok


# Z/m has no multiplication, so products and squares are drawn over Z only
_FENCE_PAIR_KINDS = ("sum", "diff", "weighted")
_FENCE_PREDICATES = (
    PredicateSpec("prime"),
    PredicateSpec("coprime_to", (6,)),
    PredicateSpec("quadratic_residue_mod", (7,)),
    PredicateSpec("quadratic_nonresidue_mod", (11,)),
)
_FENCE_LABELERS = ("sum", "diff")


@st.composite
def conjunctions(draw):
    """A small random instance: up to 7 elements of Z or Z/m, either shape,
    up to two triple and two pair rainbow clauses (some with a modulus) in
    random order, and possibly a predicate clause."""
    n = draw(st.integers(1, 7))
    if draw(st.booleans()):
        spec = Z
        vals = draw(st.lists(st.integers(-5, 12), min_size=n, max_size=n, unique=True))
        pair_kinds = _FENCE_PAIR_KINDS + ("distance", "product")
        labelers = _FENCE_LABELERS + ("square_plus", "product_minus_one")
    else:
        m = draw(st.integers(max(n, 2), 12))
        spec = CyclicProduct((m,))
        vals = draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n, unique=True))
        pair_kinds = _FENCE_PAIR_KINDS
        labelers = _FENCE_LABELERS
    moduli = st.none() | st.integers(2, 9)
    clauses = draw(st.lists(st.builds(RainbowClause, st.just("triple"), moduli), max_size=2))
    clauses += draw(
        st.lists(st.builds(RainbowClause, st.sampled_from(pair_kinds), moduli), max_size=2)
    )
    if not clauses or draw(st.booleans()):
        clauses.append(
            PredicateClause(
                draw(st.sampled_from(_FENCE_PREDICATES)), draw(st.sampled_from(labelers))
            )
        )
    shape = draw(st.sampled_from([LINEAR, CIRCULAR]))
    if shape == CIRCULAR and n == 2 and any(c.kind == "triple" for c in clauses
                                             if isinstance(c, RainbowClause)):
        shape = LINEAR  # a two-element circle has no triple windows
    clauses = draw(st.permutations(clauses))
    return GroundSet(spec, tuple(vals)), shape, Constraint(tuple(clauses))


def _assert_counts_match(ground, shape, cons):
    """The kernel counts what the brute-force oracle counts, and finds a
    witness exactly when the oracle does."""
    out = search(ground, shape, cons, count_witnesses=True)
    expected, _ = brute_force_enumerate(ground, shape, cons)
    assert out.witness_count == expected
    assert (out.status == "witness") == (expected > 0)


class TestDifferentialFence:
    """Kernel witness counts against the brute-force oracle, clause mixes
    included; a kernel that drops a clause or a witness shows up here."""

    @given(conjunctions())
    @settings(max_examples=120, deadline=None, derandomize=True)
    def test_counts_match_brute_force(self, instance):
        _assert_counts_match(*instance)

    @pytest.mark.parametrize(
        "m, n, shape, modulus, expected",
        [(7, 5, CIRCULAR, 6, 2), (10, 8, CIRCULAR, 8, 128), (11, 9, LINEAR, 9, None)],
    )
    def test_two_triple_clauses(self, m, n, shape, modulus, expected):
        ground = GroundSet(CyclicProduct((m,)), tuple(range(n)))
        cons = Constraint((RainbowClause("triple"), RainbowClause("triple", modulus)))
        out = search(ground, shape, cons, count_witnesses=expected is not None)
        assert out.status == "witness"
        assert check(out.witness, cons).ok
        if expected is not None:
            assert out.witness_count == expected
            assert brute_force_enumerate(ground, shape, cons)[0] == expected


_FIELD_ORDERS = (5, 7, 8, 9, 11)  # F_5, F_7, F_11, and F_8, F_9 as polynomials
_FIELD_LABELERS = ("sum", "diff", "square_plus", "affine_product")


@st.composite
def field_conjunctions(draw):
    """A small instance over a field ground: up to 6 elements of F_q, either
    shape, a modular predicate clause over q, and possibly a rainbow clause."""
    q = draw(st.sampled_from(_FIELD_ORDERS))
    spec = field_spec_for(q)
    n = draw(st.integers(1, min(q, 6)))
    vals = draw(st.lists(st.integers(0, q - 1), min_size=n, max_size=n, unique=True))
    labeler = draw(st.sampled_from(_FIELD_LABELERS))
    a0 = draw(st.integers(0, q - 1)) if labeler == "affine_product" else None
    kind = draw(st.sampled_from(MODULAR_KINDS))
    clauses = [PredicateClause(PredicateSpec(kind, (q,)), labeler, a0=a0)]
    if draw(st.booleans()):
        clauses.append(RainbowClause(draw(st.sampled_from(("sum", "diff", "product", "triple")))))
    shape = draw(st.sampled_from([LINEAR, CIRCULAR]))
    if shape == CIRCULAR and n == 2 and any(isinstance(c, RainbowClause) and c.kind == "triple"
                                             for c in clauses):
        shape = LINEAR
    return GroundSet(spec, tuple(vals)), shape, Constraint(tuple(draw(st.permutations(clauses))))


@st.composite
def pinned_or_field_conjunctions(draw):
    """An integer, Z/m or field instance with a first pin, a last pin, both
    or (for fields) neither, on at most 6 elements."""
    if draw(st.booleans()):
        ground, shape, cons = draw(field_conjunctions())
        pins = draw(st.sampled_from((None, "first", "last", "both")))
    else:
        ground, shape, cons = draw(conjunctions().filter(lambda inst: len(inst[0]) <= 6))
        pins = draw(st.sampled_from(("first", "last", "both")))
    vals = ground.elements
    first = last = None
    if pins in ("first", "both"):
        first = draw(st.sampled_from(vals))
    if pins in ("last", "both"):
        others = [v for v in vals if v != first] or list(vals)
        last = draw(st.sampled_from(others))
    return ground, shape, Constraint(cons.clauses, first=first, last=last)


class TestDifferentialFenceWide:
    """The fence of TestDifferentialFence over pinned searches and field
    grounds, prime and prime-power."""

    @given(pinned_or_field_conjunctions())
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_counts_match_brute_force(self, instance):
        _assert_counts_match(*instance)


def _group_elements(moduli):
    return tuple(product(*(range(m) for m in moduli)))


# grounds whose elements the kernel ranks, or keeps as tuples
_GROUP_GROUNDS = (
    CyclicProduct((2, 2)),
    CyclicProduct((2, 4)),
    CyclicProduct((3, 3)),
    CyclicProduct((2, 2, 2)),
    PrimeField(7),
    field_spec_for(8),
    field_spec_for(9),
    IntegerVectors(2),
)


@st.composite
def group_conjunctions(draw):
    """A rainbow-only instance over a multi-rank CyclicProduct, F_7, F_8,
    F_9 or Z^2: up to 7 elements, either shape, one or two clauses (triple
    among the kinds; product and moduli where labels are field elements),
    optional pins."""
    spec = draw(st.sampled_from(_GROUP_GROUNDS))
    if isinstance(spec, IntegerVectors):
        pool = [(x, y) for x in range(-3, 4) for y in range(-3, 4)]
    elif isinstance(spec, CyclicProduct):
        pool = _group_elements(spec.moduli)
    else:
        pool = range(field_view(spec).q)
    n = draw(st.integers(1, min(7, len(pool))))
    vals = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n, unique=True))
    kinds = ["sum", "diff", "weighted", "triple"]
    moduli = st.none()
    if isinstance(vals[0], int):
        kinds.append("product")
        moduli = st.none() | st.integers(2, 5)
    clauses = draw(st.lists(st.builds(RainbowClause, st.sampled_from(kinds), moduli),
                            min_size=1, max_size=2))
    shape = draw(st.sampled_from([LINEAR, CIRCULAR]))
    if shape == CIRCULAR and n == 2 and any(c.kind == "triple" for c in clauses):
        shape = LINEAR
    first = draw(st.none() | st.sampled_from(vals))
    others = [v for v in vals if v != first]
    last = draw(st.none() | st.sampled_from(others)) if others else None
    return GroundSet(spec, tuple(vals)), shape, Constraint(tuple(clauses), first=first, last=last)


class TestDifferentialFenceGroups:
    """The fence of TestDifferentialFence over groups, fields and vectors,
    whose tuple labels the kernel names by small ints."""

    @given(group_conjunctions())
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_counts_match_brute_force(self, instance):
        _assert_counts_match(*instance)


_TABLE_KINDS = ("sum", "diff", "weighted", "triple")


def _table_fence_searches():
    """(values, m, shape, kind, first) of a seeded subset of Z/m for each
    m = 9..36, kind and shape: n from 5 up to min(12, m - 3) elements, with
    no pin and with a first pin.  With n <= m - 3 the label-sum stage
    answers no search and forces no last element, on either ground."""
    out = []
    for m in range(9, 37):
        rng = random.Random(m)
        for kind in _TABLE_KINDS:
            for shape in (LINEAR, CIRCULAR):
                vals = tuple(sorted(rng.sample(range(m), rng.randint(5, min(12, m - 3)))))
                out += [(vals, m, shape, kind, first) for first in (None, rng.choice(vals))]
    return out


def _outcome(out):
    wit = out.witness.elements if out.witness is not None else None
    return out.status, out.nodes, wit, out.witness_count


class TestAdditionTableFence:
    """Over a group of order at most 256, a sum, diff, weighted or triple
    clause reads the group's addition table; the same clause over the
    integers under a modulus labels its pairs with rainbow_labels.  On the
    same values of Z/m both name the same windows alike, so every search,
    found or counted, must agree to the node."""

    def test_table_and_modulus_paths_agree(self):
        for vals, m, shape, kind, first in _table_fence_searches():
            spec = CyclicProduct((m,))
            _, _, rows = _rainbow_tracker(spec, RainbowClause(kind), list(vals), count())
            assert isinstance(rows[0], bytes)  # rows of the addition table
            table = (GroundSet(spec, vals), rainbow(kind, first=first))
            modular = (ints(*vals), rainbow(kind, m, first=first))
            for budget, counting in ((2000, False), (500, True)):
                outs = [search(ground, shape, cons, budget, count_witnesses=counting)
                        for ground, cons in (table, modular)]
                assert _outcome(outs[0]) == _outcome(outs[1]), (vals, m, shape, kind, first)

    @pytest.mark.parametrize("moduli", [(2, 6), (3, 3), (2, 2, 3)])
    def test_tuple_groups_against_brute_force(self, moduli):
        # seeded subsets of up to 8 elements; a line of 8 is pinned, so
        # brute force permutes 7 of them at most
        spec = CyclicProduct(moduli)
        pool = group_elements(spec)
        rng = random.Random(len(pool) * len(moduli))
        for kind in _TABLE_KINDS:
            for shape in (LINEAR, CIRCULAR):
                vals = tuple(rng.sample(pool, rng.randint(5, 8)))
                first = rng.choice(vals) if shape == LINEAR and len(vals) == 8 else None
                _assert_counts_match(GroundSet(spec, vals), shape, rainbow(kind, first=first))


# (predicate, labeler) pairs whose graphs on a few small integers are
# sparse, yet often enough have a circle
_SPARSE_CLAUSES = (
    (PredicateSpec("coprime_to", (6,)), "product_minus_one"),
    (PredicateSpec("coprime_to", (10,)), "product_minus_one"),
    (PredicateSpec("prime_shift", (2, 1)), "sum"),
    (PredicateSpec("quadratic_nonresidue_mod", (11,)), "sum"),
    (PredicateSpec("quadratic_nonresidue_mod", (11,)), "diff"),
    (PredicateSpec("quadratic_residue_mod", (7,)), "sum"),
    (PredicateSpec("quadratic_residue_mod", (7,)), "diff"),
    (PredicateSpec("quadratic_residue_mod", (7,)), "square_plus"),
)


@st.composite
def sparse_circles(draw):
    """A predicate instance on 4 to 8 integers (a line, which is walked as
    a circle through a free start, on up to 7), possibly pinned below 8:
    sparse successor graphs, where the cycle cover cuts subtrees (or the
    whole tree) that the degree and reachability prunes let through, and
    where the root matching needs augmenting paths.  Returns (ground,
    shape, constraint)."""
    shape = draw(st.sampled_from((CIRCULAR, LINEAR)))
    n = draw(st.integers(4, 8 if shape == CIRCULAR else 7))
    vals = draw(st.lists(st.integers(0, 20), min_size=n, max_size=n, unique=True))
    pred, labeler = draw(st.sampled_from(_SPARSE_CLAUSES))
    first = last = None
    if n < 8:  # brute force keeps every rotation under a last pin
        first = draw(st.none() | st.sampled_from(vals))
        last = draw(st.none() | st.sampled_from([v for v in vals if v != first]))
    cons = Constraint((PredicateClause(pred, labeler),), first=first, last=last)
    return GroundSet(Z, tuple(vals)), shape, cons


def _degree_and_reach_hold(out_mask, in_mask):
    """What the degree and reachability prunes ask of the whole ground at
    the root: every vertex has a successor, a predecessor and two distinct
    partners, and every vertex reaches every other."""
    n = len(out_mask)
    if any(not o or not i or (o | i).bit_count() < 2 for o, i in zip(out_mask, in_mask)):
        return False
    for masks in (out_mask, in_mask):
        seen = frontier = 1
        while frontier:
            reached = 0
            for v in range(n):
                if frontier >> v & 1:
                    reached |= masks[v]
            frontier = reached & ~seen
            seen |= frontier
        if seen != (1 << n) - 1:
            return False
    return True


class TestCycleCover:
    """The cycle-cover prune: the rest of a circle matches tail + unused
    onto unused + start, so a search without such a perfect matching is
    dead.  Counts must still agree with brute force."""

    def test_root_without_cover(self):
        # prime sums alternate parity around a circle, and 4 even elements
        # have only 3 odd successors; every vertex still has two partners
        # and the graph is strongly connected
        ground = ints(0, 1, 4, 5, 6, 10, 13)
        cons = predicate("prime")
        elems = sorted(ground.elements)
        out_mask, in_mask = _compile_adjacency(Z, elems, list(cons.clauses))
        assert _degree_and_reach_hold(out_mask, in_mask)
        out = search(ground, CIRCULAR, cons, count_witnesses=True)
        assert out.status == "exhausted"
        assert out.witness_count == 0
        assert out.nodes == 1
        assert brute_force_enumerate(ground, CIRCULAR, cons)[0] == 0
        # a line needs no cover, and there is one
        assert search(ground, LINEAR, cons).status == "witness"

    def test_augmenting_root(self):
        # two of the root's augmentations find every successor taken and
        # must re-route earlier matches to two different free targets, and
        # seven repairs need more than the direct edge
        ground = ints(0, 1, 2, 3, 4, 5, 6, 7)
        cons = Constraint((PredicateClause(PredicateSpec("prime"), "sum"),))
        out = search(ground, CIRCULAR, cons, count_witnesses=True)
        assert out.witness_count == brute_force_enumerate(ground, CIRCULAR, cons)[0]

    def test_quarter_primes_n22_exhausted(self):
        # 3.17i at n = 22: the 8 targets 1, 4, ..., 22 have only the 7
        # predecessors 0, 3, ..., 18
        from permlab.conjectures import run_instance

        rec = run_instance("3.17i", {"n": 22})
        assert rec.status == "exhausted"
        assert rec.nodes >= 1

    def test_line_walks_through_the_prunes(self):
        # a line is a circle through a free start, so the degree, cover and
        # reachability prunes cut it too: without them this search spends
        # 2 * 10**5 nodes and finds nothing
        ground = ints(*range(21))
        cons = predicate("prime_shift", (2, 1), "square_plus")
        out = search(ground, LINEAR, cons, 1000)
        assert out.status == "witness"
        assert check(out.witness, cons).ok

    @given(sparse_circles())
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_sparse_counts_match_brute_force(self, instance):
        _assert_counts_match(*instance)


class TestDeepSearches:
    """The walk keeps its own stack, so a long path needs no deep recursion."""

    @pytest.mark.parametrize(
        "shape, clause",
        [
            (LINEAR, PredicateClause(PredicateSpec("coprime_to", (1,)), "sum")),
            (CIRCULAR, PredicateClause(PredicateSpec("coprime_to", (1,)), "sum")),
            (LINEAR, RainbowClause("sum")),
            (LINEAR, RainbowClause("triple")),
        ],
    )
    def test_twelve_hundred_elements(self, shape, clause):
        ground = GroundSet(Z, tuple(range(1200)))
        cons = Constraint((clause,))
        out = search(ground, shape, cons)
        assert out.status == "witness"
        assert check(out.witness, cons).ok

    @pytest.mark.parametrize("shape", [LINEAR, CIRCULAR])
    def test_triples_over_a_large_group(self, shape):
        # triple rows hold only the labels a search meets: a row over the
        # whole group would take megabytes for each of the 60 elements, and
        # no addition table is built for a group of order above 256
        rng = random.Random(3)
        elems = set()
        while len(elems) < 60:
            elems.add((rng.randrange(1000), rng.randrange(1000)))
        ground = GroundSet(CyclicProduct((1000, 1000)), tuple(elems))
        cons = Constraint((RainbowClause("triple"),))
        tracemalloc.start()
        try:
            out = search(ground, shape, cons)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.status == "witness"
        assert check(out.witness, cons).ok
        assert peak < 4 << 20

    def test_twelve_hundred_large_ints(self):
        # nearly all of the 1.44 million pair sums differ; only the pairs
        # the walk reads are labelled and named, so the labels in use stay
        # a short int at each of the 1,200 levels (about 2.2 MB in all;
        # labelling every pair up front took 57 MB)
        rng = random.Random(1)
        ground = GroundSet(Z, tuple(rng.sample(range(10**9), 1200)))
        cons = Constraint((RainbowClause("sum"),))
        tracemalloc.start()
        try:
            out = search(ground, LINEAR, cons)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.status == "witness"
        assert check(out.witness, cons).ok
        assert peak < 6 << 20


def _reference_out_masks(spec, elems, clauses):
    """out_mask pair by pair, from predicate_labels and the predicates'
    definitions: predicate_allows, or field_view's classes for a modular
    predicate over a field."""

    def holds(pred, v):
        if isinstance(spec, (PrimeField, PrimePowerField)) and pred.kind in MODULAR_KINDS:
            fv = field_view(spec)
            return {
                "primitive_root_mod": fv.is_primitive,
                "quadratic_residue_mod": fv.squares.__contains__,
                "quadratic_nonresidue_mod": fv.nonsquares.__contains__,
            }[pred.kind](v)
        return predicate_allows(pred, v)

    n = len(elems)
    return [
        sum(
            1 << j
            for j in range(n)
            if j != i
            and all(holds(cl.predicate, v) for cl in clauses
                    for v in predicate_labels(spec, cl, [elems[i]], [elems[j]]))
        )
        for i in range(n)
    ]


_INTEGER_PREDICATES = (
    PredicateSpec("prime"),
    PredicateSpec("prime_shift", (2, 1)),
    PredicateSpec("prime_shift", (1, 10)),  # negative labels can pass
    PredicateSpec("prime_shift", (3, -4)),
    PredicateSpec("twin_index"),
    PredicateSpec("sophie_germain_index"),
    PredicateSpec("coprime_to", (0,)),
    PredicateSpec("coprime_to", (1,)),
    PredicateSpec("coprime_to", (6,)),
    PredicateSpec("primitive_root_mod", (11,)),
    PredicateSpec("quadratic_residue_mod", (7,)),
    PredicateSpec("quadratic_nonresidue_mod", (13,)),
)
_ALL_LABELERS = (
    "sum", "diff", "abs_diff_and_sum", "square_plus", "square_minus", "product_minus_one",
    "two_product_minus_one", "two_product_plus_one", "affine_product", "abs_square_diff",
)
_FIELD_ARITHMETIC_LABELERS = ("sum", "diff", "square_plus", "product_minus_one", "affine_product")


def _clause(pred, labeler, a0):
    return PredicateClause(pred, labeler, a0=a0 if labeler == "affine_product" else None)


def _assert_masks_match(spec, elems, clauses):
    elems = sorted(elems)
    out_mask, in_mask = _compile_adjacency(spec, elems, clauses)
    assert out_mask == _reference_out_masks(spec, elems, clauses), (spec, elems, clauses)
    n = len(elems)
    for i in range(n):
        for j in range(n):
            assert (in_mask[j] >> i & 1) == (out_mask[i] >> j & 1)


class TestAdjacencyCompile:
    """The row-at-a-time adjacency against a pair-by-pair reference."""

    # negatives, zero, multiples of 7, 11 and 13, and a gap
    INTEGER_GROUND = (-13, -7, -4, -1, 0, 2, 3, 7, 11, 13, 22, 39)

    @pytest.mark.parametrize("labeler", _ALL_LABELERS)
    def test_integers_every_labeler_and_predicate(self, labeler):
        for pred in _INTEGER_PREDICATES:
            _assert_masks_match(Z, self.INTEGER_GROUND, [_clause(pred, labeler, 5)])

    def test_integers_beyond_the_dense_span(self):
        # labels spread over more than the dense table cap are evaluated one
        # by one
        ground = (-3, 0, 1, 2, 10**7, 10**7 + 1)
        for pred in (PredicateSpec("prime"), PredicateSpec("prime_shift", (1, 10))):
            for labeler in ("sum", "diff", "abs_diff_and_sum"):
                _assert_masks_match(Z, ground, [_clause(pred, labeler, 0)])

    @pytest.mark.parametrize("q", [7, 11, 8, 16, 9, 27])
    def test_fields(self, q):
        spec = field_spec_for(q)
        ground = range(q) if q < 16 else range(0, q, 3)
        for kind in MODULAR_KINDS:
            for labeler in _FIELD_ARITHMETIC_LABELERS:
                for a0 in (0, 1, q - 1):
                    pred = PredicateSpec(kind, (q,))
                    _assert_masks_match(spec, ground, [_clause(pred, labeler, a0)])

    def test_square_classes_without_the_field(self):
        # the integer grounds' square classes equal the field's
        for q in filter(is_prime, range(3, 1100)):
            for kind in ("quadratic_residue_mod", "quadratic_nonresidue_mod"):
                field = _field_table(PrimeField(q), PredicateSpec(kind, (q,)))
                assert _square_class_table(q, kind) == field, (q, kind)

    def test_truth_rows_read_by_translate_and_by_map(self):
        # a table of at most 256 entries is read a row at a time with
        # bytes.translate, a larger one a label at a time; both must give
        # the bytes of a label-by-label read of the same table
        def by_map(table, row):
            return bytes(table[x % len(table)] for x in row)

        fields = [q for q in range(3, 257) if len(factorize(q).pairs) == 1] + [343]
        for q in fields:
            spec = field_spec_for(q)
            row = list(range(q)) * 2
            for kind in MODULAR_KINDS:
                pred = PredicateSpec(kind, (q,))
                table = _field_table(spec, pred)
                assert _predicate_evaluator(spec, pred)([row, row[:3]]) == [
                    by_map(table, row), by_map(table, row[:3])], (q, kind)
        # integer and Z/m grounds reduce their labels, negative ones too
        for q in [p for p in range(3, 257) if is_prime(p)] + [263]:
            row = list(range(-3 * q, 3 * q + 5))
            for kind in MODULAR_KINDS:
                pred = PredicateSpec(kind, (q,))
                table = _field_table(PrimeField(q), pred)
                assert _predicate_evaluator(Z, pred)([row]) == [by_map(table, row)], (q, kind)
                zm = CyclicProduct((2 * q + 1,))
                assert _predicate_evaluator(zm, pred)([row[3 * q:]]) == [
                    by_map(table, row[3 * q:])], (q, kind)

    def test_large_modulus_over_integers(self):
        # one byte per residue of q = 1,000,003: the field's exp and log
        # tables would take over 100 MB
        q = 1000003
        cons = predicate("quadratic_residue_mod", (q,))
        tracemalloc.start()
        try:
            out = search(ints(*range(1, 11)), CIRCULAR, cons)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.status == "witness"
        assert check(out.witness, cons).ok
        assert peak < 16 << 20

    def test_prime_field_integer_predicates(self):
        spec = PrimeField(13)
        for pred in _INTEGER_PREDICATES:
            if pred.kind in MODULAR_KINDS:
                continue  # over a field these must be mod 13, as in test_fields
            for labeler in _FIELD_ARITHMETIC_LABELERS:
                _assert_masks_match(spec, range(1, 13), [_clause(pred, labeler, 4)])

    def test_cyclic_product(self):
        spec = CyclicProduct((12,))
        for pred in _INTEGER_PREDICATES:
            for labeler in ("sum", "diff"):
                _assert_masks_match(spec, (0, 1, 2, 5, 6, 7, 11), [_clause(pred, labeler, 0)])

    def test_conjunction_of_clauses(self):
        clauses = [
            PredicateClause(PredicateSpec("coprime_to", (6,)), "sum"),
            PredicateClause(PredicateSpec("prime_shift", (1, 10)), "diff"),
            PredicateClause(PredicateSpec("quadratic_nonresidue_mod", (13,)), "square_minus"),
        ]
        _assert_masks_match(Z, self.INTEGER_GROUND, clauses)

    def test_invalid_instances_raise(self):
        with pytest.raises(ValueError, match="needs plain integer elements"):
            _compile_adjacency(PrimeField(7), [1, 2], [_clause(PredicateSpec("prime"), "square_minus", 0)])
        with pytest.raises(ValueError, match="!= field size"):
            _compile_adjacency(PrimeField(7), [1, 2],
                               [_clause(PredicateSpec("primitive_root_mod", (11,)), "sum", 0)])
        with pytest.raises(ValueError, match="is not defined over"):
            _compile_adjacency(field_spec_for(9), [1, 2], [_clause(PredicateSpec("prime"), "sum", 0)])

    def test_negative_shifted_prime_labels_reach_the_search(self):
        # 4 - 7 = -3 and -3 + 10 = 7 is prime: a search that drops negative
        # labels from the table misses this circle
        g = ints(4, 5, 6, 7)
        cons = predicate("prime_shift", (1, 10), "diff")
        out = search(g, CIRCULAR, cons, count_witnesses=True)
        assert out.witness_count == brute_force_enumerate(g, CIRCULAR, cons)[0] == 1


# every rainbow kind's label arithmetic: integers, Z/m, multi-rank groups,
# prime and prime-power fields, and vectors
_LABEL_GROUNDS = (
    (Z, (-7, -4, -1, 0, 2, 3, 5, 9, 12)),
    (CyclicProduct((12,)), (0, 1, 3, 4, 6, 7, 10, 11)),
    (CyclicProduct((2, 2)), _group_elements((2, 2))),
    (CyclicProduct((2, 4)), _group_elements((2, 4))),
    (CyclicProduct((3, 3)), _group_elements((3, 3))),
    (CyclicProduct((2, 2, 2)), _group_elements((2, 2, 2))),
    (PrimeField(7), tuple(range(7))),
    (field_spec_for(8), tuple(range(8))),
    (field_spec_for(9), tuple(range(9))),
    (IntegerVectors(2), ((-2, 3), (-1, -1), (0, 0), (0, 5), (1, -1), (1, 2), (2, 1), (3, 0))),
)


def _reference_labels(spec, clause, elems) -> dict:
    """The label of every window over distinct positions of elems, keyed
    by its indices, from rainbow_labels on a column of all of them."""
    arity = 3 if clause.kind == "triple" else 2
    windows = [w for w in product(range(len(elems)), repeat=arity) if len(set(w)) == arity]
    columns = [[elems[w[i]] for w in windows] for i in range(arity)]
    return dict(zip(windows, rainbow_labels(spec, clause, *columns)))


def _assert_same_partition(kernel, reference):
    """Two windows share a kernel label exactly when they share a reference
    label."""
    to_reference, to_kernel = {}, {}
    for key, ref in reference.items():
        lab = kernel[key]
        assert to_reference.setdefault(lab, ref) == ref, (key, lab, ref)
        assert to_kernel.setdefault(ref, lab) == lab, (key, lab, ref)


class TestRainbowLabels:
    """The kernel's label matrices and triple rows against rainbow_labels,
    window by window: names and elements must split the windows alike."""

    @pytest.mark.parametrize("spec, elems", _LABEL_GROUNDS, ids=lambda v: repr(v)[:24])
    def test_every_kind_with_and_without_modulus(self, spec, elems):
        elems = sorted(elems)
        ground = GroundSet(spec, tuple(elems))
        for kind in ("sum", "diff", "distance", "weighted", "triple", "product"):
            for modulus in (None, 3):
                clause = RainbowClause(kind, modulus)
                try:
                    reference = _reference_labels(spec, clause, elems)
                except ValueError as exc:
                    # product on a group, distance off the integers, a
                    # modulus on tuples: search() refuses them alike
                    for shape in (LINEAR, CIRCULAR):
                        with pytest.raises(ValueError, match=re.escape(str(exc))):
                            search(ground, shape, Constraint((clause,)))
                    continue
                _, pairs, rows = _rainbow_tracker(spec, clause, elems, count())
                if kind == "triple":
                    kernel = {(a, b, c): rows[c][pairs[a][b]] for a, b, c in reference}
                else:
                    # a pair (a, b) ends the windows (x, a, b) of every x,
                    # and they all have its label
                    kernel = {(a, b): rows[b][pairs[a][a]] for a, b in reference}
                    for (a, b), lab in kernel.items():
                        assert {rows[b][pairs[x][a]] for x in range(len(elems))} == {lab}
                _assert_same_partition(kernel, reference)


class TestRainbowClausesApart:
    """Two rainbow clauses may give equal labels; the kernel must keep
    them apart, since each clause only forbids repeats of its own."""

    @pytest.mark.parametrize(
        "shape, first, second",
        [(LINEAR, "sum", "diff"), (CIRCULAR, "triple", "sum")],
    )
    def test_equal_labels_of_two_clauses_do_not_clash(self, shape, first, second):
        spec = CyclicProduct((7,))
        ground = GroundSet(spec, tuple(range(6)) if shape == LINEAR else tuple(range(7)))
        cons = Constraint((RainbowClause(first), RainbowClause(second)))
        expected, witnesses = brute_force_enumerate(ground, shape, cons)
        assert witnesses is not None and expected > 0
        assert search(ground, shape, cons, count_witnesses=True).witness_count == expected

        def windows(kind, arr):
            columns = _columns(arr, 3 if kind == "triple" else 2)
            return rainbow_labels(spec, RainbowClause(kind), *columns)

        # some witness has a label of one clause at one window and of the
        # other clause at another, so a kernel that let them clash misses it
        assert any(
            a == b
            for arr in witnesses
            for i, a in enumerate(windows(first, arr))
            for j, b in enumerate(windows(second, arr))
            if i != j
        )


def _outcome_fence_searches() -> list:
    """(ground, shape, constraint, budget) of every search the outcome
    fence pins: every rainbow kind in both shapes, with and without pins;
    moduli, groups of tuples and budgets that run out; whole trees walked
    to the end; two triple clauses; circular predicate searches, which run
    the prunes and the failure memo; mixed clauses; field grounds."""
    out = []
    line = ints(-3, 0, 1, 2, 5, 7, 8, 11)
    for kind in ("sum", "diff", "distance", "weighted", "triple", "product"):
        for shape in (LINEAR, CIRCULAR):
            for first, last in ((None, None), (5, None), (None, 7), (0, 11)):
                out.append((line, shape, rainbow(kind, first=first, last=last), 3000))
    z12 = GroundSet(CyclicProduct((12,)), tuple(range(1, 12)))
    z33 = GroundSet(CyclicProduct((3, 3)), _group_elements((3, 3)))
    for kind in ("sum", "diff", "weighted", "triple"):
        for shape in (LINEAR, CIRCULAR):
            out.append((z12, shape, rainbow(kind, modulus=5), 4000))
            out.append((z33, shape, rainbow(kind, first=(1, 2)), 4000))
    out.append((GroundSet(CyclicProduct((6,)), tuple(range(6))), CIRCULAR, rainbow("diff"), 20000))
    out.append((GroundSet(CyclicProduct((2, 4)), _group_elements((2, 4))), LINEAR,
                rainbow("diff", first=(0, 0)), 20000))
    out.append((GroundSet(CyclicProduct((9,)), tuple(range(9))), LINEAR,
                rainbow("triple", first=0), 20000))
    for m, size, shape, modulus in ((7, 5, CIRCULAR, 6), (10, 8, CIRCULAR, 8), (11, 9, LINEAR, 9)):
        cons = Constraint((RainbowClause("triple"), RainbowClause("triple", modulus)))
        out.append((GroundSet(CyclicProduct((m,)), tuple(range(size))), shape, cons, 20000))
    for n in (10, 14, 16):
        out.append((ints(*range(1, n + 1)), CIRCULAR, predicate("prime"), 20000))
    sparse = ints(0, 1, 4, 5, 6, 10, 13, 14, 17)
    for pred, labeler in (
        (PredicateSpec("coprime_to", (6,)), "product_minus_one"),
        (PredicateSpec("prime_shift", (2, 1)), "sum"),
        (PredicateSpec("quadratic_residue_mod", (7,)), "diff"),
    ):
        for first, last in ((None, None), (4, None), (None, 13)):
            cons = Constraint((PredicateClause(pred, labeler),), first=first, last=last)
            out.append((sparse, CIRCULAR, cons, 20000))
            out.append((sparse, LINEAR, cons, 20000))
    mixed = Constraint((RainbowClause("diff"), PredicateClause(PredicateSpec("prime"), "sum")))
    out.append((ints(*range(1, 11)), CIRCULAR, mixed, 20000))
    for q, kind in ((13, "quadratic_nonresidue_mod"), (9, "primitive_root_mod")):
        ground = GroundSet(field_spec_for(q), tuple(range(1, q)))
        pred = PredicateSpec(kind, (q,))
        out.append((ground, CIRCULAR, Constraint((PredicateClause(pred, "diff"),)), 20000))
        cons = Constraint((RainbowClause("sum"), PredicateClause(pred, "sum")))
        out.append((ground, LINEAR, cons, 20000))
    return out


def _counted_fence_searches() -> list:
    """(ground, shape, constraint) of the fence's full walks, unpinned lines
    under reversal-symmetric clauses among them."""
    return [
        (GroundSet(CyclicProduct((7,)), tuple(range(7))), CIRCULAR, rainbow("triple")),
        (ints(*range(1, 11)), CIRCULAR, predicate("prime")),
        (ints(0, 1, 3, 4, 8, 9), LINEAR,
         Constraint((RainbowClause("sum"), RainbowClause("diff", 7)), first=1)),
        (ints(*range(1, 11)), LINEAR, predicate("prime")),
        (ints(*range(7)), LINEAR, rainbow("sum")),
    ]


def _outcome_digest() -> str:
    h = hashlib.sha256()
    for ground, shape, cons, budget in _outcome_fence_searches():
        out = search(ground, shape, cons, budget)
        wit = out.witness.elements if out.witness is not None else None
        h.update(repr((out.status, out.nodes, wit)).encode())
    for ground, shape, cons in _counted_fence_searches():
        out = search(ground, shape, cons, count_witnesses=True)
        wit = out.witness.elements if out.witness is not None else None
        h.update(repr((out.status, out.nodes, wit, out.witness_count)).encode())
    return h.hexdigest()


class TestKernelOutcomeFence:
    """Statuses, node counts and first witnesses are artifacts of the
    tool (see the search module's determinism contract).  A change to the
    kernel that moves any of them must say why and update this digest."""

    def test_outcomes_are_pinned(self):
        assert _outcome_digest() == "c0977725c0116311745457fbea77cfb0937cee1d383fd80fa42a2fe900387b78"


# dense circular predicate searches of the catalog's field statements: most
# are found in about n nodes, so the per-node prunes are their whole cost
_DENSE_FENCE = [
    ("3.7i", {"q": 49}), ("3.7i", {"q": 81}), ("3.7i", {"q": 125}),
    ("3.8-sums", {"p": 137}), ("3.9ii-sums", {"p": 139}),
    ("3.10", {"q": 31, "a0": 23}), ("3.10", {"q": 31, "a0": 25}), ("3.10", {"q": 31, "a0": 0}),
]


class TestDenseOutcomeFence:
    """The fence above for dense graphs, where the degree prune does most
    of the work of a node: statuses, node counts and first witnesses."""

    def test_outcomes_are_pinned(self):
        from permlab.conjectures import instance

        h = hashlib.sha256()
        for cid, params in _DENSE_FENCE:
            inst = instance(cid, params)
            out = search(inst.ground, inst.shape, inst.constraint, 20000)
            wit = out.witness.elements if out.witness is not None else None
            h.update(repr((out.status, out.nodes, wit)).encode())
        assert h.hexdigest() == "26f7a2b70de6d90de36353547e9affd729ca10d1f8e1a3a818731222a2f69a33"


def _permutation_pair_walk(ground):
    """The pair walk's reference: every b in itertools.permutations order,
    each checked whole against a = the sorted ground.  Returns (status, b)."""
    spec = ground.spec
    a = sorted(ground.elements)
    for b in permutations(a):
        labels = {group_add(spec, x, group_double(spec, y)) for x, y in zip(a, b)}
        if len(labels) == len(a):
            return "witness", b
    return "exhausted", None


def _pair_walk(ground):
    out = search_pair_numbering(ground)
    return out.status, out.witness and out.witness.elements


class TestPairNumbering:
    def test_small_witness(self):
        g = ints(1, 2, 3, 4)
        out = search_pair_numbering(g)
        assert out.status == "witness"
        assert out.witness.shape == LINEAR
        assert check_pair_numbering(Z, (1, 2, 3, 4), out.witness.elements)

    def test_group_instance(self):
        spec = CyclicProduct((5,))
        g = GroundSet(spec, (0, 1, 2, 3))
        out = search_pair_numbering(g)
        assert out.status == "witness"
        assert check_pair_numbering(spec, g.elements, out.witness.elements)

    def test_matches_direct_enumeration(self):
        rng = random.Random(9)
        for _ in range(20):
            n = rng.randint(2, 5)
            mod = rng.randint(2, 9)
            spec = CyclicProduct((mod,))
            vals = tuple(sorted(rng.sample(range(mod), min(n, mod))))
            ground = GroundSet(spec, vals)
            assert _pair_walk(ground) == _permutation_pair_walk(ground), (vals, mod)

    def test_first_pairing_of_the_permutation_walk(self):
        # the walk cuts a prefix at its first repeated label, so its first
        # pairing is the first b in permutation order: checked on every
        # oracle ground of 3.5ii and every swept ground of up to 6 elements
        from permlab.conjectures import instance, iter_params, oracle_params

        params = oracle_params("3.5ii")
        for seed in (0, 1, 2):
            params += [p for p in iter_params("3.5ii", 4, 36, seed) if p["n"] <= 6]
        assert len(params) == len(oracle_params("3.5ii")) + 1962
        for p in params:
            ground = instance("3.5ii", p).ground
            assert _pair_walk(ground) == _permutation_pair_walk(ground), p

    def test_no_size_cap(self):
        # whole Z/36 in 5,447 label tries
        out = search_pair_numbering(GroundSet(CyclicProduct((36,)), tuple(range(36))))
        assert out.status == "witness" and out.nodes == 5447
        assert check_pair_numbering(out.witness.spec, tuple(range(36)), out.witness.elements)

    def test_budget_counts_label_tries(self):
        # lex order meets no pairing of whole Z/6 x Z/6 in 1,000 label tries
        ground = GroundSet(CyclicProduct((6, 6)), tuple(product(range(6), range(6))))
        out = search_pair_numbering(ground, 1000)
        assert (out.status, out.witness, out.nodes) == ("budget", None, 1001)

    def test_negation_pairs_every_whole_group(self):
        # b = -a gives the labels a_i - 2 a_i = -a_i, all distinct, so every
        # whole group of the catalog has a pairing, reached by lex order or not
        from permlab.conjectures import _GROUPS_BY_ORDER

        for moduli in [g for groups in _GROUPS_BY_ORDER.values() for g in groups]:
            spec = CyclicProduct(moduli)
            a = group_elements(spec)
            assert check_pair_numbering(spec, a, group_neg_all(spec, a)), moduli


class TestValidation:
    def test_triple_on_two_cycle_rejected(self):
        with pytest.raises(ValueError):
            search(ints(1, 2), CIRCULAR, rainbow("triple"))

    def test_pin_not_in_ground(self):
        with pytest.raises(ValueError):
            search(ints(1, 2, 3), LINEAR, rainbow("sum", first=9))

    @pytest.mark.parametrize("spec, a0", [
        (Z, (1,)), (Z, 1.5), (PrimeField(11), 100), (PrimeField(11), (1, 2)), (PrimeField(11), "z"),
    ])
    def test_a0_is_an_element(self, spec, a0):
        # a0 is checked as pins are, an unreduced residue included
        pred = PredicateSpec("primitive_root_mod", (11,))
        cons = Constraint((PredicateClause(pred, "affine_product", a0=a0),))
        with pytest.raises(ValueError, match="^expected"):
            search(GroundSet(spec, (1, 2, 3)), CIRCULAR, cons)
        with pytest.raises(ValueError, match="^expected"):
            brute_force_enumerate(GroundSet(spec, (1, 2, 3)), CIRCULAR, cons)

    def test_bad_budget(self):
        with pytest.raises(ValueError):
            search(ints(1, 2, 3), LINEAR, rainbow("sum"), budget=0)

    @pytest.mark.parametrize(
        "spec, elems",
        [
            (CyclicProduct((3, 3)), ((0, 0), (0, 1), (1, 2), (2, 2))),
            (IntegerVectors(2), ((0, 0), (1, -1), (2, 3), (4, 1))),
        ],
    )
    def test_predicates_over_tuple_grounds(self, spec, elems):
        for pred in (PredicateSpec("prime"), PredicateSpec("coprime_to", (6,))):
            cons = Constraint((PredicateClause(pred, "sum"),))
            with pytest.raises(ValueError, match="is not defined over"):
                search(GroundSet(spec, elems), CIRCULAR, cons)
            with pytest.raises(ValueError, match="is not defined over"):
                check(Arrangement(spec, CIRCULAR, elems), cons)

    @pytest.mark.parametrize("kind", ["sum", "triple"])
    @pytest.mark.parametrize(
        "spec, elems",
        [
            (CyclicProduct((2, 4)), ((0, 2), (1, 2), (1, 3))),
            (IntegerVectors(2), ((0, 0), (1, -1), (2, 3))),
        ],
    )
    def test_modulus_over_tuple_grounds_at_every_length(self, kind, spec, elems):
        # a linear triple clause on two elements has no window, yet both the
        # kernel and the oracle refuse its modulus
        for n in (1, 2, 3):
            ground = GroundSet(spec, elems[:n])
            cons = Constraint((RainbowClause(kind, 2),))
            for shape in (LINEAR, CIRCULAR):
                with pytest.raises(ValueError, match="^modulus applies to integer labels only$"):
                    search(ground, shape, cons)
                with pytest.raises(ValueError, match="^modulus applies to integer labels only$"):
                    brute_force_enumerate(ground, shape, cons)

    @pytest.mark.parametrize("spec", [Z, CyclicProduct((12,))])
    def test_composite_modulus_of_a_modular_predicate(self, spec):
        elems = (1, 2, 4, 5)
        cons = Constraint((PredicateClause(PredicateSpec("quadratic_residue_mod", (9,)), "sum"),))
        with pytest.raises(ValueError, match="modulus 9 is not an odd prime"):
            search(GroundSet(spec, elems), CIRCULAR, cons)
        with pytest.raises(ValueError, match="modulus 9 is not an odd prime"):
            check(Arrangement(spec, CIRCULAR, elems), cons)

    def test_modulus_validation(self):
        with pytest.raises(ValueError):
            RainbowClause("sum", modulus=1)
        with pytest.raises(ValueError):
            RainbowClause("nope")


# --- check() against the per-window checker it replaced ---------------------------


def _ref_rainbow_label(spec, clause, x, y):
    kind = clause.kind
    if kind == "sum":
        v = group_add(spec, x, y)
    elif kind == "diff":
        v = group_sub(spec, x, y)
    elif kind == "distance":
        _ref_require_ints(spec, kind)
        v = abs(x - y)
    elif kind == "weighted":
        v = group_add(spec, x, group_double(spec, y))
    else:
        v = group_mul(spec, x, y)
    return _ref_reduce(clause, v)


def _ref_rainbow_triple_label(spec, clause, x, y, z):
    return _ref_reduce(clause, group_add(spec, group_add(spec, x, y), z))


def _ref_reduce(clause, v):
    if clause.modulus is not None:
        if not isinstance(v, int):
            raise ValueError("modulus applies to integer labels only")
        v %= clause.modulus
    return v


def _ref_require_ints(spec, labeler):
    if not isinstance(spec, Integers):
        raise ValueError(f"labeler {labeler!r} needs plain integer elements")


def _ref_pair_labels(spec, clause, x, y):
    lb = clause.labeler
    if lb == "sum":
        return (group_add(spec, x, y),)
    if lb == "diff":
        return (group_sub(spec, x, y),)
    if lb == "abs_diff_and_sum":
        _ref_require_ints(spec, lb)
        return (abs(x - y), x + y)
    if lb == "square_plus":
        return (group_add(spec, group_mul(spec, x, x), y),)
    if lb == "square_minus":
        _ref_require_ints(spec, lb)
        return (x * x - y,)
    if lb == "product_minus_one":
        if isinstance(spec, Integers):
            return (x * y - 1,)
        return (group_sub(spec, group_mul(spec, x, y), 1),)
    if lb == "two_product_minus_one":
        _ref_require_ints(spec, lb)
        return (2 * x * y - 1,)
    if lb == "two_product_plus_one":
        _ref_require_ints(spec, lb)
        return (2 * x * y + 1,)
    if lb == "affine_product":
        return (group_add(spec, clause.a0, group_mul(spec, x, y)),)
    _ref_require_ints(spec, lb)
    return (abs(x * x - y * y),)


def _reference_check(arrangement, constraint):
    """check() as it was before it worked on columns: one label
    computation per window, through the one-element group ops."""
    spec = arrangement.spec
    elems = arrangement.elements
    n = len(elems)
    viols = []
    if constraint.first is not None and elems[0] != constraint.first:
        viols.append(Violation(None, (0,), f"position 0 must hold {constraint.first!r}"))
    if constraint.last is not None and elems[-1] != constraint.last:
        viols.append(Violation(None, (n - 1,), f"last position must hold {constraint.last!r}"))
    edges = arrangement.edge_index_pairs()
    triples = arrangement.triple_index_runs()
    for ci, cl in enumerate(constraint.clauses):
        if isinstance(cl, RainbowClause):
            if cl.kind == "triple":
                if arrangement.shape == CIRCULAR and 1 < n < 3:
                    viols.append(Violation(ci, (), "triple labels need length >= 3"))
                    continue
                labeled = [
                    (_ref_rainbow_triple_label(spec, cl, elems[a], elems[b], elems[c]), (a, b, c))
                    for a, b, c in triples
                ]
            else:
                labeled = [
                    (_ref_rainbow_label(spec, cl, elems[a], elems[b]), (a, b)) for a, b in edges
                ]
            if not labeled:
                # no window, but a clause the ground cannot label still raises
                x = elems[0]
                if cl.kind == "triple":
                    _ref_rainbow_triple_label(spec, cl, x, x, x)
                else:
                    _ref_rainbow_label(spec, cl, x, x)
            seen = {}
            for lab, pos in labeled:
                if lab in seen:
                    viols.append(Violation(
                        ci, seen[lab] + pos,
                        f"label {lab!r} repeats at positions {seen[lab]} and {pos}"))
                    break
                seen[lab] = pos
        else:
            truths = _predicate_evaluator(spec, cl.predicate)
            if not edges:
                continue
            labels = [_ref_pair_labels(spec, cl, elems[a], elems[b]) for a, b in edges]
            flat = [v for vals in labels for v in vals]
            bad = truths([flat])[0].find(0)
            if bad >= 0:
                a, b = edges[bad // len(labels[0])]
                viols.append(Violation(
                    ci, (a, b),
                    f"label {flat[bad]!r} at positions ({a}, {b}) fails "
                    f"{cl.predicate.describe()}"))
    return CheckReport(not viols, tuple(viols))


def _report_or_error(checker, arrangement, constraint):
    try:
        return checker(arrangement, constraint)
    except ValueError as exc:
        return f"ValueError: {exc}"


# each parity ground with the predicates asked of it; over Z^2 and
# Z/2 x Z/4 every predicate raises, which the two checkers must share
_PARITY_GROUNDS = (
    (Z, range(-12, 30), _INTEGER_PREDICATES),
    (CyclicProduct((30,)), range(30), _INTEGER_PREDICATES),
    (CyclicProduct((2, 4)), _group_elements((2, 4)), (PredicateSpec("prime"),)),
    (PrimeField(7), range(7), tuple(PredicateSpec(k, (7,)) for k in MODULAR_KINDS)
     + (PredicateSpec("prime"), PredicateSpec("coprime_to", (6,)))),
    (field_spec_for(8), range(8), tuple(PredicateSpec(k, (8,)) for k in MODULAR_KINDS)),
    (field_spec_for(9), range(9), tuple(PredicateSpec(k, (9,)) for k in MODULAR_KINDS)),
    (IntegerVectors(2), [(x, y) for x in range(-3, 4) for y in range(-3, 4)],
     (PredicateSpec("coprime_to", (6,)),)),
)
_PARITY_RAINBOW = ("sum", "diff", "distance", "weighted", "triple", "product")


@st.composite
def parity_cases(draw):
    """An arrangement of 1 to 12 elements of a parity ground, either shape,
    under one to three clauses of any kind or labeler, with or without
    pins.  On 8 elements or fewer, half the time the arrangement is a
    witness search() found, so clean and failing arrangements both come
    up; an instance with no witness or an invalid clause keeps the drawn
    order."""
    spec, pool, predicates = draw(st.sampled_from(_PARITY_GROUNDS))
    pool = list(pool)
    n = draw(st.integers(1, min(12, len(pool))))
    elems = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n, unique=True))
    clauses = []
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            modulus = draw(st.none() | st.integers(2, 9))
            clauses.append(RainbowClause(draw(st.sampled_from(_PARITY_RAINBOW)), modulus))
        else:
            labeler = draw(st.sampled_from(_ALL_LABELERS))
            a0 = draw(st.sampled_from(pool)) if labeler == "affine_product" else None
            clauses.append(PredicateClause(draw(st.sampled_from(predicates)), labeler, a0=a0))
    shape = draw(st.sampled_from([LINEAR, CIRCULAR]))
    first = draw(st.none() | st.sampled_from(elems))
    last = draw(st.none() | st.sampled_from(elems))
    cons = Constraint(tuple(clauses), first=first, last=last)
    if n <= 8 and draw(st.booleans()):
        try:
            out = search(GroundSet(spec, tuple(elems)), shape, cons, budget=2000)
        except ValueError:
            out = None
        if out is not None and out.witness is not None:
            elems = list(out.witness.elements)
    return Arrangement(spec, shape, tuple(elems)), cons


class TestCheckParity:
    """check() on columns against the per-window checker it replaced:
    the same report, violation for violation, or the same error."""

    @given(parity_cases())
    @settings(max_examples=400, deadline=None, derandomize=True)
    def test_matches_per_window_check(self, case):
        arr, cons = case
        assert _report_or_error(check, arr, cons) == _report_or_error(_reference_check, arr, cons)

    @pytest.mark.parametrize("spec, pool, predicates", _PARITY_GROUNDS, ids=lambda v: repr(v)[:24])
    def test_every_order_of_a_small_ground(self, spec, pool, predicates):
        # every order of four or five elements, so that each clause meets
        # arrangements with and without a repeated label or failing edge
        elems = [-3, 0, 1, 4, 9] if spec == Z else list(pool)[:5]
        clauses = [RainbowClause(k, m) for k in _PARITY_RAINBOW for m in (None, 4)]
        clauses += [_clause(pred, lb, elems[1]) for pred in predicates for lb in _ALL_LABELERS]
        outcomes = set()
        for cl in clauses:
            for shape in (LINEAR, CIRCULAR):
                for order in permutations(elems[: 4 if isinstance(cl, PredicateClause) else 5]):
                    arr = Arrangement(spec, shape, order)
                    cons = Constraint((cl,), first=elems[0])
                    got = _report_or_error(check, arr, cons)
                    assert got == _report_or_error(_reference_check, arr, cons), (arr, cl)
                    outcomes.add(got if isinstance(got, str) else got.ok)
        assert {True, False} <= outcomes

    def test_abs_diff_and_sum_reports_the_first_failing_label(self):
        # 5 - 3 = 2 is prime, 5 + 3 = 8 is not: the edge fails on its sum,
        # before the next edge's difference 3 - 2 = 1 is met
        arr = Arrangement(Z, LINEAR, (5, 3, 2))
        report = check(arr, predicate("prime", (), "abs_diff_and_sum"))
        assert report == _reference_check(arr, predicate("prime", (), "abs_diff_and_sum"))
        assert report.first.positions == (0, 1)
        assert report.first.message == "label 8 at positions (0, 1) fails prime"

    def test_modulus_on_tuple_labels(self):
        spec = CyclicProduct((2, 4))
        cons = rainbow("sum", modulus=3)
        with pytest.raises(ValueError, match="^modulus applies to integer labels only$"):
            check(Arrangement(spec, LINEAR, ((0, 0), (1, 1))), cons)
        # a single element has no window, yet the clause cannot label one
        # over this ground, so check() refuses it as search() does
        with pytest.raises(ValueError, match="^modulus applies to integer labels only$"):
            check(Arrangement(spec, CIRCULAR, ((0, 0),)), cons)
