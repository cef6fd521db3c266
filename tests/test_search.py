import random
from itertools import permutations

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
    PrimeField,
)
from permlab.numtheory import PredicateSpec
from permlab.search import (
    Constraint,
    PredicateClause,
    RainbowClause,
    brute_force_enumerate,
    canonical_form,
    check,
    check_pair_numbering,
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

    def test_singleton(self):
        out = search(ints(7), CIRCULAR, rainbow("sum"))
        assert out.status == "witness"
        cnt, wits = brute_force_enumerate(ints(7), CIRCULAR, rainbow("sum"))
        assert cnt == 1

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


class TestDifferentialFence:
    """Kernel witness counts against the brute-force oracle, clause mixes
    included; a kernel that drops a clause or a witness shows up here."""

    @given(conjunctions())
    @settings(max_examples=120, deadline=None, derandomize=True)
    def test_counts_match_brute_force(self, instance):
        ground, shape, cons = instance
        out = search(ground, shape, cons, count_witnesses=True)
        expected, _ = brute_force_enumerate(ground, shape, cons)
        count = out.witness_count
        if shape == LINEAR and cons.reversal_symmetric and len(ground) > 1:
            # the kernel walks both directions of a line, the oracle keeps one
            assert count % 2 == 0
            count //= 2
        assert count == expected
        assert (out.status == "witness") == (expected > 0)

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


class TestPairNumbering:
    def test_small_witness(self):
        g = ints(1, 2, 3, 4)
        out = search_pair_numbering(g)
        assert out.status == "witness"
        assert check_pair_numbering(Z, out.a, out.b)

    def test_group_instance(self):
        spec = CyclicProduct((5,))
        g = GroundSet(spec, (0, 1, 2, 3))
        out = search_pair_numbering(g)
        assert out.status == "witness"
        assert check_pair_numbering(spec, out.a, out.b)

    def test_capacity(self):
        with pytest.raises(ValueError):
            search_pair_numbering(ints(*range(7)))

    def test_matches_direct_enumeration(self):
        from permlab.algebra import group_add, group_double

        rng = random.Random(9)
        for _ in range(20):
            n = rng.randint(2, 5)
            mod = rng.randint(2, 9)
            spec = CyclicProduct((mod,))
            vals = tuple(sorted(rng.sample(range(mod), min(n, mod))))
            out = search_pair_numbering(GroundSet(spec, vals))
            exists = False
            for perm in permutations(vals):
                labels = {
                    group_add(spec, x, group_double(spec, y))
                    for x, y in zip(vals, perm)
                }
                if len(labels) == len(vals):
                    exists = True
                    break
            assert (out.status == "witness") == exists, (vals, mod)


class TestValidation:
    def test_triple_on_two_cycle_rejected(self):
        with pytest.raises(ValueError):
            search(ints(1, 2), CIRCULAR, rainbow("triple"))

    def test_pin_not_in_ground(self):
        with pytest.raises(ValueError):
            search(ints(1, 2, 3), LINEAR, rainbow("sum", first=9))

    def test_bad_budget(self):
        with pytest.raises(ValueError):
            search(ints(1, 2, 3), LINEAR, rainbow("sum"), budget=0)

    def test_modulus_validation(self):
        with pytest.raises(ValueError):
            RainbowClause("sum", modulus=1)
        with pytest.raises(ValueError):
            RainbowClause("nope")
