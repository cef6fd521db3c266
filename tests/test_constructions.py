import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permlab.algebra import (
    CIRCULAR,
    LINEAR,
    Arrangement,
    CyclicProduct,
    Integers,
    IntegerVectors,
    group_elements,
    sylow2_cyclic,
)
from permlab.conjectures import _GROUPS_BY_ORDER, instance
from permlab.constructions import (
    _repair_tagged,
    _sorted_distinct,
    _triple_cycle_tagged,
    _weighted_cycle_tagged,
    circular_distinct_diffs,
    coprime_circle_odd,
    mod_distinct_diffs,
    prime_circle_distinct_distances,
    qr_cycle,
    reduced_residue_cycle,
    repair_adjacent_sums,
    symmetric_sequencing,
    triple_sum_cycle,
    weighted_sum_cycle,
    zigzag_distances,
)
from permlab.numtheory import first_n_primes
from permlab.search import (
    Constraint,
    RainbowClause,
    brute_force_enumerate,
    canonical_form,
    check,
)
from permlab.algebra import GroundSet

Z = Integers()


class TestZigzag:
    def test_examples(self):
        assert zigzag_distances([1, 2, 3, 4]).elements == (1, 4, 2, 3)
        assert zigzag_distances([1, 2, 3, 4, 5]).elements == (1, 5, 2, 4, 3)
        assert zigzag_distances([7]).elements == (7,)

    def test_rejects_unsorted_or_duplicated(self):
        with pytest.raises(ValueError):
            zigzag_distances([2, 1, 3])
        with pytest.raises(ValueError):
            zigzag_distances([1, 1, 2])

    @given(st.sets(st.integers(-(2**40), 2**40), min_size=1, max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_gaps_strictly_decrease(self, values):
        arr = zigzag_distances(sorted(values))
        gaps = [abs(a - b) for a, b in zip(arr.elements, arr.elements[1:])]
        assert gaps == sorted(gaps, reverse=True)
        assert len(set(gaps)) == len(gaps)
        assert arr.elements[0] == min(values)


class TestPrimeCircle:
    def test_examples(self):
        assert prime_circle_distinct_distances(1).elements == (2,)
        a4 = prime_circle_distinct_distances(4)
        assert sorted(a4.elements) == [2, 3, 5, 7]
        assert a4.elements[0] == 2 and a4.elements[-1] == 7

    def test_n2_degenerate(self):
        with pytest.raises(ValueError):
            prime_circle_distinct_distances(2)

    def test_seam_parity_n25(self):
        arr = prime_circle_distinct_distances(25)
        e = arr.elements
        dists = [abs(x - y) for x, y in zip(e, e[1:] + e[:1])]
        assert len(set(dists)) == 25
        assert sum(1 for d in dists if d % 2 == 1) == 2
        assert dists[0] % 2 == 1 and dists[-1] % 2 == 1

    def test_range(self):
        for n in [1, 3, 4, 5, 10, 40, 64]:
            arr = prime_circle_distinct_distances(n)
            assert sorted(arr.elements) == first_n_primes(n)


class TestCircularDistinctDiffs:
    def test_golden_values(self):
        assert circular_distinct_diffs(4).elements == (0, 3, 1, 2, 4)
        assert circular_distinct_diffs(5).elements == (0, 4, 1, 3, 2, 5)
        assert circular_distinct_diffs(6).elements == (0, 1, 5, 2, 4, 3, 6)
        assert circular_distinct_diffs(7).elements == (0, 3, 5, 4, 2, 6, 1, 7)

    def test_formula_range_to_1000(self):
        for n in range(4, 1001):
            arr = circular_distinct_diffs(n)
            assert arr.elements[0] == 0 and arr.elements[-1] == n

    def test_domain(self):
        for n in (0, 1, 2, 3):
            with pytest.raises(ValueError):
                circular_distinct_diffs(n)


class TestModDistinctDiffs:
    def test_golden_values(self):
        assert mod_distinct_diffs(4).elements == (2, 1, 3, 4)
        assert mod_distinct_diffs(6).elements == (3, 2, 4, 1, 5, 6)
        assert mod_distinct_diffs(2).elements == (1, 2)

    def test_formula_range_to_1000(self):
        for n in range(2, 1001, 2):
            arr = mod_distinct_diffs(n)
            assert sorted(arr.elements) == list(range(1, n + 1))

    def test_odd_rejected(self):
        with pytest.raises(ValueError, match="even"):
            mod_distinct_diffs(5)


class TestSymmetricSequencing:
    SEQUENCING = Constraint((RainbowClause("diff"),))

    def test_every_catalog_group_with_one_involution(self):
        # Gordon: a sequencing exists iff the Sylow 2-subgroup is cyclic
        # and nontrivial, that is, iff the group has exactly one involution
        found = []
        for m, groups in _GROUPS_BY_ORDER.items():
            for moduli in groups:
                spec = CyclicProduct(moduli)
                arr, steps = symmetric_sequencing(spec, 10**5)
                if m % 2 or not sylow2_cyclic(spec):
                    assert (arr, steps) == (None, 0), moduli
                    continue
                found.append(moduli)
                assert arr.shape == LINEAR and arr.elements[0] == group_elements(spec)[0]
                assert sorted(arr.elements) == group_elements(spec)
                assert check(arr, self.SEQUENCING).ok, moduli
                assert 0 <= steps <= 10**5
        assert found == ([(m,) for m in range(2, 19, 2)] + [(3, 3, 2)]
                         + [(m,) for m in range(20, 37, 2)] + [(3, 12)])

    def test_steps(self):
        steps = {m: symmetric_sequencing(CyclicProduct((m,)), 10**4)[1] for m in range(22, 37, 2)}
        assert steps == {22: 88, 24: 80, 26: 387, 28: 52, 30: 70, 32: 3169, 34: 1729, 36: 139}
        assert symmetric_sequencing(CyclicProduct((3, 12)), 10**5)[1] == 79_894

    def test_cap(self):
        # whole Z/3 x Z/12 needs 79,894 steps
        assert symmetric_sequencing(CyclicProduct((3, 12)), 10**4) == (None, 10**4)
        assert symmetric_sequencing(CyclicProduct((32,)), 3168) == (None, 3168)
        assert symmetric_sequencing(CyclicProduct((32,)), 3169)[0] is not None

    def test_symmetric_form(self):
        arr, _ = symmetric_sequencing(CyclicProduct((26,)), 10**4)
        a = arr.elements
        assert a[-1] == 13 and all((x + 13) % 26 == y for x, y in zip(a, reversed(a)))

    @pytest.mark.parametrize("m", [2, 4, 6, 8])
    def test_brute_force_agrees(self, m):
        spec = CyclicProduct((m,))
        ground = GroundSet(spec, tuple(range(m)))
        count, witnesses = brute_force_enumerate(
            ground, LINEAR, Constraint((RainbowClause("diff"),), first=0))
        arr, _ = symmetric_sequencing(spec, 10**4)
        assert count > 0
        assert arr.elements in {w.elements for w in witnesses}

    @pytest.mark.parametrize("m", range(22, 37, 2))
    def test_closed_form_reference(self, m):
        # mod_distinct_diffs(m) less its first element is
        # (0, -1, 1, -2, 2, ..., m/2), another symmetric sequencing, which
        # the 3.3 instance of whole Z/m accepts as the walk's output
        ref = tuple((x - m // 2) % m for x in mod_distinct_diffs(m).elements)
        assert ref[:3] == (0, m - 1, 1) and ref[-1] == m // 2
        inst = instance("3.3", {"m": m, "g": 0, "n": m, "seed": 0, "first": 0})
        assert inst.check(Arrangement(inst.ground.spec, LINEAR, ref)).ok
        assert inst.check(symmetric_sequencing(inst.ground.spec, 10**4)[0]).ok


WEIGHTED_CASES = {
    "identity": [1, 2, 3, 4, 5],
    "swap23": [0, 5, 6, 10],
    "n4-lead-swap": [7, 46, 74, 180],
    "swap-collision-pair": [6, 9, 19, 50, 68, 107],
    "swap-after-ap": [6, 7, 15, 28, 50, 72, 73, 74, 77, 182],
    "reverse-ap-triple": [2, 16, 19, 53, 64, 65, 66, 67, 68, 193],
    "tail-swap-before": [15, 18, 39, 69, 71, 73, 187],
    "tail-reverse": [2, 16, 19, 53, 64, 65, 66, 67, 68, 199],
}

TRIPLE_CASES = {
    "identity": [0, 1, 2, 4, 8, 16],
    "n4-identity": [1, 2, 3, 4],
    "n5-tail-swap": [0, 2, 3, 4, 5],
    "n6-pull-fifth": [4, 45, 47, 54, 59, 83],
    "n6-tail-swap": [3, 35, 41, 55, 84, 93],
    "n7-high-collision": [3, 6, 7, 27, 61, 63, 85],
    "n7-low-collision": [4, 54, 58, 69, 77, 85, 92],
    "n7-mid-plain": [3, 18, 41, 43, 51, 56, 76],
    "n7-mid-double": [2, 12, 15, 17, 19, 23, 26],
    "late-swap-after": [0, 7, 10, 54, 66, 71, 91, 94, 101, 110, 140, 146],
    "late-shift-back": [31, 33, 40, 62, 76, 88, 92, 104, 113, 119, 146, 159],
    "late-rotate-back": [34, 47, 67, 81, 111, 116, 120, 130, 149, 183],
    "both-distant": [11, 92, 108, 111, 114, 115, 117, 120, 125, 127, 131, 142, 230],
    "both-gap5": [24, 28, 34, 40, 90, 97, 101, 106, 107, 113, 127, 148, 175],
    "both-gap4": [5, 7, 15, 59, 80, 81, 88, 96, 97, 109, 118, 134, 142],
    "both-gap3": [2, 5, 38, 49, 72, 89, 96, 103, 134, 152],
    "close-shift-left": [25, 30, 64, 118, 133, 223, 247, 296, 322, 419],
    "close-shift-right": [37, 150, 166, 255, 258, 259, 299, 351, 384],
    "n8-terminal-plain": [3, 28, 51, 62, 79, 85, 129, 161],
    "n8-terminal-even": [3, 28, 51, 62, 79, 85, 96, 161],
    "n8-terminal-plain-mirrored": [1, 124, 171, 241, 261, 275, 365, 411],
    "n8-terminal-even-mirrored": [8, 143, 194, 195, 247, 269, 322, 381],
    "n9-terminal-plain": [40, 47, 65, 154, 253, 275, 279, 382, 385],
    "mirror:late-swap-after": [11, 27, 43, 54, 63, 72, 87, 110, 112, 130, 131, 139, 231],
}

REPAIR_CASES = {
    "n3-identity": [1, 2, 3],
    "identity": [1, 2, 3, 10],
    "n4-tail-swap": [1, 2, 3, 4],
    "swap-before": [18, 26, 38, 39, 55, 57, 59],
    "swap-after": [1, 33, 46, 48, 78],
}


class TestWeightedSumCycle:
    def test_examples(self):
        assert weighted_sum_cycle([1, 2, 3, 4, 5]).elements == (1, 2, 3, 4, 5)
        assert weighted_sum_cycle([0, 5, 6, 10]).elements == (0, 6, 5, 10)
        weighted_sum_cycle([0, 1, 2, 3, 4])  # arithmetic run exercises the AP branches

    def test_case_coverage(self):
        seen = set()
        for tag, vals in WEIGHTED_CASES.items():
            perm, got = _weighted_cycle_tagged(vals, Z)
            assert got == tag, (tag, got)
            weighted_sum_cycle(vals)  # postcondition recheck
            seen.add(got)
        assert seen == set(WEIGHTED_CASES)

    def test_vector_input(self):
        vals = [(0, 1), (1, 0), (1, 5), (2, 2), (3, 1)]
        arr = weighted_sum_cycle(vals, IntegerVectors(2))
        assert sorted(arr.elements) == sorted(vals)

    def test_too_small(self):
        with pytest.raises(ValueError):
            weighted_sum_cycle([1, 2, 3])

    def test_unordered_spec(self):
        from permlab.algebra import CyclicProduct

        with pytest.raises(ValueError):
            weighted_sum_cycle([0, 1, 2, 3], CyclicProduct((7,)))

    def test_small_outputs_among_brute_force_witnesses(self):
        cons = Constraint((RainbowClause("weighted"),))
        rng = random.Random(10)
        for _ in range(15):
            n = rng.randint(4, 7)
            vals = sorted(rng.sample(range(-20, 30), n))
            arr = weighted_sum_cycle(vals)
            cnt, wits = brute_force_enumerate(
                GroundSet(Z, tuple(vals)), CIRCULAR, cons
            )
            assert cnt > 0
            canon = canonical_form(arr, cons).elements
            assert canon in {w.elements for w in wits}


class TestTripleSumCycle:
    def test_examples(self):
        assert triple_sum_cycle([1, 2, 3, 4]).elements == (1, 2, 3, 4)
        assert triple_sum_cycle([0, 2, 3, 4, 5]).elements == (0, 2, 3, 5, 4)

    def test_case_coverage(self):
        seen = set()
        for tag, vals in TRIPLE_CASES.items():
            perm, got = _triple_cycle_tagged(vals, Z, False)
            assert got == tag, (tag, got, vals)
            triple_sum_cycle(vals)
            seen.add(got)
        assert seen == set(TRIPLE_CASES)

    def test_n9_terminal_even_branch_is_vacuous(self):
        # solving the two collision equations plus the doubled-middle
        # equality forces a_7 = a_2 + a_6 - a_3 < a_6, which contradicts the
        # sorted order, so no integer instance can reach the even branch;
        # it stays implemented for faithfulness and self-checks if reached
        rng = random.Random(0)
        for _ in range(20000):
            a1 = rng.randint(0, 5)
            a2, a3, a4, a5, a6 = sorted(rng.sample(range(6, 200), 5))
            assert a2 + a6 - a3 < a6

    def test_mirror_reduction(self):
        vals = TRIPLE_CASES["mirror:late-swap-after"]
        perm, tag = _triple_cycle_tagged(vals, Z, False)
        assert tag.startswith("mirror:")
        assert sorted(perm) == sorted(vals)

    def test_vector_input(self):
        vals = [(0, 3), (1, 1), (1, 4), (2, 0), (5, 5)]
        arr = triple_sum_cycle(vals, IntegerVectors(2))
        assert sorted(arr.elements) == sorted(vals)

    def test_small_outputs_among_brute_force_witnesses(self):
        cons = Constraint((RainbowClause("triple"),))
        rng = random.Random(11)
        for _ in range(12):
            n = rng.randint(4, 7)
            vals = sorted(rng.sample(range(-20, 30), n))
            arr = triple_sum_cycle(vals)
            cnt, wits = brute_force_enumerate(GroundSet(Z, tuple(vals)), CIRCULAR, cons)
            assert cnt > 0
            canon = canonical_form(arr, cons).elements
            assert canon in {w.elements for w in wits}


class TestReducedResidueCycle:
    def test_examples(self):
        assert reduced_residue_cycle(7).elements == (3, 2, 6, 4, 5, 1)
        assert reduced_residue_cycle(3).elements == (2, 1)
        r9 = reduced_residue_cycle(9)
        assert sorted(r9.elements) == [1, 2, 4, 5, 7, 8]

    def test_both_residue_systems_small(self):
        for n in (3, 5, 7, 9, 11, 25, 27, 49, 81):
            arr = reduced_residue_cycle(n)
            elems = list(arr.elements)
            diffs = [(x - y) % n for x, y in zip(elems, elems[1:] + elems[:1])]
            from math import gcd

            assert sorted(elems) == sorted(set(elems))
            assert all(gcd(v, n) == 1 for v in elems)
            assert len(set(diffs)) == len(diffs)
            assert all(gcd(d, n) == 1 for d in diffs)

    def test_domain(self):
        for bad in (1, 2, 4, 6, 15, 8):
            with pytest.raises(ValueError):
                reduced_residue_cycle(bad)


class TestQrCycle:
    def test_q29_sum_s(self):
        arr = qr_cycle(29, "sum", "S")
        assert arr is not None
        assert arr.elements[:3] == (4, 16, 64 % 29)

    def test_q17_diff_t(self):
        arr = qr_cycle(17, "diff", "T")
        assert arr is not None
        diffs = [
            (x - y) % 17
            for x, y in zip(arr.elements, arr.elements[1:] + arr.elements[:1])
        ]
        squares = {r * r % 17 for r in range(1, 17)}
        assert all(d not in squares and d != 0 for d in diffs)

    def test_q5_small_outcomes_recorded(self):
        assert qr_cycle(5, "sum", "S") is None
        assert qr_cycle(5, "diff", "T") is not None

    def test_prime_power(self):
        arr = qr_cycle(27, "sum", "S")
        assert arr is not None and len(arr.elements) == 13

    def test_domain(self):
        with pytest.raises(ValueError):
            qr_cycle(16, "sum", "S")
        with pytest.raises(ValueError):
            qr_cycle(15, "sum", "S")
        with pytest.raises(ValueError):
            qr_cycle(29, "plus", "S")


class TestCoprimeCircle:
    def test_examples(self):
        assert coprime_circle_odd(7).elements == (0, 5, 2, 3, 4, 1, 6, 7)
        assert coprime_circle_odd(5).elements == (0, 1, 4, 3, 2, 5)
        coprime_circle_odd(9)

    def test_range_to_999(self):
        for n in range(3, 1000, 2):
            arr = coprime_circle_odd(n)
            assert arr.elements[0] == 0 and arr.elements[-1] == n

    def test_even_rejected(self):
        with pytest.raises(ValueError):
            coprime_circle_odd(8)


class TestRepairAdjacentSums:
    def test_examples(self):
        assert repair_adjacent_sums([1, 2, 3, 4]).elements == (1, 2, 4, 3)
        assert repair_adjacent_sums([1, 2, 3]).elements == (1, 2, 3)
        repair_adjacent_sums([0, 1, 2, 3, 4, 5])

    def test_case_coverage(self):
        seen = set()
        for tag, vals in REPAIR_CASES.items():
            perm, got = _repair_tagged(vals)
            assert got == tag, (tag, got)
            repair_adjacent_sums(vals)
            seen.add(got)
        assert seen == set(REPAIR_CASES)

    def test_too_small(self):
        with pytest.raises(ValueError):
            repair_adjacent_sums([1, 2])


def _set_sorted_distinct(values, what):
    """_sorted_distinct with the distinctness test on a set, before the sort."""
    vals = list(values)
    if len(set(vals)) != len(vals):
        raise ValueError(f"{what} must be distinct")
    return sorted(vals)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


class TestSortedDistinct:
    @pytest.mark.parametrize("values", [
        [], [5], [3, 1, 2], [3, 1, 2, 1], [True, 1], [1, 1.0, 2], [2, 0, -7, 9, 0],
        [(0, 1), (1, 0), (0, 1)], [(2, 2), (0, 1), (1, 5)], [(0, 1), (0,), (0, 1, 2)],
        [1, "a", 2], [1, "a", 1], ["b", "a", "b"], [[2], [1]], [[1], [1]], [[1], "a"],
        [(1, [2]), (0, [1])], [None, 1], [None, None],
    ])
    def test_same_answer_and_error_as_a_set_first(self, values):
        assert _outcome(_sorted_distinct, values, "values") == _outcome(
            _set_sorted_distinct, values, "values")

    def test_builders_name_the_fault(self):
        with pytest.raises(ValueError, match="^values must be distinct$"):
            repair_adjacent_sums([3, 1, "a", 1])
        with pytest.raises(TypeError, match="unhashable type: 'list'"):
            weighted_sum_cycle([[0, 1], [1, 0], [1, 5], [2, 2]], IntegerVectors(2))
        with pytest.raises(ValueError, match="^values must be strictly increasing and distinct$"):
            zigzag_distances([1, 3, 3, 4])


class TestRandomizedPostconditions:
    # the acceptance suite runs the full 500-instance sweeps; this is a
    # fast smoke version exercising every operation across mixed sizes
    def test_mixed_fuzz(self):
        rng = random.Random(99)
        for _ in range(150):
            n = rng.randint(4, 24)
            vals = sorted(rng.sample(range(-(2**20), 2**20), n))
            zigzag_distances(vals)
            weighted_sum_cycle(vals)
            triple_sum_cycle(vals)
            repair_adjacent_sums(vals)
