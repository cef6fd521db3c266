"""The label-sum stage of search(): Gordon's argument settles or steers
near-complete rainbow clauses before the first node.  Its verdicts and
witness counts are fenced against brute_force_enumerate, and its
certificates are recomputed here from the definition."""

import random
from itertools import combinations, product

import pytest

from permlab.algebra import (
    CIRCULAR,
    LINEAR,
    CyclicProduct,
    GroundSet,
    Integers,
    element_coords,
    element_from_coords,
)
from permlab.conjectures import _GROUPS_BY_ORDER, instance
from permlab.search import (
    Constraint,
    RainbowClause,
    RootCertificate,
    brute_force_enumerate,
    search,
)

_KINDS = ("diff", "sum", "weighted", "triple")


def _windows(shape, kind, n):
    if shape == CIRCULAR:
        return n
    return max(n - 2, 0) if kind == "triple" else n - 1


def _read_by_stage(space_size, shape, kind, n):
    """Whether the stage can answer or steer a search of the clause with
    at most its first end pinned: c = |L| - w, the number of labels no
    window takes, is below 0, or at most 2 on a circle, or 0 on a line of
    diff (on other lines the sum of the labels depends on their order)."""
    if kind == "triple" and shape == CIRCULAR and n < 3:
        return False  # no such instance
    c = space_size - _windows(shape, kind, n)
    return c < 0 or c <= 2 and shape == CIRCULAR or c == 0 and kind == "diff"


def _elements(moduli):
    if len(moduli) == 1:
        return list(range(moduli[0]))
    return list(product(*map(range, moduli)))


def _translates(moduli, pool, n):
    """One n-subset of the group per class under translation, which moves
    every label of a clause by one constant, so that it keeps verdicts and
    counts but not the sums the stage reads."""
    def shift(x, t):
        if len(moduli) == 1:
            return (x + t) % moduli[0]
        return tuple((a + b) % m for a, b, m in zip(x, t, moduli))

    reps = set()
    for subset in combinations(pool, n):
        reps.add(min(tuple(sorted(shift(x, t) for x in subset)) for t in pool))
    return sorted(reps)


def _group_cases(order):
    """(ground, shape, clause) over the catalog groups of the given order,
    on every ground where the stage can act, one ground per translation
    class: circles of up to 8 elements of every kind, and lines through
    whole groups of up to 7 (brute force walks 8! orders of a line of 8 in
    about a second) of diff, as a line of another kind over a group's
    subset never has more windows than labels."""
    out = []
    for moduli in _GROUPS_BY_ORDER[order]:
        pool = _elements(moduli)
        spec = CyclicProduct(moduli)
        for kind, shape in product(_KINDS, (LINEAR, CIRCULAR)):
            for n in range(2, min(order, 7 if shape == LINEAR else 8) + 1):
                if _read_by_stage(order - (kind == "diff"), shape, kind, n):
                    for elems in _translates(moduli, pool, n):
                        out.append((GroundSet(spec, elems), shape, RainbowClause(kind)))
    return out


def _modulus_cases():
    """(ground, shape, clause) over small integer sets under a Z/m
    modulus, m = 3, 4, 5, of every kind and shape, where the stage can
    act, more windows than labels (c < 0) among them."""
    rng = random.Random(15)
    out = []
    for m, kind, shape in product((3, 4, 5), _KINDS, (LINEAR, CIRCULAR)):
        for n in range(2, 7 if shape == LINEAR else 8):
            if _read_by_stage(m, shape, kind, n):
                for _ in range(2):
                    elems = tuple(sorted(rng.sample(range(-6, 10), n)))
                    out.append((GroundSet(Integers(), elems), shape, RainbowClause(kind, m)))
    return out


def _assert_matches_brute_force(ground, shape, clause):
    """Unpinned and with a first pin, except on circles of 8 (brute force
    walks (n - 1)! orders of a circle either way, and no circle's label sum
    depends on its pins)."""
    pins = (None,) if shape == CIRCULAR and len(ground) == 8 else (None, ground.elements[0])
    for first in pins:
        cons = Constraint((clause,), first=first)
        out = search(ground, shape, cons, count_witnesses=True)
        expected, _ = brute_force_enumerate(ground, shape, cons)
        assert out.witness_count == expected, (ground, shape, cons)
        assert (out.status == "witness") == (expected > 0)
        if out.certificate is not None:
            assert (out.status, out.nodes) == ("exhausted", 0)


class TestBruteForceFence:
    """Every verdict and witness count of a search the stage reads agrees
    with the plain oracle, which has no such stage."""

    @pytest.mark.parametrize("order", range(2, 10))
    def test_catalog_groups(self, order):
        cases = _group_cases(order)
        assert cases
        for ground, shape, clause in cases:
            _assert_matches_brute_force(ground, shape, clause)

    def test_integers_under_a_modulus(self):
        cases = _modulus_cases()
        # the stage answers some of them, and leaves some to the walk
        fired = [search(g, s, Constraint((c,))).certificate is not None for g, s, c in cases]
        assert any(fired) and not all(fired)
        for ground, shape, clause in cases:
            _assert_matches_brute_force(ground, shape, clause)

    def test_linear_diff_with_both_ends_pinned(self):
        # both ends fix the sum of a line's labels, first - last, so the
        # stage tests the labels left out as it does on a circle
        for moduli in ((5,), (6,), (7,), (2, 2), (2, 3)):
            pool = _elements(moduli)
            spec = CyclicProduct(moduli)
            for n in range(max(2, len(pool) - 3), len(pool) + 1):
                for elems in combinations(pool, n):
                    ground = GroundSet(spec, elems)
                    cons = Constraint((RainbowClause("diff"),), first=elems[0], last=elems[-1])
                    out = search(ground, LINEAR, cons, count_witnesses=True)
                    assert out.witness_count == brute_force_enumerate(ground, LINEAR, cons)[0]


class TestForcedLast:
    def test_whole_cyclic_group_keeps_its_first_witness(self):
        # labels x - y of a line through all of Z/m with first 0 sum to
        # first - last and are all of Z/m \ {0}, so last = m/2: the stage
        # pins it for the kernel, which then meets fewer dead ends
        ground = GroundSet(CyclicProduct((12,)), tuple(range(12)))
        cons = Constraint((RainbowClause("diff"),), first=0)
        out = search(ground, LINEAR, cons)
        assert out.status == "witness"
        assert out.witness.elements == (0, 1, 3, 2, 7, 10, 8, 4, 11, 5, 9, 6)
        assert out.nodes == 254
        assert out.certificate is None
        # the walk takes the forced last as a pin, and the caller's
        # constraint is still unchanged
        assert cons.last is None

    @pytest.mark.parametrize("moduli", [(4,), (6,), (8,), (10,), (12,), (3, 4)])
    def test_forcing_equals_pinning(self, moduli):
        # a forced last is a plain last pin: last = first - sigma(G)
        spec = CyclicProduct(moduli)
        pool = _elements(moduli)
        ground = GroundSet(spec, pool)
        first = pool[1]
        sigma = map(sum, zip(*(element_coords(spec, x) for x in pool)))
        last = element_from_coords(spec, [(f - s) % m for f, s, m in zip(
            element_coords(spec, first), sigma, moduli)])
        forced = Constraint((RainbowClause("diff"),), first=first)
        pinned = Constraint((RainbowClause("diff"),), first=first, last=last)
        for count_witnesses in (False, True):
            a = search(ground, LINEAR, forced, count_witnesses=count_witnesses)
            b = search(ground, LINEAR, pinned, count_witnesses=count_witnesses)
            assert (a.status, a.witness, a.nodes, a.witness_count) == \
                (b.status, b.witness, b.nodes, b.witness_count)
        assert a.status == "witness" and a.witness.elements[-1] == last

    def test_zero_sigma_with_a_first_pin(self):
        # the elements of Z/2 x Z/4 sum to 0, so no last is forced: the
        # stage answers before the first node
        ground = GroundSet(CyclicProduct((2, 4)), _elements((2, 4)))
        out = search(ground, LINEAR, Constraint((RainbowClause("diff"),), first=(0, 1)))
        assert out.status == "exhausted" and out.nodes == 0
        assert out.certificate == RootCertificate(0, "diff", 7, 7, None)

    def test_zero_label_sum_leaves_no_last(self):
        # the elements of Z/3 x Z/3 sum to 0, so a line through all of them
        # needs first - last = 0, which no two distinct ends give
        pool = tuple(product(range(3), range(3)))
        ground = GroundSet(CyclicProduct((3, 3)), pool)
        out = search(ground, LINEAR, Constraint((RainbowClause("diff"),)))
        assert out.status == "exhausted" and out.nodes == 0
        assert out.certificate == RootCertificate(0, "diff", 8, 8, None)


def _recompute(ground):
    """The certificate of a circular diff clause over a ground of Z/m,
    from the definition: L = Z/m \\ {0}, w = n windows, and the labels
    left out sum to sigma(L) - 0."""
    m = ground.spec.moduli[0]
    labels = list(range(1, m))
    left_out_sum = sum(labels) % m
    c = len(labels) - len(ground)
    assert not any(sum(s) % m == left_out_sum for s in combinations(labels, c))
    return RootCertificate(0, "diff", len(labels), len(ground), left_out_sum)


class TestCertificate:
    @pytest.mark.parametrize("m", [10, 11])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_difference_cycles_of_nine(self, m, seed):
        # 3.4ii n = 9: in Z/10 the nine labels are all of L and sum to 5,
        # not 0; in Z/11 the one label left out would have to be 0
        inst = instance("3.4ii", {"m": m, "g": 0, "n": 9, "seed": seed})
        out = search(inst.ground, inst.shape, inst.constraint, 10_000)
        assert (out.status, out.nodes) == ("exhausted", 0)
        assert out.certificate == _recompute(inst.ground)

    def test_no_certificate_from_the_walk(self):
        # c = 2, and the labels 1 and 6 left out would sum to 0
        ground = GroundSet(CyclicProduct((7,)), tuple(range(4)))
        out = search(ground, CIRCULAR, Constraint((RainbowClause("diff"),)))
        assert out.status == "witness" and out.certificate is None

    def test_two_left_out_labels_must_differ(self):
        # six sums x + y around a circle in Z/2^3 total 2 sigma(S) = 0, as
        # do all eight elements, so the two left out sum to 0: in Z/2^3 they
        # would be one label twice
        pool = tuple(product(range(2), repeat=3))
        for elems in combinations(pool, 6):
            ground = GroundSet(CyclicProduct((2, 2, 2)), elems)
            out = search(ground, CIRCULAR, Constraint((RainbowClause("sum"),)))
            assert out.certificate == RootCertificate(0, "sum", 8, 6, (0, 0, 0))

    def test_more_windows_than_labels(self):
        ground = GroundSet(Integers(), tuple(range(6)))
        out = search(ground, CIRCULAR, Constraint((RainbowClause("sum", 5),)))
        assert out.status == "exhausted" and out.nodes == 0
        assert out.certificate == RootCertificate(0, "sum", 5, 6, None)
