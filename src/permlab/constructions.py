"""Search-free constructions of arrangements with distinct or constrained
adjacent labels.  Every public operation re-checks its own postcondition
with the independent checker before returning, so a transcription slip in
one of the case machines surfaces as a loud failure with the offending
input attached, never as silently bad output.

Inputs that are sets get sorted internally; callers may pass any order.
"""

from __future__ import annotations

from itertools import islice, repeat
from math import gcd
from operator import eq, le, lt, sub

from .algebra import (
    CIRCULAR,
    LINEAR,
    Arrangement,
    CyclicProduct,
    GroupSpec,
    Integers,
    field_spec_for,
    field_view,
    group_add,
    group_add_all,
    group_elements,
    group_neg_all,
    group_sub,
    is_ordered,
    validate_elements,
)
from .numtheory import (
    PredicateSpec,
    euler_phi,
    factorize,
    find_primitive_root,
    first_n_primes,
)
from .search import (
    Constraint,
    PredicateClause,
    RainbowClause,
    check,
)

__all__ = [
    "zigzag_distances",
    "prime_circle_distinct_distances",
    "circular_distinct_diffs",
    "mod_distinct_diffs",
    "symmetric_sequencing",
    "weighted_sum_cycle",
    "triple_sum_cycle",
    "reduced_residue_cycle",
    "qr_cycle",
    "coprime_circle_odd",
    "repair_adjacent_sums",
]


def _recheck(arr: Arrangement, constraint: Constraint, context: str) -> Arrangement:
    report = check(arr, constraint)
    if not report.ok:
        raise AssertionError(
            f"{context}: postcondition violated on {arr.elements!r}: {report.first.message}"
        )
    return arr


def _sorted_distinct(values, what: str) -> list:
    """The values in ascending order, which must be distinct: one sort and a
    scan of neighbours.  A bad input goes through a set, so its fault is
    named in this order: an unhashable value, a repeat, an unorderable one."""
    vals = list(values)
    try:
        out = sorted(vals)
        hash(tuple(out))  # an unhashable value takes the set's TypeError
    except TypeError:
        out = None
    if out is None or any(map(eq, out, islice(out, 1, None))):
        if len(set(vals)) != len(vals):
            raise ValueError(f"{what} must be distinct")
        return sorted(vals)
    return out


# --- strictly decreasing gap chains ------------------------------------------


def zigzag_distances(values) -> Arrangement:
    """Linear arrangement of strictly increasing values, starting at the
    smallest, whose adjacent absolute gaps are strictly decreasing (hence
    pairwise distinct): low and high ends are interleaved."""
    vals = list(values)
    if not all(map(isinstance, vals, repeat(int))):
        raise ValueError("integer values required")
    if not all(map(lt, vals, islice(vals, 1, None))):
        raise ValueError("values must be strictly increasing and distinct")
    n = len(vals)
    if n == 0:
        raise ValueError("need at least one value")
    out = [vals[0]]
    lo, hi = 1, n - 1
    take_high = True
    while lo <= hi:
        out.append(vals[hi] if take_high else vals[lo])
        if take_high:
            hi -= 1
        else:
            lo += 1
        take_high = not take_high
    arr = Arrangement(Integers(), LINEAR, tuple(out))
    gaps = list(map(abs, map(sub, out, out[1:])))
    if any(map(le, gaps, gaps[1:])):
        raise AssertionError(f"gaps not strictly decreasing for {vals!r}")
    return _recheck(arr, Constraint((RainbowClause("distance"),)), "zigzag_distances")


def prime_circle_distinct_distances(n: int) -> Arrangement:
    """Circular arrangement of the first n primes, starting at 2 and ending
    at the n-th prime, with all n adjacent distances pairwise distinct.
    Built by running the gap chain on the negated odd primes; the two
    distances at the seam through 2 are odd while all others are even."""
    if n < 1:
        raise ValueError("need n >= 1")
    if n == 2:
        # the 2-cycle traverses its single undirected edge twice, so the two
        # distances always coincide
        raise ValueError("no 2-prime circle has distinct adjacent distances")
    ps = first_n_primes(n)
    if n == 1:
        return Arrangement(Integers(), CIRCULAR, (2,))
    tail = zigzag_distances([-p for p in reversed(ps[1:])]).elements
    cycle = [2] + [-v for v in reversed(tail)]
    arr = Arrangement(Integers(), CIRCULAR, tuple(cycle))
    return _recheck(
        arr, Constraint((RainbowClause("distance"),), first=2, last=ps[-1]),
        "prime_circle_distinct_distances",
    )


# --- distinct signed differences over 0..n ------------------------------------


def _interleave(first_run, second_run):
    out = []
    for a, b in zip(first_run, second_run):
        out.extend((a, b))
    return out


def circular_distinct_diffs(n: int) -> Arrangement:
    """Circular arrangement of 0..n with first element 0 and last element n
    whose n+1 signed adjacent differences are pairwise distinct.  Four
    explicit zigzag families cover the parity of n and of n//2."""
    if n <= 3:
        raise ValueError("need n > 3")
    if n % 2 == 0:
        k = n // 2
        if k % 2 == 0:
            mid = _interleave(range(2 * k - 1, k, -1), range(1, k))
        else:
            mid = _interleave(range(1, k), range(2 * k - 1, k, -1))
        seq = [0] + mid + [k, 2 * k]
    else:
        k = (n - 1) // 2
        if k % 2 == 0:
            mid = _interleave(range(2 * k, k + 1, -1), range(1, k))
            seq = [0] + mid + [k + 1, k, 2 * k + 1]
        else:
            seq = [0, k, k + 2, k + 1]
            for j in range(1, k - 1):
                seq.extend((k - j, k + 2 + j))
            seq.extend((1, 2 * k + 1))
    arr = Arrangement(Integers(), CIRCULAR, tuple(seq))
    return _recheck(
        arr, Constraint((RainbowClause("diff"),), first=0, last=n), "circular_distinct_diffs"
    )


def mod_distinct_diffs(n: int) -> Arrangement:
    """Permutation of 1..n (linear) whose n-1 adjacent differences are
    pairwise distinct mod n.  Exists exactly for even n: summing the
    differences of such a permutation forwards and backwards forces
    n | 2(i_1 - i_n), impossible for odd n > 1."""
    if n < 2 or n % 2 != 0:
        raise ValueError(f"n must be even (no odd-n permutation exists), got {n}")
    m = n // 2
    seq = [m]
    for j in range(1, m):
        seq.extend((m - j, m + j))
    seq.append(2 * m)
    arr = Arrangement(Integers(), LINEAR, tuple(seq))
    return _recheck(
        arr, Constraint((RainbowClause("diff", modulus=n),)), "mod_distinct_diffs"
    )


# --- symmetric sequencings of whole groups -------------------------------------


def symmetric_sequencing(spec: GroupSpec, cap: int) -> tuple[Arrangement | None, int]:
    """(arrangement, steps): a linear arrangement of the whole finite group
    with distinct adjacent differences, a sequencing, of the symmetric form
    a_{N-1-i} = a_i + z for the group's one involution z, from a_0 = 0.

    Only the first half is walked, depth first with candidates in
    group_elements order.  It takes one element from each coset {x, x + z}
    and uses each difference pair {d, -d} at most once; the mirrored half
    then has differences -d in reverse, and the middle difference is z.
    A step is one candidate from a free coset.  Returns (None, steps) after
    cap steps or when no such half exists, and (None, 0) on a group that
    does not have exactly one involution."""
    elems = group_elements(spec)
    n = len(elems)
    index = {x: i for i, x in enumerate(elems)}
    neg = [index[y] for y in group_neg_all(spec, elems)]
    involutions = [i for i in range(1, n) if neg[i] == i]
    if len(involutions) != 1:
        return None, 0
    z = involutions[0]
    plus_z = [index[y] for y in group_add_all(spec, elems, [elems[z]] * n)]
    coset_bit = [1 << min(i, plus_z[i]) for i in range(n)]
    pair_bit = [1 << min(i, neg[i]) for i in range(n)]
    rows: dict[int, list[int]] = {}  # prev -> the index of c - prev for every c
    half = [0]
    tried = [0]  # the next candidate at each open position
    pairs_of = []  # the pair bit of each difference in half
    cosets, pairs, steps = coset_bit[0], 0, 0
    # a free coset's candidate c never differs from prev by 0 or z, as
    # prev's coset {prev, prev + z} is taken
    while len(half) < n // 2:
        prev = half[-1]
        row = rows.get(prev)
        if row is None:
            minus_prev = [elems[neg[prev]]] * n
            row = rows[prev] = [index[y] for y in group_add_all(spec, elems, minus_prev)]
        for c in range(tried[-1], n):
            if cosets & coset_bit[c]:
                continue
            if steps == cap:
                return None, steps
            steps += 1
            bit = pair_bit[row[c]]
            if not pairs & bit:
                tried[-1] = c + 1
                half.append(c)
                tried.append(0)
                pairs_of.append(bit)
                cosets |= coset_bit[c]
                pairs |= bit
                break
        else:
            tried.pop()
            if not pairs_of:
                return None, steps
            cosets ^= coset_bit[half.pop()]
            pairs ^= pairs_of.pop()
    order = half + [plus_z[i] for i in reversed(half)]
    arr = Arrangement(spec, LINEAR, tuple(elems[i] for i in order))
    return _recheck(arr, Constraint((RainbowClause("diff"),)), "symmetric_sequencing"), steps


# --- cycles with distinct x + 2y ----------------------------------------------


def _check_ordered_input(spec: GroupSpec, values, minimum: int):
    if not is_ordered(spec):
        raise ValueError(f"{spec!r} carries no compatible total order")
    vals = _sorted_distinct(values, "values")
    if len(vals) < minimum:
        raise ValueError(f"need more than {minimum - 1} values, got {len(vals)}")
    validate_elements(spec, vals)
    return vals


def weighted_sum_cycle(values, spec: GroupSpec = Integers()) -> Arrangement:
    """Circular arrangement of n > 3 distinct elements of an ordered group
    with the n cyclic values b_i + 2*b_{i+1} pairwise distinct."""
    perm, _tag = _weighted_cycle_tagged(values, spec)
    arr = Arrangement(spec, CIRCULAR, tuple(perm))
    return _recheck(arr, Constraint((RainbowClause("weighted"),)), "weighted_sum_cycle")


def _weighted_cycle_tagged(values, spec: GroupSpec):
    a = _check_ordered_input(spec, values, 4)
    n = len(a)

    # the edge labels x + 2y of the chain, then of the wrap edge
    chain = group_add_all(spec, a[:-1], group_add_all(spec, a[1:], a[1:]))
    wrap = group_add(spec, a[-1], group_add(spec, a[0], a[0]))
    if wrap not in chain:
        return a, "identity"
    i = chain.index(wrap) + 1  # 1-based position as in the chain a_i + 2a_{i+1}
    # 1 <= i <= n-2 always: the top chain value exceeds the wrap value
    assert 1 <= i <= n - 2, (a, i)

    def gap(j):  # a_{j+1} - a_j with 1-based j
        return group_sub(spec, a[j], a[j - 1])

    if i == 1:
        b = [a[0], a[2], a[1]] + a[3:]
        return b, "swap23"
    if n == 4:
        b = [a[1], a[0], a[2], a[3]]
        return b, "n4-lead-swap"
    if gap(i - 1) != gap(i):
        # the three values around the collision are not an arithmetic run
        b = a[: i - 1] + [a[i], a[i - 1]] + a[i + 1 :]
        return b, "swap-collision-pair"
    if i < n - 2:
        if gap(i + 1) != gap(i):
            b = a[:i] + [a[i + 1], a[i]] + a[i + 2 :]
            return b, "swap-after-ap"
        b = a[: i - 1] + [a[i + 1], a[i], a[i - 1]] + a[i + 2 :]
        return b, "reverse-ap-triple"
    # i == n - 2 (so i >= 3 here)
    if gap(i - 2) != gap(i - 1):
        b = a[: i - 2] + [a[i - 1], a[i - 2], a[i], a[i + 1]]
        return b, "tail-swap-before"
    b = a[: i - 2] + [a[i], a[i - 1], a[i - 2], a[i + 1]]
    return b, "tail-reverse"


# --- cycles with distinct consecutive triple sums ------------------------------


def triple_sum_cycle(values, spec: GroupSpec = Integers()) -> Arrangement:
    """Circular arrangement of n > 3 distinct elements of an ordered group
    with the n cyclic consecutive-triple sums pairwise distinct."""
    perm, _tag = _triple_cycle_tagged(values, spec, negated=False)
    arr = Arrangement(spec, CIRCULAR, tuple(perm))
    return _recheck(arr, Constraint((RainbowClause("triple"),)), "triple_sum_cycle")


def _t3(spec, x, y, z):
    return group_add(spec, group_add(spec, x, y), z)


def _triple_cycle_tagged(values, spec: GroupSpec, negated: bool):
    a = _check_ordered_input(spec, values, 4)
    n = len(a)
    if n == 4:
        return list(a), "n4-identity"

    interior = group_add_all(spec, group_add_all(spec, a[:-2], a[1:-1]), a[2:])
    x = _t3(spec, a[n - 2], a[n - 1], a[0])  # wrap sum ending at the smallest
    y = _t3(spec, a[n - 1], a[0], a[1])  # wrap sum through the seam
    x_pos = interior.index(x) + 2 if x in interior else None  # 1-based center index
    y_pos = interior.index(y) + 2 if y in interior else None

    if x_pos is None and y_pos is None:
        return list(a), "identity"
    if x_pos is None:
        # mirror the set: negation swaps the roles of the two wrap sums
        if negated:
            raise AssertionError(f"negation reduction failed to terminate on {a!r}")
        mirrored = sorted(group_neg_all(spec, a))
        perm, tag = _triple_cycle_tagged(mirrored, spec, negated=True)
        return group_neg_all(spec, perm), "mirror:" + tag

    i = x_pos
    if n == 5:
        b = [a[0], a[1], a[2], a[4], a[3]]
        return b, "n5-tail-swap"
    if n == 6:
        if i == 3:
            b = [a[0], a[1], a[4], a[2], a[3], a[5]]
            return b, "n6-pull-fifth"
        b = [a[0], a[1], a[2], a[3], a[5], a[4]]
        return b, "n6-tail-swap"
    if n == 7:
        if i == 5:
            b = [a[1], a[0], a[3], a[4], a[2], a[5], a[6]]
            return b, "n7-high-collision"
        if i == 3:
            b = [a[0], a[1], a[2], a[4], a[3], a[5], a[6]]
            return b, "n7-low-collision"
        if _t3(spec, a[4], a[5], a[0]) != _t3(spec, a[1], a[2], a[3]):
            b = [a[0], a[1], a[2], a[3], a[6], a[4], a[5]]
            return b, "n7-mid-plain"
        b = [a[0], a[1], a[2], a[3], a[5], a[4], a[6]]
        return b, "n7-mid-double"

    if y_pos is None:
        # 3 <= i <= n-2 with only the late wrap sum colliding
        if i < n - 3:
            b = a[:i] + [a[i + 1], a[i]] + a[i + 2 :]
            return b, "late-swap-after"
        if y != _t3(spec, a[i - 5], a[i - 4], a[i - 2]):
            b = a[: i - 3] + [a[i - 2], a[i - 3], a[i - 1]] + a[i :]
            return b, "late-shift-back"
        b = a[: i - 3] + [a[i - 1], a[i - 3], a[i - 2]] + a[i :]
        return b, "late-rotate-back"

    # both wrap sums collide with interior sums
    j = y_pos
    assert 2 < j < i <= n - 2, (a, i, j)
    assert j + 1 != i, f"adjacent collision centers are impossible: {a!r}"
    if i - j > 5:
        b = a[:j] + [a[j + 1], a[j]] + a[j + 2 : i - 3] + [a[i - 2], a[i - 3]] + a[i - 1 :]
        return b, "both-distant"
    if i - j == 5:
        b = a[:j] + [a[j + 1], a[j], a[i - 2], a[i - 3]] + a[i - 1 :]
        return b, "both-gap5"
    if i - j == 4:
        b = a[:j] + [a[j + 1], a[j + 2], a[j]] + a[i - 1 :]
        return b, "both-gap4"
    if i - j == 3:
        b = a[:j] + [a[j + 1], a[j]] + a[i - 1 :]
        return b, "both-gap3"
    # i == j + 2
    if j > 4:
        b = a[: j - 3] + [a[j - 2], a[j - 3], a[j], a[j - 1]] + a[i - 1 :]
        return b, "close-shift-left"
    if i <= n - 4:
        b = a[: j - 1] + [a[j - 1], a[i - 1], a[i - 2], a[i + 1], a[i]] + a[i + 2 :]
        return b, "close-shift-right"
    # terminal cases: j <= 4 and i >= n-3 force n in {8, 9}
    if n == 8:
        if (i, j) == (6, 4):
            return _terminal_8_64(a, spec)
        assert (i, j) == (5, 3), (a, i, j)
        # reflect through negation onto the (6, 4) shape and map back
        mirrored = group_neg_all(spec, a[::-1])
        perm, tag = _terminal_8_64(mirrored, spec)
        return group_neg_all(spec, perm), tag + "-mirrored"
    assert n == 9 and (i, j) == (6, 4), (a, i, j)
    if group_add(spec, a[6], a[6]) != group_add(spec, a[7], a[3]):
        b = [a[0], a[1], a[2], a[3], a[5], a[4], a[7], a[6], a[8]]
        return b, "n9-terminal-plain"
    b = [a[0], a[1], a[2], a[3], a[5], a[7], a[4], a[6], a[8]]
    return b, "n9-terminal-even"


def _terminal_8_64(a, spec):
    # doubled-middle test: 2*a_5 versus a_4 + a_7 (1-based)
    if group_add(spec, a[4], a[4]) != group_add(spec, a[3], a[6]):
        b = [a[0], a[1], a[2], a[3], a[5], a[6], a[4], a[7]]
        return b, "n8-terminal-plain"
    b = [a[0], a[1], a[2], a[3], a[4], a[6], a[7], a[5]]
    return b, "n8-terminal-even"


# --- reduced residue cycles -----------------------------------------------------


def reduced_residue_cycle(n: int) -> Arrangement:
    """For an odd prime power n > 1: the powers g, g**2, ..., g**phi(n) of
    the smallest primitive root, as a circular arrangement over Z/n.  Both
    the elements and the cyclic differences form reduced residue systems."""
    f = factorize(n)
    if n < 3 or n % 2 == 0 or len(f.pairs) != 1:
        raise ValueError(f"n must be an odd prime power > 1, got {n}")
    g = find_primitive_root(n)
    phi = euler_phi(n)
    elems = []
    x = 1
    for _ in range(phi):
        x = x * g % n
        elems.append(x)
    for v in elems:
        if gcd(v, n) != 1:
            raise AssertionError(f"element {v} shares a factor with {n}")
    arr = Arrangement(CyclicProduct((n,)), CIRCULAR, tuple(elems))
    constraint = Constraint(
        (
            RainbowClause("diff"),
            PredicateClause(PredicateSpec("coprime_to", (n,)), "diff"),
        )
    )
    return _recheck(arr, constraint, "reduced_residue_cycle")


# --- square-class cycles ---------------------------------------------------------


def qr_cycle(q: int, operation: str = "sum", target: str = "S") -> Arrangement | None:
    """Circular arrangement of all nonzero squares of F_q (q an odd prime
    power) whose cyclic sums (operation "sum") or differences ("diff") all
    land in the requested class: "S" squares, "T" nonsquares.

    Walks even generator powers g**2, g**4, ... for the smallest primitive
    element g with 1 + eps*g**2 in the target class; returns None when no
    generator qualifies (reported, never raised).  Every prime q > 13 has a
    qualifying generator; small q and proper prime powers (25, for example)
    may not, even when a cycle in some other order exists.
    """
    if operation not in ("sum", "diff"):
        raise ValueError(f"operation must be sum or diff, got {operation!r}")
    if target not in ("S", "T"):
        raise ValueError(f"target must be S or T, got {target!r}")
    if q % 2 == 0:
        raise ValueError("even q has no nonsquares; the split is degenerate")
    fv = field_view(field_spec_for(q))
    wanted = fv.squares if target == "S" else fv.nonsquares
    chosen = None
    for g in range(2, q):
        if not fv.is_primitive(g):
            continue
        g2 = fv.mul(g, g)
        probe = (group_add if operation == "sum" else group_sub)(fv.spec, 1, g2)
        if probe in wanted:
            chosen = g
            break
    if chosen is None:
        return None
    # the powers g**2, g**4, ..., g**(q-1), read off the exp table
    step = fv.log_table[fv.mul(chosen, chosen)]
    logs = map((q - 1).__rmod__, map(step.__mul__, range(1, (q - 1) // 2 + 1)))
    elems = list(map(fv.exp_table.__getitem__, logs))
    spec = fv.spec
    arr = Arrangement(spec, CIRCULAR, tuple(elems))
    kind = "quadratic_residue_mod" if target == "S" else "quadratic_nonresidue_mod"
    labeler = "sum" if operation == "sum" else "diff"
    constraint = Constraint((PredicateClause(PredicateSpec(kind, (q,)), labeler),))
    return _recheck(arr, constraint, "qr_cycle")


# --- coprime-sum circles ----------------------------------------------------------


def coprime_circle_odd(n: int) -> Arrangement:
    """Circular arrangement of 0..n (odd n >= 3) with first element 0, last
    element n, and every adjacent sum coprime to both n-1 and n+1.  Two
    residue families of n mod 6 give explicit zigzags whose sums only take
    values like n-2, n, n+2 and 2n-1."""
    if n < 3 or n % 2 == 0:
        raise ValueError(f"n must be odd and >= 3, got {n}")
    if n % 6 in (1, 3):
        mid = _interleave(range(n - 2, 0, -2), range(2, n, 2))
        seq = [0] + mid + [n]
    else:
        mid = _interleave(range(1, n, 2), range(n - 1, 1, -2))
        seq = [0] + mid + [n]
    arr = Arrangement(Integers(), CIRCULAR, tuple(seq))
    constraint = Constraint(
        (
            PredicateClause(PredicateSpec("coprime_to", (n - 1,)), "sum"),
            PredicateClause(PredicateSpec("coprime_to", (n + 1,)), "sum"),
        ),
        first=0,
        last=n,
    )
    return _recheck(arr, constraint, "coprime_circle_odd")


# --- repaired adjacent sums ---------------------------------------------------------


def repair_adjacent_sums(values) -> Arrangement:
    """Circular arrangement of n >= 3 distinct integers with all adjacent
    pair sums distinct.  Sorted order works unless the wrap sum collides
    with one interior sum; a single local swap repairs that."""
    perm, _tag = _repair_tagged(values)
    arr = Arrangement(Integers(), CIRCULAR, tuple(perm))
    return _recheck(arr, Constraint((RainbowClause("sum"),)), "repair_adjacent_sums")


def _repair_tagged(values):
    a = _sorted_distinct(values, "values")
    n = len(a)
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    if n == 3:
        return a, "n3-identity"
    wrap = a[-1] + a[0]
    collide = None
    for i in range(1, n):
        if a[i - 1] + a[i] == wrap:
            collide = i  # 1-based index of the lower summand
            break
    if collide is None:
        return a, "identity"
    i = collide
    assert 2 <= i <= n - 2, (a, i)
    if n == 4:
        return [a[0], a[1], a[3], a[2]], "n4-tail-swap"
    if i > 2:
        b = a[: i - 2] + [a[i - 1], a[i - 2]] + a[i:]
        return b, "swap-before"
    b = a[: i] + [a[i + 1], a[i]] + a[i + 2 :]
    return b, "swap-after"
