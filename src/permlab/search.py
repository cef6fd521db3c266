"""Exact backtracking search for arrangements under rainbow and edge
predicate constraints, plus the independent certificate checker.

Determinism contract
--------------------
Candidate extensions are always tried in ascending element order, so the
first witness, the node count and the outcome of a search are stable
artifacts of the tool.  A node is one attempted placement: a candidate that
survives static prefiltering (predicate adjacency lists, pin reservations,
orientation canonicalization) and is tested against the incremental
constraint state.  Budgets are measured in nodes, never wall time.

Symmetry reduction
------------------
Circular searches without pins fix the smallest element at position zero.
When every clause is reversal symmetric (rainbow sum / distance / product,
and predicates with a symmetric labeler) the orientation is additionally
fixed by requiring the second element to be smaller than the last.  Pinned
searches explore exactly the pinned space: a first pin is the start, and a
circular search pinned only at the end tries every other element as the
start, in ascending order.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import lru_cache
from operator import sub

from .algebra import (
    CIRCULAR,
    LINEAR,
    Arrangement,
    Element,
    GroundSet,
    GroupSpec,
    Integers,
    PrimeField,
    PrimePowerField,
    field_view,
    group_add,
    group_double,
    group_mul,
    group_neg,
    group_sub,
    validate_element,
)
from .numtheory import (
    MODULAR_KINDS,
    PredicateSpec,
    PredicateTable,
)

__all__ = [
    "RainbowClause",
    "PredicateClause",
    "Clause",
    "Constraint",
    "CheckReport",
    "Violation",
    "SearchOutcome",
    "PairOutcome",
    "DEFAULT_BUDGET",
    "check",
    "search",
    "brute_force_enumerate",
    "canonical_form",
    "search_pair_numbering",
    "check_pair_numbering",
]

DEFAULT_BUDGET = 10**8
BRUTE_FORCE_MAX = 9
PAIR_NUMBERING_MAX = 6
# failed-subproblem memo entries kept before a deterministic reset
_MEMO_CAP = 1 << 20

# Rainbow label kinds (adjacent labels must be pairwise distinct).
RB_SUM = "sum"  # x + y
RB_DIFF = "diff"  # x - y, directed
RB_DISTANCE = "distance"  # |x - y|
RB_WEIGHTED = "weighted"  # x + 2y, directed
RB_TRIPLE = "triple"  # x + y + z over consecutive triples
RB_PRODUCT = "product"  # x * y

_RAINBOW_KINDS = (RB_SUM, RB_DIFF, RB_DISTANCE, RB_WEIGHTED, RB_TRIPLE, RB_PRODUCT)
_SYMMETRIC_RAINBOW = (RB_SUM, RB_DISTANCE, RB_PRODUCT)

# Edge predicate labelers.
LB_SUM = "sum"  # x + y
LB_DIFF = "diff"  # x - y, directed
LB_ABS_DIFF_AND_SUM = "abs_diff_and_sum"  # predicate must hold at |x-y| and x+y
LB_SQUARE_PLUS = "square_plus"  # x**2 + y, directed
LB_SQUARE_MINUS = "square_minus"  # x**2 - y, directed
LB_PRODUCT_MINUS_ONE = "product_minus_one"  # x*y - 1
LB_TWO_PRODUCT_MINUS_ONE = "two_product_minus_one"  # 2xy - 1
LB_TWO_PRODUCT_PLUS_ONE = "two_product_plus_one"  # 2xy + 1
LB_AFFINE_PRODUCT = "affine_product"  # a0 + x*y
LB_ABS_SQUARE_DIFF = "abs_square_diff"  # |x**2 - y**2|

_LABELERS = (
    LB_SUM,
    LB_DIFF,
    LB_ABS_DIFF_AND_SUM,
    LB_SQUARE_PLUS,
    LB_SQUARE_MINUS,
    LB_PRODUCT_MINUS_ONE,
    LB_TWO_PRODUCT_MINUS_ONE,
    LB_TWO_PRODUCT_PLUS_ONE,
    LB_AFFINE_PRODUCT,
    LB_ABS_SQUARE_DIFF,
)
_SYMMETRIC_LABELERS = (
    LB_SUM,
    LB_ABS_DIFF_AND_SUM,
    LB_PRODUCT_MINUS_ONE,
    LB_TWO_PRODUCT_MINUS_ONE,
    LB_TWO_PRODUCT_PLUS_ONE,
    LB_AFFINE_PRODUCT,
    LB_ABS_SQUARE_DIFF,
)
# Labelers that only make sense over plain integers.
_INTEGER_ONLY_LABELERS = (
    LB_ABS_DIFF_AND_SUM,
    LB_SQUARE_MINUS,
    LB_TWO_PRODUCT_MINUS_ONE,
    LB_TWO_PRODUCT_PLUS_ONE,
    LB_ABS_SQUARE_DIFF,
)


@dataclass(frozen=True)
class RainbowClause:
    """Adjacent labels of the given kind must be pairwise distinct; with a
    modulus, distinct mod m (integer elements only)."""

    kind: str
    modulus: int | None = None

    def __post_init__(self):
        if self.kind not in _RAINBOW_KINDS:
            raise ValueError(f"unknown rainbow kind {self.kind!r}")
        if self.modulus is not None and self.modulus < 2:
            raise ValueError("modulus must be >= 2")

    @property
    def symmetric(self) -> bool:
        return self.kind in _SYMMETRIC_RAINBOW


@dataclass(frozen=True)
class PredicateClause:
    """Every adjacent label (derived by `labeler`) must satisfy `predicate`."""

    predicate: PredicateSpec
    labeler: str
    a0: Element | None = None

    def __post_init__(self):
        if self.labeler not in _LABELERS:
            raise ValueError(f"unknown labeler {self.labeler!r}")
        if self.labeler == LB_AFFINE_PRODUCT and self.a0 is None:
            raise ValueError("affine_product needs a0")

    @property
    def symmetric(self) -> bool:
        return self.labeler in _SYMMETRIC_LABELERS


Clause = RainbowClause | PredicateClause


@dataclass(frozen=True)
class Constraint:
    """Conjunction of clauses plus optional positional pins."""

    clauses: tuple
    first: Element | None = None
    last: Element | None = None

    def __post_init__(self):
        object.__setattr__(self, "clauses", tuple(self.clauses))
        if not self.clauses:
            raise ValueError("constraint needs at least one clause")
        for c in self.clauses:
            if not isinstance(c, (RainbowClause, PredicateClause)):
                raise ValueError(f"not a clause: {c!r}")

    @property
    def pinned(self) -> bool:
        return self.first is not None or self.last is not None

    @property
    def reversal_symmetric(self) -> bool:
        return all(c.symmetric for c in self.clauses)


# --- label evaluation (direct, shared by checker and adjacency build) --------


def _require_int_elements(spec: GroupSpec, labeler: str):
    if not isinstance(spec, Integers):
        raise ValueError(f"labeler {labeler!r} needs plain integer elements")


def pair_labels(spec: GroupSpec, clause: PredicateClause, x: Element, y: Element) -> tuple:
    """The label value(s) a predicate clause derives from the directed edge
    (x, y).  Most labelers give one value; abs_diff_and_sum gives two."""
    lb = clause.labeler
    if lb == LB_SUM:
        return (group_add(spec, x, y),)
    if lb == LB_DIFF:
        return (group_sub(spec, x, y),)
    if lb == LB_ABS_DIFF_AND_SUM:
        _require_int_elements(spec, lb)
        return (abs(x - y), x + y)
    if lb == LB_SQUARE_PLUS:
        return (group_add(spec, group_mul(spec, x, x), y),)
    if lb == LB_SQUARE_MINUS:
        _require_int_elements(spec, lb)
        return (x * x - y,)
    if lb == LB_PRODUCT_MINUS_ONE:
        if isinstance(spec, Integers):
            return (x * y - 1,)
        one = 1
        return (group_sub(spec, group_mul(spec, x, y), one),)
    if lb == LB_TWO_PRODUCT_MINUS_ONE:
        _require_int_elements(spec, lb)
        return (2 * x * y - 1,)
    if lb == LB_TWO_PRODUCT_PLUS_ONE:
        _require_int_elements(spec, lb)
        return (2 * x * y + 1,)
    if lb == LB_AFFINE_PRODUCT:
        return (group_add(spec, clause.a0, group_mul(spec, x, y)),)
    _require_int_elements(spec, lb)
    return (abs(x * x - y * y),)


def rainbow_label(spec: GroupSpec, clause: RainbowClause, x: Element, y: Element) -> Element:
    kind = clause.kind
    if kind == RB_SUM:
        v = group_add(spec, x, y)
    elif kind == RB_DIFF:
        v = group_sub(spec, x, y)
    elif kind == RB_DISTANCE:
        _require_int_elements(spec, kind)
        v = abs(x - y)
    elif kind == RB_WEIGHTED:
        v = group_add(spec, x, group_double(spec, y))
    elif kind == RB_PRODUCT:
        v = group_mul(spec, x, y)
    else:
        raise ValueError("triple labels span three positions")
    if clause.modulus is not None:
        if not isinstance(v, int):
            raise ValueError("modulus applies to integer labels only")
        v %= clause.modulus
    return v


def rainbow_triple_label(spec: GroupSpec, clause: RainbowClause, x, y, z) -> Element:
    v = group_add(spec, group_add(spec, x, y), z)
    if clause.modulus is not None:
        if not isinstance(v, int):
            raise ValueError("modulus applies to integer labels only")
        v %= clause.modulus
    return v


def _field_table(spec: PrimeField | PrimePowerField, pred: PredicateSpec) -> bytes:
    """1 at every element of F_q in the modular predicate's class (primitive
    elements, nonzero squares or nonsquares), 0 elsewhere."""
    fv = field_view(spec)
    if pred.params[0] != fv.q:
        raise ValueError(f"predicate modulus {pred.params[0]} != field size {fv.q}")
    if pred.kind == "primitive_root_mod":
        members = filter(fv.is_primitive, range(fv.q))
    elif pred.kind == "quadratic_residue_mod":
        members = fv.squares
    else:
        members = fv.nonsquares
    table = bytearray(fv.q)
    for x in members:
        table[x] = 1
    return bytes(table)


@lru_cache(maxsize=64)
def _predicate_evaluator(spec: GroupSpec, pred: PredicateSpec):
    """The one place a predicate is evaluated, for check() and the kernel's
    adjacency alike.  Returns truths(rows), which maps each row of label
    values to bytes holding 1 where the label passes and 0 where it fails.
    Modular kinds over a field ground read the field's classes (this is what
    makes prime-power instances work); every other predicate reads a
    PredicateTable, whose prime-valued kinds are sieved over the span of the
    labels asked about.  Cached, so a check() after a search reuses the
    search's table."""
    if isinstance(spec, (PrimeField, PrimePowerField)) and pred.kind in MODULAR_KINDS:
        table = _field_table(spec, pred)
        return lambda rows: [bytes(map(table.__getitem__, row)) for row in rows]
    if isinstance(spec, PrimePowerField):
        raise ValueError(f"predicate {pred.kind} is not defined over {spec!r}")
    if pred.kind in MODULAR_KINDS or pred.kind == "coprime_to":
        table = PredicateTable(pred)
        return lambda rows: [table.truths(row) for row in rows]

    def truths(rows):
        lo = min(map(min, rows), default=0)
        hi = max(map(max, rows), default=0)
        table = PredicateTable(pred, lo, hi)
        return [table.truths(row) for row in rows]

    return truths


# --- checker ------------------------------------------------------------------


@dataclass(frozen=True)
class Violation:
    clause_index: int | None
    positions: tuple[int, ...]
    message: str


@dataclass(frozen=True)
class CheckReport:
    ok: bool
    violations: tuple = ()

    @property
    def first(self) -> Violation | None:
        return self.violations[0] if self.violations else None


def check(arrangement: Arrangement, constraint: Constraint) -> CheckReport:
    """Certificate check by direct recomputation of every clause.  Shares no
    state with the search kernel's incremental tracking; this is the oracle
    the kernel's witnesses are validated against."""
    spec = arrangement.spec
    elems = arrangement.elements
    n = len(elems)
    viols: list[Violation] = []

    if constraint.first is not None and elems[0] != constraint.first:
        viols.append(Violation(None, (0,), f"position 0 must hold {constraint.first!r}"))
    if constraint.last is not None and elems[-1] != constraint.last:
        viols.append(Violation(None, (n - 1,), f"last position must hold {constraint.last!r}"))

    edges = arrangement.edge_index_pairs()
    triples = arrangement.triple_index_runs()
    for ci, cl in enumerate(constraint.clauses):
        if isinstance(cl, RainbowClause):
            if cl.kind == RB_TRIPLE:
                if arrangement.shape == CIRCULAR and 1 < n < 3:
                    viols.append(Violation(ci, (), "triple labels need length >= 3"))
                    continue
                labeled = [
                    (rainbow_triple_label(spec, cl, elems[a], elems[b], elems[c]), (a, b, c))
                    for a, b, c in triples
                ]
            else:
                labeled = [
                    (rainbow_label(spec, cl, elems[a], elems[b]), (a, b)) for a, b in edges
                ]
            seen: dict = {}
            for lab, pos in labeled:
                if lab in seen:
                    viols.append(
                        Violation(
                            ci,
                            seen[lab] + pos,
                            f"label {lab!r} repeats at positions {seen[lab]} and {pos}",
                        )
                    )
                    break
                seen[lab] = pos
        else:
            truths = _predicate_evaluator(spec, cl.predicate)
            if not edges:
                continue
            labels = [pair_labels(spec, cl, elems[a], elems[b]) for a, b in edges]
            flat = [v for vals in labels for v in vals]
            bad = truths([flat])[0].find(0)
            if bad >= 0:
                a, b = edges[bad // len(labels[0])]
                viols.append(
                    Violation(
                        ci,
                        (a, b),
                        f"label {flat[bad]!r} at positions ({a}, {b}) fails "
                        f"{cl.predicate.describe()}",
                    )
                )
    return CheckReport(not viols, tuple(viols))


# --- search kernel -------------------------------------------------------------


@dataclass(frozen=True)
class SearchOutcome:
    status: str  # "witness" | "exhausted" | "budget"
    witness: Arrangement | None
    nodes: int
    elapsed_ms: int
    witness_count: int | None = None  # only set when counting mode is on

    def __post_init__(self):
        if self.status == "witness":
            assert self.witness is not None


def _validate_instance(ground: GroundSet, shape: str, constraint: Constraint):
    if shape not in (LINEAR, CIRCULAR):
        raise ValueError(f"bad shape {shape!r}")
    n = len(ground)
    for cl in constraint.clauses:
        if isinstance(cl, RainbowClause) and cl.kind == RB_TRIPLE:
            if shape == CIRCULAR and 1 < n < 3:
                raise ValueError("triple rainbow needs a circular length of 1 or >= 3")
    for pin in (constraint.first, constraint.last):
        if pin is not None:
            validate_element(ground.spec, pin)
            if pin not in ground.elements:
                raise ValueError(f"pin {pin!r} is not in the ground set")
    if constraint.first is not None and constraint.last is not None:
        if constraint.first == constraint.last and n > 1:
            raise ValueError("first and last pins coincide")


def _row_arithmetic(spec: GroupSpec):
    """Label arithmetic over a whole row, chosen once for the ground's spec:
    add(s, ys) is [s + y for y in ys] and mul(x, ys) is [x * y for y in ys],
    as group_add and group_mul give them."""
    if isinstance(spec, Integers):
        return (lambda s, ys: list(map(s.__add__, ys)),
                lambda x, ys: list(map(x.__mul__, ys)))
    if isinstance(spec, PrimeField):
        p = spec.p
        return (lambda s, ys: list(map(p.__rmod__, map(s.__add__, ys))),
                lambda x, ys: list(map(p.__rmod__, map(x.__mul__, ys))))
    if isinstance(spec, PrimePowerField):
        return _field_row_arithmetic(spec)
    return (lambda s, ys: [group_add(spec, s, y) for y in ys],
            lambda x, ys: [group_mul(spec, x, y) for y in ys])


def _field_row_arithmetic(spec: PrimePowerField):
    """Row arithmetic over F_{p**k}.  Products go through field_view's
    exp/log tables.  Sums add base-p digits without carry, which is XOR
    when p = 2."""
    fv = field_view(spec)
    p, q = spec.p, fv.q
    # two periods of exp, then zeros where log(0) points: exp[log x + log y]
    # is x*y for every x != 0 and every y
    exp = fv.exp_table * 2 + (0,) * (q - 1)
    log = list(fv.log_table)
    log[0] = 2 * (q - 1)

    def mul(x, ys):
        if x == 0:
            return [0] * len(ys)
        return list(map(exp.__getitem__, map(log[x].__add__, map(log.__getitem__, ys))))

    if p == 2:
        return (lambda s, ys: list(map(s.__xor__, ys))), mul

    def add(s, ys):
        row = ys
        step = 1
        while s:
            s, d = divmod(s, p)
            if d:
                # the digit at step wraps past p where it is at least p - d
                wraps = map((p - d - 1).__lt__, map(p.__rmod__, map(step.__rfloordiv__, row)))
                row = list(map(sub, map((d * step).__add__, row), map((p * step).__mul__, wraps)))
            step *= p
        return list(row)

    return add, mul


def _label_rows(spec: GroupSpec, clause: PredicateClause, elems) -> list:
    """The labels of a predicate clause on every ordered pair of elems, as
    pair_labels gives them, one row per x: row i holds the labels of
    (elems[i], y) for every y in elems, the diagonal included.
    abs_diff_and_sum, with two labels per pair, adds a second block of n
    rows."""
    lb = clause.labeler
    if lb in _INTEGER_ONLY_LABELERS:
        _require_int_elements(spec, lb)
        if lb == LB_ABS_DIFF_AND_SUM:
            return [list(map(abs, map(x.__sub__, elems))) for x in elems] + [
                list(map(x.__add__, elems)) for x in elems
            ]
        if lb == LB_SQUARE_MINUS:
            return [list(map((x * x).__sub__, elems)) for x in elems]
        if lb == LB_ABS_SQUARE_DIFF:
            squares = [y * y for y in elems]
            return [list(map(abs, map((x * x).__sub__, squares))) for x in elems]
        one = 1 if lb == LB_TWO_PRODUCT_PLUS_ONE else -1
        return [list(map(one.__add__, map((2 * x).__mul__, elems))) for x in elems]
    add, mul = _row_arithmetic(spec)
    if lb == LB_SUM:
        return [add(x, elems) for x in elems]
    if lb == LB_DIFF:
        negs = [group_neg(spec, y) for y in elems]
        return [add(x, negs) for x in elems]
    if lb == LB_SQUARE_PLUS:
        return [add(group_mul(spec, x, x), elems) for x in elems]
    products = [mul(x, elems) for x in elems]
    c = clause.a0 if lb == LB_AFFINE_PRODUCT else group_neg(spec, 1)
    return [add(c, row) for row in products]


_BIT_CHARS = bytes.maketrans(b"\x00\x01", b"01")


def _compile_adjacency(spec, elems, pclauses):
    """Directed adjacency bitmasks from the conjunction of the predicate
    clauses.  out_mask[i] bit j set means the directed edge elems[i] ->
    elems[j] is allowed.  Each clause's labels come a row at a time, their
    truths from the one evaluator, and a row of truths becomes a bitmask in
    one step."""
    n = len(elems)
    evaluators = [_predicate_evaluator(spec, cl.predicate) for cl in pclauses]
    out_mask = [((1 << n) - 1) ^ (1 << i) for i in range(n)]
    if n == 1:
        return out_mask, out_mask  # no pairs, so no labels
    for cl, truths in zip(pclauses, evaluators):
        for i, row in enumerate(truths(_label_rows(spec, cl, elems))):
            out_mask[i % n] &= int(row.translate(_BIT_CHARS)[::-1], 2)
    # transpose: in_mask[j] bit i is out_mask[i] bit j
    bits = [format(m, f"0{n}b") for m in out_mask]
    in_mask = [int("".join(col)[::-1], 2) for col in zip(*bits)][::-1]
    return out_mask, in_mask


def search(
    ground: GroundSet,
    shape: str,
    constraint: Constraint,
    budget: int = DEFAULT_BUDGET,
    *,
    count_witnesses: bool = False,
) -> SearchOutcome:
    """Find one arrangement satisfying the constraint, prove none exists, or
    stop at the node budget.  With count_witnesses the full tree is walked
    and every completion under the active symmetry reduction is counted
    (testing hook; the returned witness is then the first one found)."""
    if budget < 1:
        raise ValueError("budget must be >= 1 node")
    _validate_instance(ground, shape, constraint)
    t0 = time.perf_counter()
    spec = ground.spec
    elems = sorted(ground.elements)
    n = len(elems)
    circular = shape == CIRCULAR

    # one label tracker per rainbow clause, in clause order: (arity, labels,
    # labels in use).  Pair labels are a matrix over element indices; triple
    # labels are computed from the three indices of the window.
    trackers = []
    for cl in constraint.clauses:
        if not isinstance(cl, RainbowClause):
            continue
        if cl.kind == RB_TRIPLE:

            def labels(a, b, c, cl=cl):
                return rainbow_triple_label(spec, cl, elems[a], elems[b], elems[c])

            trackers.append((3, labels, set()))
        else:
            labels = [
                [rainbow_label(spec, cl, x, y) if x != y else None for y in elems] for x in elems
            ]
            trackers.append((2, labels, set()))
    pclauses = [c for c in constraint.clauses if isinstance(c, PredicateClause)]

    if pclauses:
        out_mask, in_mask = _compile_adjacency(spec, elems, pclauses)
        nbr_out = [[j for j in range(n) if out_mask[i] >> j & 1] for i in range(n)]
    else:
        out_mask = in_mask = None
        nbr_out = None

    first_idx = elems.index(constraint.first) if constraint.first is not None else None
    last_idx = elems.index(constraint.last) if constraint.last is not None else None

    sym_reduce = (
        circular
        and not constraint.pinned
        and constraint.reversal_symmetric
        and n >= 3
    )

    nodes = 0
    over = False
    found: Arrangement | None = None
    count = 0
    # two spare slots past the end hold path[0] and path[1] again once the
    # circle closes, so the windows that wrap around read straight through
    path = [0] * (n + 2)
    full_mask = (1 << n) - 1
    # predecessor/successor feasibility argument needs cycles of length >= 3
    prune = circular and out_mask is not None and n >= 3
    # Without rainbow state, whether a subtree can complete depends only on
    # (unused set, tail), so proven-dead subproblems are memoized and skipped
    # on revisit.  Sound: only failure is cached, never witnesses, so the
    # first witness (and any witness count) is unchanged.  The orientation
    # filter consults path[1], which is folded into the key when active.  A
    # circle closes back to path[0], so run() empties the memo whenever the
    # start changes (a last pin alone): an entry made under one start could
    # never be hit under another.
    memo_failures = not trackers and out_mask is not None
    failed: set = set()

    def admit(ends):
        """Record, for every rainbow clause, the label of each window that
        ends at one of the given path positions and starts at one of the n
        placed positions.  Returns the labels added, or None when one
        repeats; nothing stays recorded then."""
        added = []
        for arity, labels, used in trackers:
            for e in ends:
                s = e - arity + 1
                if not 0 <= s < n:
                    continue
                if arity == 2:
                    lab = labels[path[s]][path[e]]
                else:
                    lab = labels(path[s], path[s + 1], path[e])
                if lab in used:
                    retract(added)
                    return None
                used.add(lab)
                added.append((used, lab))
        return added

    def retract(added):
        for used, lab in added:
            used.discard(lab)

    def degree_prune_ok(unused, tail, affected) -> bool:
        """Circular-mode fail-fast: every still-unused vertex needs a feasible
        predecessor among unused + the current tail and a feasible successor
        among unused + the start, and at least two distinct partners."""
        tail_bit = 1 << tail
        start_bit = 1 << path[0]
        m = affected
        while m:
            u_bit = m & -m
            m ^= u_bit
            u = u_bit.bit_length() - 1
            rest = unused ^ u_bit
            preds = in_mask[u] & (rest | tail_bit)
            if not preds:
                return False
            succs = out_mask[u] & (rest | start_bit)
            if not succs:
                return False
            if (preds | succs).bit_count() < 2:
                return False
        return True

    def reach_prune_ok(unused, tail) -> bool:
        """Circular-mode fail-fast: the cycle must still thread tail -> all
        unused -> start, so every unused vertex has to be reachable from the
        tail through unused vertices only, and the start has to stay
        reachable; symmetrically backwards.  Sound, so the first witness is
        unchanged; it only skips provably dead subtrees."""
        start_bit = 1 << path[0]
        target = unused | start_bit
        seen = out_mask[tail] & target
        frontier = seen & unused
        while frontier:
            nxt = 0
            f = frontier
            while f:
                b = f & -f
                f ^= b
                nxt |= out_mask[b.bit_length() - 1]
            frontier = nxt & target & ~seen
            seen |= frontier
            frontier &= unused
        if seen != target:
            return False
        tail_bit = 1 << tail
        target = unused | tail_bit
        seen = in_mask[path[0]] & target
        frontier = seen & unused
        while frontier:
            nxt = 0
            f = frontier
            while f:
                b = f & -f
                f ^= b
                nxt |= in_mask[b.bit_length() - 1]
            frontier = nxt & target & ~seen
            seen |= frontier
            frontier &= unused
        return seen == target

    def accept() -> bool:
        """Called with a full path; returns True to stop the search."""
        nonlocal found, count
        arr = Arrangement(spec, shape, tuple(elems[i] for i in path[:n]))
        if found is None:
            report = check(arr, constraint)
            if not report.ok:
                raise RuntimeError(
                    f"kernel produced an invalid witness: {report.first.message}"
                )
            found = arr
        count += 1
        return not count_witnesses

    def close() -> bool:
        """Called with a full circular path: admit the wrap edge and the
        windows that wrap around, then accept; returns True to stop the
        search."""
        if out_mask is not None and not (out_mask[path[n - 1]] >> path[0] & 1):
            return False
        if not trackers:
            return accept()
        path[n:] = path[:2]
        wrapped = admit((n, n + 1))
        if wrapped is None:
            return False
        stop = accept()
        retract(wrapped)
        return stop

    def extend(k, unused) -> bool:
        nonlocal nodes, over
        prev = path[k - 1]
        if memo_failures:
            key = (unused, prev, path[1]) if sym_reduce else (unused, prev)
            if key in failed:
                return False
        if nbr_out is not None:
            base = [j for j in nbr_out[prev] if unused >> j & 1]
        else:
            base = [j for j in range(n) if unused >> j & 1]
        count_at_entry = count
        last_pos = k == n - 1
        for j in base:
            if last_idx is not None:
                if last_pos != (j == last_idx):
                    continue
            if last_pos and sym_reduce and j < path[1]:
                continue
            nodes += 1
            if nodes > budget:
                over = True
                return True
            path[k] = j
            added = None
            if trackers:
                added = admit((k,))
                if added is None:
                    continue
            if last_pos:
                stop = close() if circular else accept()
                if stop:
                    return True
            else:
                nxt = unused ^ (1 << j)
                ok = True
                if prune:
                    affected = (in_mask[j] | out_mask[j] | in_mask[prev] | out_mask[prev]) & nxt
                    ok = degree_prune_ok(nxt, j, affected) and reach_prune_ok(nxt, j)
                if ok and extend(k + 1, nxt):
                    return True
            if added:
                retract(added)
        if memo_failures and not over and count == count_at_entry:
            if len(failed) >= _MEMO_CAP:
                failed.clear()
            failed.add(key)
        return False

    def run() -> None:
        nonlocal nodes, over
        if n == 1:
            nodes += 1
            if nodes > budget:
                over = True
                return
            path[0] = 0
            accept()
            return
        if first_idx is not None:
            starts = [first_idx]
        elif circular and last_idx is None:
            starts = [0]
        else:
            starts = [i for i in range(n) if i != last_idx]
        for s in starts:
            nodes += 1
            if nodes > budget:
                over = True
                return
            path[0] = s
            unused = full_mask ^ (1 << s)
            if circular:
                failed.clear()
            if prune and not degree_prune_ok(unused, s, unused):
                continue
            if extend(1, unused):
                return

    run()
    elapsed = int((time.perf_counter() - t0) * 1000)
    if over:
        return SearchOutcome("budget", found, nodes, elapsed, count if count_witnesses else None)
    if found is not None:
        return SearchOutcome("witness", found, nodes, elapsed, count if count_witnesses else None)
    return SearchOutcome("exhausted", None, nodes, elapsed, 0 if count_witnesses else None)


# --- brute force oracle ---------------------------------------------------------


def _satisfies(arr: Arrangement, constraint: Constraint) -> bool:
    return check(arr, constraint).ok


def brute_force_enumerate(
    ground: GroundSet, shape: str, constraint: Constraint
) -> tuple[int, list[Arrangement] | None]:
    """Naive enumeration of all permutations, deduplicated by canonical form.
    The definitional oracle the search kernel is validated against; capped at
    ground sets of size 9."""
    from itertools import permutations

    n = len(ground)
    if n > BRUTE_FORCE_MAX:
        raise ValueError(f"brute force capped at {BRUTE_FORCE_MAX} elements, got {n}")
    _validate_instance(ground, shape, constraint)
    spec = ground.spec
    elems = sorted(ground.elements)
    seen: set[tuple] = set()
    witnesses: list[Arrangement] = []
    if shape == CIRCULAR and n >= 2 and constraint.last is None:
        # quotient rotation upfront: fix the pinned first element, or the
        # minimum when unpinned (a last-only pin is positional, so every
        # rotation must then be kept)
        head = constraint.first if constraint.first is not None else elems[0]
        rest = [x for x in elems if x != head]
        cands = ([head] + list(t) for t in permutations(rest))
    else:
        cands = (list(p) for p in permutations(elems))
    for seq in cands:
        arr = Arrangement(spec, shape, tuple(seq))
        if not _satisfies(arr, constraint):
            continue
        canon = canonical_form(arr, constraint).elements
        if canon in seen:
            continue
        seen.add(canon)
        witnesses.append(Arrangement(spec, shape, canon))
    count = len(witnesses)
    return count, (witnesses if count <= 1000 else None)


def canonical_form(arrangement: Arrangement, constraint: Constraint) -> Arrangement:
    """Circular: rotate the minimum element to the front, and reflect to the
    lexicographically smaller orientation when every clause is reversal
    symmetric.  Linear: reflect likewise under reversal-symmetric clauses,
    otherwise identity.  Pins are positional and break both symmetries, so
    pinned arrangements are always canonical as given."""
    if len(arrangement) == 1 or constraint.pinned:
        return arrangement
    if arrangement.shape == LINEAR:
        if constraint.reversal_symmetric:
            rev = arrangement.elements[::-1]
            if rev < arrangement.elements:
                return Arrangement(arrangement.spec, LINEAR, rev)
        return arrangement
    elems = arrangement.elements
    k = elems.index(min(elems))
    rotated = elems[k:] + elems[:k]
    if constraint.reversal_symmetric:
        rev = rotated[:1] + rotated[1:][::-1]
        if tuple(rev) < tuple(rotated):
            rotated = rev
    return Arrangement(arrangement.spec, arrangement.shape, tuple(rotated))


# --- paired numberings ------------------------------------------------------------


@dataclass(frozen=True)
class PairOutcome:
    status: str
    a: tuple | None
    b: tuple | None
    nodes: int
    elapsed_ms: int


def check_pair_numbering(spec: GroupSpec, a: tuple, b: tuple) -> bool:
    """Whether the n values a_i + 2*b_i are pairwise distinct."""
    if sorted(a) != sorted(b):
        return False
    vals = {group_add(spec, x, group_double(spec, y)) for x, y in zip(a, b)}
    return len(vals) == len(a)


def search_pair_numbering(ground: GroundSet, budget: int = DEFAULT_BUDGET) -> PairOutcome:
    """Two numberings a, b of the same set with a_i + 2*b_i pairwise
    distinct.  Only the pairing matters, so this walks bijections directly;
    factorial-squared growth is avoided but the entry point is still capped."""
    from itertools import permutations

    n = len(ground)
    if n > PAIR_NUMBERING_MAX:
        raise ValueError(f"pair numbering search capped at {PAIR_NUMBERING_MAX}, got {n}")
    t0 = time.perf_counter()
    spec = ground.spec
    elems = sorted(ground.elements)
    nodes = 0
    for perm in permutations(range(n)):
        nodes += 1
        if nodes > budget:
            return PairOutcome("budget", None, None, nodes, int((time.perf_counter() - t0) * 1000))
        labels = set()
        ok = True
        for i, j in enumerate(perm):
            v = group_add(spec, elems[i], group_double(spec, elems[j]))
            if v in labels:
                ok = False
                break
            labels.add(v)
        if ok:
            a = tuple(elems)
            b = tuple(elems[j] for j in perm)
            return PairOutcome("witness", a, b, nodes, int((time.perf_counter() - t0) * 1000))
    return PairOutcome("exhausted", None, None, nodes, int((time.perf_counter() - t0) * 1000))
