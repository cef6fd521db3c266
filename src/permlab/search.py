"""Exact backtracking search for arrangements under rainbow and edge
predicate constraints, plus the independent certificate checker.

Determinism contract
--------------------
Candidate extensions are always tried in ascending element order: a level's
candidates are a bitmask over the sorted elements, taken lowest set bit
first.  So the first witness, the node count and the outcome of a search
are stable artifacts of the tool.  A node is one attempted placement: a
candidate that survives static prefiltering (predicate adjacency masks, pin
reservations, orientation canonicalization) and is tested against the
incremental constraint state; one whose label repeats is still a node.
Budgets are measured in nodes, never wall time.  The walk is depth first
over an explicit stack of levels, so the length of an arrangement has no
recursion limit.  search_pair_numbering walks the positions of a numbering
the same way, and its node is one label try: an element tried at a position.

Root deductions
---------------
Before the first node, the label-sum stage (_label_sums) reads each
rainbow clause whose windows leave at most two labels of its finite label
space untaken.  Distinct labels that telescope to a known total leave out
labels of a known sum, and when no such labels exist it answers
`exhausted` with 0 nodes and a RootCertificate.  A linear diff clause
through every label with a first pin may force the last element, which
the walk then takes as a last pin: every arrangement of the clause ends
there, so first witnesses and witness counts stay, and node counts fall
only where the stage answers or forces.

Pruning
-------
Prunes only skip subtrees that cannot complete, so they lower node counts
and never change a first witness or a witness count.  Searches with
predicate clauses and no rainbow clause remember the (unused set, tail)
subproblems that failed.  Predicate searches whose circle has three or
more vertices (a line's circle has a free start besides its elements, see
Symmetry reduction) also test, after each placement and in this order: a
degree bound, that every unused vertex keeps a predecessor in unused +
{tail} and a successor in unused + {start} that are two distinct vertices;
a cycle cover, a perfect matching of {tail} + unused onto unused + {start}
(the rest of a circle is one), built at the root by one augmenting search
per vertex and repaired at each node by one; and reachability from the
tail and back to the start.

The degree bound keeps two watched partners per vertex, as SAT solvers
watch literals: a predecessor and a successor that meet the bound.
Placing prev -> j takes prev out of the predecessors and j out of the
successors, so only the vertices that watch prev or j look for new
partners.  Both sets only shrink going down, so a watch stays valid on
backtrack and nothing is undone.  Watches go to the highest partners: the
walk places the lowest candidates first, so low watches would be the ones
it takes away next.

Label arithmetic
----------------
Labels are defined once, in rainbow_labels and predicate_labels over
algebra.py's whole-sequence ops.  When a search starts, the kernel calls
them on columns that hold blocks of whole rows of ordered pairs: each
rainbow clause gets a row of pair labels per element, and each predicate
clause a row of truths per element, its adjacency bitmask.  Every rainbow
label is named by a small int from one namer per search when a window
that has it is first read, so that no two clauses share a name and the
names count only the labels the search visits.  The labels in use are
tracked as the bits 1 << name of one int, saved with each level of the
walk and restored on backtrack.  Every window (a, b, c) reads its name
as rows[c][pairs[a][b]]: for triple, pairs holds the pair sums, and for
the pair kinds pairs[a][b] is b.  check() calls the
same two functions on columns of the arrangement's windows; its
distinctness and truth tests are its own.  The tests' per-window reference
checker (one-element group ops) and perfbench/oracle.py (arithmetic of its
own) share neither function.

Symmetry reduction
------------------
Every search walks one circle from one fixed start.  A circle starts at
its first pin, else at its last pin, else at its smallest element, and
the start is its first node.  A line of n elements is a circle of n + 1
vertices through a free start, which is no element and no node: its edges
go out to the first pin and in from the last pin, or to and from every
element, and carry no label.  When every clause is reversal symmetric
(rainbow sum / distance / product, and predicates with a symmetric
labeler) an unpinned walk of three or more vertices also fixes its
orientation: the vertex after the start must be below the vertex before
it (a circle's second element, or a line's first, below its last), which
the lex-first arrangement always meets.  Pins break both symmetries,
so pinned searches explore exactly the pinned space, in the lex order of
the arrangement.
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass, replace
from functools import lru_cache, partial, reduce
from itertools import chain, count, permutations, repeat
from operator import add, mod, mul, sub

from .algebra import (
    CIRCULAR,
    LINEAR,
    Arrangement,
    CyclicProduct,
    Element,
    GroundSet,
    GroupSpec,
    Integers,
    PrimeField,
    PrimePowerField,
    _uses_tuples,
    field_view,
    group_add,
    group_add_all,
    group_elements,
    group_mul_all,
    group_neg,
    group_neg_all,
    group_order,
    validate_element,
)
from .numtheory import (
    MODULAR_KINDS,
    PredicateSpec,
    PredicateTable,
    is_prime,
)

__all__ = [
    "RainbowClause",
    "PredicateClause",
    "Clause",
    "Constraint",
    "CheckReport",
    "Violation",
    "SearchOutcome",
    "RootCertificate",
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
        if self.modulus is not None and (type(self.modulus) is not int or self.modulus < 2):
            raise ValueError(f"modulus must be an integer >= 2, got {self.modulus!r}")

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


def rainbow_labels(spec: GroupSpec, clause: RainbowClause, xs, ys, zs=None) -> list:
    """The labels of a rainbow clause on a column of windows: window i is
    (xs[i], ys[i]), or (xs[i], ys[i], zs[i]) for triple."""
    kind = clause.kind
    if kind == RB_SUM:
        labels = group_add_all(spec, xs, ys)
    elif kind == RB_DIFF:
        labels = group_add_all(spec, xs, group_neg_all(spec, ys))
    elif kind == RB_DISTANCE:
        _require_int_elements(spec, kind)
        labels = list(map(abs, map(sub, xs, ys)))
    elif kind == RB_WEIGHTED:
        labels = group_add_all(spec, xs, group_add_all(spec, ys, ys))
    elif kind == RB_PRODUCT:
        labels = group_mul_all(spec, xs, ys)
    else:
        labels = group_add_all(spec, group_add_all(spec, xs, ys), zs)
    m = clause.modulus
    if m is not None and labels:
        if not isinstance(labels[0], int):
            raise ValueError("modulus applies to integer labels only")
        labels = list(map(mod, labels, repeat(m)))
    return labels


def predicate_labels(spec: GroupSpec, clause: PredicateClause, xs, ys) -> list:
    """The labels a predicate clause derives from a column of directed edges
    (xs[i], ys[i]), flat and in edge order.  Most labelers give one label
    per edge; abs_diff_and_sum gives two, |x - y| then x + y."""
    lb = clause.labeler
    if lb in _INTEGER_ONLY_LABELERS:
        _require_int_elements(spec, lb)
        if lb == LB_ABS_DIFF_AND_SUM:
            flat = [0] * (2 * len(xs))
            flat[::2] = map(abs, map(sub, xs, ys))
            flat[1::2] = map(add, xs, ys)
            return flat
        if lb == LB_SQUARE_MINUS:
            return list(map(sub, map(mul, xs, xs), ys))
        if lb == LB_ABS_SQUARE_DIFF:
            return list(map(abs, map(sub, map(mul, xs, xs), map(mul, ys, ys))))
        one = 1 if lb == LB_TWO_PRODUCT_PLUS_ONE else -1
        return list(map(one.__add__, map(mul, map((2).__mul__, xs), ys)))
    if lb == LB_SUM:
        return group_add_all(spec, xs, ys)
    if lb == LB_DIFF:
        return group_add_all(spec, xs, group_neg_all(spec, ys))
    if lb == LB_SQUARE_PLUS:
        return group_add_all(spec, group_mul_all(spec, xs, xs), ys)
    products = group_mul_all(spec, xs, ys)
    c = clause.a0 if lb == LB_AFFINE_PRODUCT else group_neg(spec, 1)
    return group_add_all(spec, [c] * len(products), products)


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


_FLIP = bytes.maketrans(b"\x00\x01", b"\x01\x00")


def _square_class_table(q: int, kind: str) -> bytes:
    """_field_table(PrimeField(q), pred) for the two square classes of a
    prime q, read straight off x * x % q: no exp and log tables, so the
    cost is one byte per residue."""
    table = bytearray(q)
    for x in range(1, q // 2 + 1):
        table[x * x % q] = 1
    if kind == "quadratic_nonresidue_mod":
        table = table.translate(_FLIP)
        table[0] = 0
    return bytes(table)


def _table_truths(table: bytes, q: int | None):
    """truths(rows) of a modular predicate: the byte in table of each label,
    reduced mod q first when q is given.  With at most 256 entries a row is
    bytes, read in one bytes.translate; else a label at a time."""
    reduced = (lambda row: row) if q is None else (lambda row: map(mod, row, repeat(q)))
    if len(table) > 256:
        return lambda rows: [bytes(map(table.__getitem__, reduced(row))) for row in rows]
    padded = table.ljust(256, b"\0")
    return lambda rows: [bytes(reduced(row)).translate(padded) for row in rows]


@lru_cache(maxsize=64)
def _predicate_evaluator(spec: GroupSpec, pred: PredicateSpec):
    """The one place a predicate is evaluated, for check() and the kernel's
    adjacency alike.  Returns truths(rows), which maps each row of label
    values to bytes holding 1 where the label passes and 0 where it fails.
    Every modular kind reads the classes of F_q off _field_table: over a
    field ground the ground's own field (this is what makes prime-power
    instances work), over an integer or Z/m ground those of PrimeField(q),
    with the labels reduced mod q, so there q must be an odd prime; the
    square classes of a prime are built without the field's tables
    (_square_class_table), as a large q would make them costly.  Every other
    predicate reads a PredicateTable, whose prime-valued kinds are sieved
    over the span of the labels asked about.  Cached, so a check() after a
    search reuses the search's table."""
    modular = pred.kind in MODULAR_KINDS
    if _uses_tuples(spec) or (isinstance(spec, PrimePowerField) and not modular):
        raise ValueError(f"predicate {pred.kind} is not defined over {spec!r}")
    if modular and isinstance(spec, (PrimeField, PrimePowerField)):
        return _table_truths(_field_table(spec, pred), None)
    if modular:
        q = pred.params[0]
        if not is_prime(q):
            raise ValueError(f"{pred.kind} modulus {q} is not an odd prime")
        if pred.kind == "primitive_root_mod":
            table = _field_table(PrimeField(q), pred)
        else:
            table = _square_class_table(q, pred.kind)
        return _table_truths(table, q)
    if pred.kind == "coprime_to":
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


def _columns(arrangement: Arrangement, arity: int) -> list:
    """The elements of every window of the given arity as columns, one per
    offset: window i holds column[0][i], column[1][i], ..., in the order of
    edge_index_pairs() (arity 2) or triple_index_runs() (arity 3)."""
    elems = arrangement.elements
    n = len(elems)
    if n < arity:
        return [()] * arity
    if arrangement.shape == LINEAR:
        return [elems[i:n - arity + 1 + i] for i in range(arity)]
    return [elems[i:] + elems[:i] for i in range(arity)]


def check(arrangement: Arrangement, constraint: Constraint) -> CheckReport:
    """Certificate check by direct recomputation of every clause.  Each
    clause's labels are computed on columns of the arrangement's elements
    by rainbow_labels and predicate_labels, the label functions the search
    kernel also calls; window positions are built only to report a
    violation.  The distinctness and truth tests are check()'s own, and it
    shares no state with the kernel's incremental tracking; this is the
    oracle the kernel's witnesses are validated against."""
    spec = arrangement.spec
    elems = arrangement.elements
    n = len(elems)
    viols: list[Violation] = []

    if constraint.first is not None and elems[0] != constraint.first:
        viols.append(Violation(None, (0,), f"position 0 must hold {constraint.first!r}"))
    if constraint.last is not None and elems[-1] != constraint.last:
        viols.append(Violation(None, (n - 1,), f"last position must hold {constraint.last!r}"))

    for ci, cl in enumerate(constraint.clauses):
        if isinstance(cl, RainbowClause):
            triple = cl.kind == RB_TRIPLE
            if triple and arrangement.shape == CIRCULAR and 1 < n < 3:
                viols.append(Violation(ci, (), "triple labels need length >= 3"))
                continue
            columns = _columns(arrangement, 3 if triple else 2)
            if not columns[0]:
                _label_one_window(spec, cl, elems[:1])
                continue
            labels = rainbow_labels(spec, cl, *columns)
            if len(set(labels)) == len(labels):
                continue
            windows = arrangement.triple_index_runs() if triple else arrangement.edge_index_pairs()
            seen: dict = {}
            for lab, pos in zip(labels, windows):
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
            xs, ys = _columns(arrangement, 2)
            if not xs:
                continue
            flat = predicate_labels(spec, cl, xs, ys)
            bad = truths([flat])[0].find(0)
            if bad >= 0:
                a, b = arrangement.edge_index_pairs()[bad // (len(flat) // len(xs))]
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
class RootCertificate:
    """Why a rainbow clause has no arrangement, found by the label-sum
    stage before the first node.  Its labels lie in a label space of
    `labels` elements and must be distinct over `windows` windows, so
    labels - windows of them are left out, and those must sum to
    `left_out_sum`, which no such subset of the label space does.  It is
    None when no sum is needed: when there are more windows than labels,
    and for a linear diff clause with a free end through a whole group,
    whose labels are then all of G minus 0 and sum to first - last, while
    those of G sum to 0, so that first would be last."""

    clause_index: int
    kind: str
    labels: int
    windows: int
    left_out_sum: Element | None


@dataclass(frozen=True)
class SearchOutcome:
    status: str  # "witness" | "exhausted" | "budget"
    witness: Arrangement | None
    nodes: int
    elapsed_ms: int
    witness_count: int | None = None  # only set when counting mode is on
    certificate: RootCertificate | None = None  # set when the label-sum stage answers

    def __post_init__(self):
        if self.status == "witness":
            assert self.witness is not None


def _label_one_window(spec: GroupSpec, clause: RainbowClause, x: tuple) -> None:
    """Label the window of x = (the first element,) alone, so that a clause
    the ground cannot label (a modulus on tuples, distance off the
    integers, product on a group) is refused at every n, windows or none."""
    rainbow_labels(spec, clause, x, x, x)


def _validate_instance(ground: GroundSet, shape: str, constraint: Constraint):
    if shape not in (LINEAR, CIRCULAR):
        raise ValueError(f"bad shape {shape!r}")
    n = len(ground)
    x = ground.elements[:1]
    for cl in constraint.clauses:
        if not isinstance(cl, RainbowClause):
            if cl.a0 is not None:
                validate_element(ground.spec, cl.a0)
            continue
        _label_one_window(ground.spec, cl, x)
        if cl.kind == RB_TRIPLE and shape == CIRCULAR and 1 < n < 3:
            raise ValueError("triple rainbow needs a circular length of 1 or >= 3")
    for pin in (constraint.first, constraint.last):
        if pin is not None:
            validate_element(ground.spec, pin)
            if pin not in ground.elements:
                raise ValueError(f"pin {pin!r} is not in the ground set")
    if constraint.first is not None and constraint.last is not None:
        if constraint.first == constraint.last and n > 1:
            raise ValueError("first and last pins coincide")


def _label_sums(ground: GroundSet, shape: str, constraint: Constraint) -> tuple:
    """The root stage of search() on two or more elements: Gordon's
    label-sum argument, run once per rainbow clause.  Returns (certificate,
    constraint): a RootCertificate when a clause has no arrangement, and the
    constraint the walk takes, the caller's with a forced last pinned.

    A clause's w windows take distinct labels in its label space L: the
    group itself, less 0 for diff; Z/m under a modulus on integers.  So the
    c = |L| - w labels left out sum to sigma(L) minus the sum of all labels,
    which telescopes: to 0 for a circular diff, 2 sigma(S) for a circular
    sum and 3 sigma(S) for a circular weighted or triple clause, where S is
    the ground, and to first - last for a linear diff.  c is read off the
    group order, and a clause with c > 2 is skipped before anything is
    summed, as are distance and product clauses and unbounded labels.  A
    linear diff clause through a whole group (c = 0) needs first - last =
    sigma(L), so none exists when sigma(L) = 0, and with first pinned the
    last is forced."""
    spec = ground.spec
    n = len(ground)
    first, last = constraint.first, constraint.last
    for ci, cl in enumerate(constraint.clauses):
        if not isinstance(cl, RainbowClause) or cl.kind in (RB_DISTANCE, RB_PRODUCT):
            continue
        diff = cl.kind == RB_DIFF
        if cl.modulus is not None and isinstance(spec, Integers):
            space = CyclicProduct((cl.modulus,))
            size = cl.modulus
        elif cl.modulus is None and isinstance(spec, (CyclicProduct, PrimeField, PrimePowerField)):
            space = spec
            size = group_order(spec) - diff
        else:
            continue
        if shape == CIRCULAR:
            windows = n
        else:
            windows = n - 2 if cl.kind == RB_TRIPLE else n - 1
        c = size - windows
        if c > 2:
            continue
        if c < 0:
            return RootCertificate(ci, cl.kind, size, windows, None), constraint
        if shape == LINEAR and not diff:
            continue  # the sum of a path's labels depends on its order
        labels = group_elements(space)
        zero = labels[0]
        if diff and cl.modulus is None:
            labels = labels[1:]
        sigma = reduce(partial(group_add, space), labels)
        if shape == CIRCULAR:
            s = reduce(partial(group_add, spec), ground.elements)
            if cl.modulus is not None:
                s %= cl.modulus
            copies = {RB_DIFF: 0, RB_SUM: 2}.get(cl.kind, 3)
            total = reduce(partial(group_add, space), [s] * copies, zero)
        elif first is not None and last is not None:
            total = rainbow_labels(spec, cl, [first], [last])[0]
        elif c == 0 and cl.modulus is None:
            # the labels are all of L, so first - last = sigma(L); the ground
            # is the whole group, so with first pinned that last is in it
            if sigma == zero:
                return RootCertificate(ci, cl.kind, size, windows, None), constraint
            if first is not None:
                last = group_add(spec, first, group_neg(spec, sigma))
                constraint = replace(constraint, last=last)
            continue
        else:
            continue  # the sum of the labels depends on a free end
        left_out = group_add(space, sigma, group_neg(space, total))
        if c == 0:
            found = left_out == zero
        elif c == 1:
            found = left_out in labels
        else:
            rests = group_add_all(space, [left_out] * len(labels), group_neg_all(space, labels))
            members = set(labels)
            found = any(y != x and y in members for x, y in zip(labels, rests))
        if not found:
            return RootCertificate(ci, cl.kind, size, windows, left_out), constraint
    return None, constraint


# pairs per label call when the kernel labels whole rows of pairs: enough
# that a call's fixed cost is small, few enough that its columns are small
# beside the rows they fill
_PAIRS_PER_CALL = 1 << 12


def _row_blocks(xs: list, ys: list):
    """Every ordered pair (x, y) of xs by ys, as a column of x and a column
    of y, a block of whole rows of about _PAIRS_PER_CALL pairs at a time:
    each x in turn with every y, in order."""
    n = len(ys)
    step = max(1, _PAIRS_PER_CALL // n)
    for i in range(0, len(xs), step):
        rows = xs[i:i + step]
        yield list(chain.from_iterable(map(repeat, rows, repeat(n)))), ys * len(rows)


class _LazyRow(dict):
    """Maps a key to the name of a label, filled on first read by
    name_of(key), so that a row holds only the labels a search visits."""

    __slots__ = ("name_of",)

    def __missing__(self, key):
        v = self[key] = self.name_of(key)
        return v


def _rainbow_tracker(spec: GroupSpec, clause: RainbowClause, elems: list, names: count) -> tuple:
    """The kernel's state for one rainbow clause: (arity, pairs, rows),
    such that a window (x, y, z) of indices into elems has the label name
    rows[z][pairs[x][y]].  Every label is named by a small int drawn from
    names, the one namer of a search's rainbow clauses, on the first read
    of a window that has it, so that no two clauses share a name and the
    names count only the labels a search visits; the kernel tracks the
    labels in use as the bits 1 << name of one int.  The labels are
    rainbow_labels', made for all pairs at once.  For triple, pairs[x][y]
    is the pair sum of elems[x] and elems[y] (tuple sums keyed by small
    ints of their own) and rows[z] names its sum with elems[z].  The other
    kinds label a window (x, y, z) by (y, z) alone: pairs[x][y] is y, also
    for x = n, the free start of a line, and rows[z][y] names the label of
    (elems[y], elems[z])."""
    kind = clause.kind
    m = clause.modulus
    n = len(elems)
    tuples = isinstance(elems[0], tuple)
    label_name = defaultdict(names.__next__)
    ys = elems
    pair = clause
    # x - y and x + 2y are sums of x and a column of -y or 2y made once
    if kind == RB_DIFF:
        ys = group_neg_all(spec, elems)
        pair = RainbowClause(RB_SUM, m)
    elif kind == RB_WEIGHTED:
        ys = group_add_all(spec, elems, elems)
        pair = RainbowClause(RB_SUM, m)
    elif kind == RB_TRIPLE:
        pair = RainbowClause(RB_SUM)
    # tuple labels are keyed by small ints, int labels are their own keys
    key_of = defaultdict(count().__next__) if tuples else None
    keys = []
    for xs, block_ys in _row_blocks(elems, ys):
        labels = rainbow_labels(spec, pair, xs, block_ys)
        if key_of is not None:
            labels = list(map(key_of.__getitem__, labels))
        keys += [labels[k:k + n] for k in range(0, len(labels), n)]
    rows = [_LazyRow() for _ in elems]
    if kind != RB_TRIPLE:
        for z, row in enumerate(rows):
            row.name_of = lambda y, z=z: label_name[keys[y][z]]
        return 2, [list(range(n))] * (n + 1), rows
    # a triple label is the pair sum plus the third element, reduced mod m
    sums = list(key_of) if tuples else None  # the pair sums by key

    def plus(s, z):
        if sums is not None:
            s = sums[s]
        label = group_add(spec, s, z)
        return label_name[label if m is None else label % m]

    for row, z in zip(rows, elems):
        row.name_of = lambda s, z=z: plus(s, z)
    return 3, keys, rows


_BIT_CHARS = bytes.maketrans(b"\x00\x01", b"01")


def _compile_adjacency(spec, elems, pclauses):
    """Directed adjacency bitmasks from the conjunction of the predicate
    clauses.  out_mask[i] bit j set means the directed edge elems[i] ->
    elems[j] is allowed.  Each clause's labels come from predicate_labels on
    blocks of whole rows of pairs, their truths from the one evaluator in
    one call, and a row of truths becomes a bitmask in one step."""
    n = len(elems)
    out_mask = [((1 << n) - 1) ^ (1 << i) for i in range(n)]
    for cl in pclauses:
        truths = _predicate_evaluator(spec, cl.predicate)
        ys = elems
        if cl.labeler == LB_DIFF:
            # x - y is the sum of x and -y: negate the n elements once
            ys = group_neg_all(spec, elems)
            cl = PredicateClause(cl.predicate, LB_SUM)
        blocks = [predicate_labels(spec, cl, xs, block_ys) for xs, block_ys in _row_blocks(elems, ys)]
        # abs_diff_and_sum gives two labels a pair, and both must pass
        per_pair = 2 if cl.labeler == LB_ABS_DIFF_AND_SUM else 1
        width = per_pair * n
        i = 0
        for bits in truths(blocks):
            for k in range(0, len(bits), width):
                for o in range(k, k + per_pair):
                    out_mask[i] &= int(bits[o:k + width:per_pair].translate(_BIT_CHARS)[::-1], 2)
                i += 1
    if all(cl.symmetric for cl in pclauses):
        return out_mask, out_mask  # x -> y and y -> x share their labels
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
    and the completions are counted as brute_force_enumerate counts them:
    up to rotation and, under reversal-symmetric clauses, up to reversal,
    lines included (a testing hook; the witness is then the first found)."""
    if budget < 1:
        raise ValueError("budget must be >= 1 node")
    _validate_instance(ground, shape, constraint)
    t0 = time.perf_counter()
    certificate = None
    nodes, found, witnesses = 0, None, 0
    if len(ground) == 1:
        # no windows and no edges: the element alone is the arrangement
        nodes = witnesses = 1
        found = _rechecked(Arrangement(ground.spec, shape, ground.elements), constraint)
    else:
        certificate, walked = _label_sums(ground, shape, constraint)
        if certificate is None:
            nodes, found, witnesses = _walk(ground, shape, walked, budget, count_witnesses)
    if nodes > budget:
        status = "budget"
    else:
        status = "exhausted" if found is None else "witness"
    elapsed = int((time.perf_counter() - t0) * 1000)
    return SearchOutcome(status, found, nodes, elapsed, witnesses if count_witnesses else None,
                         certificate)


def _rechecked(arr: Arrangement, constraint: Constraint) -> Arrangement:
    """arr, once check() passes it: the kernel returns no other witness."""
    report = check(arr, constraint)
    if not report.ok:
        raise RuntimeError(f"kernel produced an invalid witness: {report.first.message}")
    return arr


def _walk(ground: GroundSet, shape: str, constraint: Constraint, budget: int,
          count_witnesses: bool) -> tuple:
    """The tree walk of search() on two or more elements, under the
    constraint _label_sums returns: (nodes, the first witness or None, the
    witnesses counted).  It stops at the first witness unless it counts,
    and after budget + 1 nodes.  It walks one circle of N vertices from
    path[0], the one start of the module docstring's Symmetry reduction:
    one loop places positions 1 to N - 1 and, at the last, closes the
    circle and accepts."""
    spec = ground.spec
    elems = sorted(ground.elements)
    n = len(elems)
    circular = shape == CIRCULAR

    # one label tracker per rainbow clause, in clause order, all naming
    # their labels from one namer (see _rainbow_tracker)
    names = count()
    trackers = [
        _rainbow_tracker(spec, cl, elems, names)
        for cl in constraint.clauses
        if isinstance(cl, RainbowClause)
    ]
    # without predicate clauses every edge is allowed
    pclauses = [c for c in constraint.clauses if isinstance(c, PredicateClause)]
    out_mask, in_mask = _compile_adjacency(spec, elems, pclauses)

    first_idx = elems.index(constraint.first) if constraint.first is not None else None
    last_idx = elems.index(constraint.last) if constraint.last is not None else None
    # clauses_at[e] holds the (pairs, rows) of the clauses with a window
    # that ends at position e of the path.  The arrangement is
    # path[head:head + n]: it starts past a line's free start, and past the
    # last pin that a circle is walked from, once path[N:] repeats path[:2]
    head = 1
    if not circular:
        # the free start's edges go out to the first pin and in from the
        # last pin, or to and from every element
        N, start = n + 1, n
        heads = (1 << n) - 1 if first_idx is None else 1 << first_idx
        ends = (1 << n) - 1 if last_idx is None else 1 << last_idx
        out_mask = [m | (ends >> i & 1) << n for i, m in enumerate(out_mask)] + [heads]
        in_mask = [m | (heads >> i & 1) << n for i, m in enumerate(in_mask)] + [ends]
        # a line's windows start at position 1, and none wraps around
        clauses_at = [[(p, r) for a, p, r in trackers if a <= e] for e in range(N)] + [[], []]
    else:
        N = n
        if first_idx is None and last_idx is not None:
            # walked from its last pin, it meets its circles in the lex
            # order of the elements that follow that pin
            start, last_idx = last_idx, None
        else:
            start, head = 0 if first_idx is None else first_idx, 0
        # a circle's windows that wrap around end at N and N + 1, where
        # path[N:] repeats path[:2]
        clauses_at = [[(p, r) for a, p, r in trackers if a <= e + 1] for e in range(N + 2)]
        clauses_at[N + 1] = [(p, r) for a, p, r in trackers if a == 3]

    sym_reduce = not constraint.pinned and constraint.reversal_symmetric and N >= 3

    found: Arrangement | None = None
    witnesses = 0
    # two spare slots past the end hold path[0] and path[1] again once the
    # circle closes, so the windows that wrap around read straight through
    path = [0] * (N + 2)
    full_mask = (1 << N) - 1
    # a last pin is no candidate before the last position, where it is the
    # one element left
    not_last = full_mask if last_idx is None else full_mask ^ (1 << last_idx)
    # the degree, cycle-cover and reachability prunes need cycles of length >= 3
    prune = bool(pclauses) and N >= 3
    # Without rainbow state, whether a subtree can complete depends only on
    # (unused set, tail), so proven-dead subproblems are memoized and skipped
    # on revisit.  Sound: only failure is cached, never witnesses, so the
    # first witness (and any witness count) is unchanged.  The orientation
    # filter consults path[1], which is folded into the key when active.
    memo_failures = not trackers and bool(pclauses)
    failed: set = set()
    # The cycle cover: a perfect matching of the sources {tail} + unused onto
    # the targets unused + {start}, as mt[source] = target and ms[target] =
    # source.  The rest of a circle is one, so a subtree without one is dead
    # (Hall's theorem).  Every write is logged as (source, old target,
    # target, old source), and a backtrack replays the log down to its mark.
    mt = [-1] * N
    ms = [-1] * N
    log: list = []
    # The degree prune's watches (see the module docstring): every unused u
    # watches a predecessor wp[u] in unused + {tail} and a successor ws[u]
    # in unused + {start}, with wp[u] != ws[u]; watch_p[v] and watch_s[v]
    # are the bitmasks of the vertices that watch v.  Every vertex starts
    # out watching vertex 0 both ways, until the start's degree check
    # re-watches it.
    if prune:
        wp = [0] * N
        ws = [0] * N
        watch_p = [full_mask] + [0] * (N - 1)
        watch_s = watch_p[:]

    def degree_prune_ok(unused, tail, broken) -> bool:
        """Fail-fast: every still-unused vertex needs a feasible
        predecessor among unused + the current tail and a feasible successor
        among unused + the start, and at least two distinct partners; that
        is, a watch pair.  Re-watches the vertices in broken, taking the
        highest partners, and is False when one of them has no pair left.
        The others keep the watches they had, which are still valid."""
        pred_set = unused | 1 << tail
        succ_set = unused | 1 << start
        m = broken
        while m:
            u_bit = m & -m
            m ^= u_bit
            u = u_bit.bit_length() - 1
            preds = in_mask[u] & pred_set
            succs = out_mask[u] & succ_set
            if not preds or not succs:
                return False
            p = preds.bit_length() - 1
            s = succs.bit_length() - 1
            if p == s:
                if succs ^ 1 << s:
                    s = (succs ^ 1 << s).bit_length() - 1
                elif preds ^ 1 << p:
                    p = (preds ^ 1 << p).bit_length() - 1
                else:
                    return False
            if wp[u] != p:
                watch_p[wp[u]] ^= u_bit
                watch_p[p] |= u_bit
                wp[u] = p
            if ws[u] != s:
                watch_s[ws[u]] ^= u_bit
                watch_s[s] |= u_bit
                ws[u] = s
        return True

    def augment(a, targets, free) -> int:
        """Kuhn's augmenting search, depth first, from the unmatched source
        a through matched targets to a target in free.  Rematches the path
        it finds, logging every write, and returns the free target taken;
        -1 when there is no such path."""
        sources = [a]
        options = [out_mask[a] & targets]
        seen = 0
        while sources:
            c = options[-1]
            hit = c & free
            if hit:
                t = taken = (hit & -hit).bit_length() - 1
                for u in reversed(sources):
                    old = mt[u]
                    log.append((u, old, t, ms[t]))
                    mt[u] = t
                    ms[t] = u
                    t = old
                return taken
            c &= ~seen
            if not c:
                sources.pop()
                options.pop()
                continue
            b = c & -c
            options[-1] = c ^ b
            seen |= b
            u = ms[b.bit_length() - 1]
            sources.append(u)
            options.append(out_mask[u] & targets & ~seen)
        return -1

    def root_cover() -> bool:
        """The cover at the root: one augmentation per vertex, in order,
        matches it to a successor.  False when one finds no free target, so
        no circle closes."""
        free = full_mask
        for u in range(N):
            t = augment(u, full_mask, free)
            if t < 0:
                return False
            free ^= 1 << t
        log.clear()
        return True

    def cover_ok(prev, j, targets) -> bool:
        """Repair the parent's cover after placing prev -> j, which takes
        source prev and target j out; targets are the child's.  Keep it when
        prev was matched to j; else one augmentation from j's source to
        prev's target, whose first step is the direct edge."""
        b = mt[prev]
        return b == j or augment(ms[j], targets, 1 << b) >= 0

    def undo(mark):
        while len(log) > mark:
            u, t_old, t, u_old = log.pop()
            mt[u] = t_old
            ms[t] = u_old

    def reach_prune_ok(unused, tail) -> bool:
        """Fail-fast: the cycle must still thread tail -> all unused ->
        start, so every unused vertex has to be reachable from the tail
        through unused vertices only, and the start has to stay reachable;
        symmetrically backwards.  Each sweep stops as soon as it has reached
        its whole target set.  Sound, so the first witness is unchanged; it
        only skips provably dead subtrees."""
        for masks, frm, target in (
            (out_mask, tail, unused | 1 << start),
            (in_mask, start, unused | 1 << tail),
        ):
            seen = masks[frm] & target
            frontier = seen & unused
            while seen != target:
                if not frontier:
                    return False
                reached = seen
                while frontier:
                    b = frontier & -frontier
                    frontier ^= b
                    reached |= masks[b.bit_length() - 1]
                    if reached & target == target:
                        break
                reached &= target
                frontier = (reached ^ seen) & unused
                seen = reached
        return True

    # The walk keeps an explicit stack of levels, (k, unused, candidates
    # left, labels in use, memo key, witnesses at entry, undo mark), so it
    # has no depth limit.  A level's candidates are a bitmask, taken lowest
    # set bit first; cands is None while the level at k is new.
    path[0] = prev = start
    unused = full_mask ^ (1 << start)
    # a circle's start is its first node; a line's free start is none
    nodes = int(circular)
    if prune and not (root_cover() and degree_prune_ok(unused, start, unused)):
        return nodes, found, witnesses
    k = 1
    used = 0
    key = None  # the root's subproblem is met once, so it is not memoized
    cands = None
    levels = []
    while True:
        if cands is None:
            cands = out_mask[prev] & unused
            last_pos = k == N - 1
            if not last_pos:
                cands &= not_last
            elif sym_reduce:
                cands = cands >> path[1] << path[1]
            at_entry = witnesses
            mark = len(log)
        if not cands:
            # every candidate at position k is done
            if key is not None and witnesses == at_entry:
                if len(failed) >= _MEMO_CAP:
                    failed.clear()
                failed.add(key)
            if not levels:
                break
            k, unused, cands, used, key, at_entry, mark = levels.pop()
            prev = path[k - 1]
            last_pos = False
            if prune:
                undo(mark)
            continue
        b = cands & -cands
        cands ^= b
        j = b.bit_length() - 1
        nodes += 1
        if nodes > budget:
            break
        # the labels of the windows that end at k, one per clause that
        # has one there (at k = 1 of a circle only the pair kinds, which
        # ignore x)
        x = path[k - 2]
        u = used
        for pairs, rows in clauses_at[k]:
            bit = 1 << rows[j][pairs[x][prev]]
            if u & bit:
                break
            u |= bit
        else:
            path[k] = j
            if last_pos:
                # close the circle: the edge back to the start, then the
                # labels of the windows that wrap around
                if out_mask[j] >> start & 1:
                    path[N:] = path[:2]
                    wrap = [1 << rows[path[e]][pairs[path[e - 2]][path[e - 1]]]
                            for e in (N, N + 1) for pairs, rows in clauses_at[e]]
                    if len(set(wrap)) == len(wrap) and not u & sum(wrap):
                        if found is None:
                            arr = tuple(elems[i] for i in path[head:head + n])
                            found = _rechecked(Arrangement(spec, shape, arr), constraint)
                        witnesses += 1
                        if not count_witnesses:
                            break
                continue
            nxt = unused ^ b
            # prev leaves the predecessors (it is no longer the tail)
            # and j the successors (it is no longer unused), so only
            # the vertices that watch prev or j need new watches.
            if not prune or (
                degree_prune_ok(nxt, j, (watch_p[prev] | watch_s[j]) & nxt)
                and cover_ok(prev, j, nxt | 1 << start)
                and reach_prune_ok(nxt, j)
            ):
                child = None
                if memo_failures:
                    child = (nxt, j, path[1]) if sym_reduce else (nxt, j)
                if child is None or child not in failed:
                    levels.append((k, unused, cands, used, key, at_entry, mark))
                    k += 1
                    prev = j
                    unused = nxt
                    used = u
                    key = child
                    cands = None
                    continue
            if prune:
                undo(mark)
    return nodes, found, witnesses


# --- brute force oracle ---------------------------------------------------------


def brute_force_enumerate(
    ground: GroundSet, shape: str, constraint: Constraint
) -> tuple[int, list[Arrangement] | None]:
    """Naive enumeration of all permutations, deduplicated by canonical form.
    The definitional oracle the search kernel is validated against; capped at
    ground sets of size 9."""
    n = len(ground)
    if n > BRUTE_FORCE_MAX:
        raise ValueError(f"brute force capped at {BRUTE_FORCE_MAX} elements, got {n}")
    _validate_instance(ground, shape, constraint)
    spec = ground.spec
    elems = sorted(ground.elements)
    seen: set[tuple] = set()
    witnesses: list[Arrangement] = []
    # Pins are positional, so a pinned end is fixed and only the rest is
    # permuted, in the order the full walk meets them.  An unpinned circle
    # also quotients rotation upfront by fixing its minimum at the head (a
    # last-only pin keeps every rotation).
    first, last = constraint.first, constraint.last
    head = [first] if first is not None else []
    if shape == CIRCULAR and first is None and last is None:
        head = elems[:1]
    # the pins coincide only on a single element, which is then both ends
    tail = [last] if last is not None and last != first else []
    rest = [x for x in elems if x not in head and x not in tail]
    cands = (head + list(t) + tail for t in permutations(rest))
    for seq in cands:
        arr = Arrangement(spec, shape, tuple(seq))
        if not check(arr, constraint).ok:
            continue
        canon = canonical_form(arr, constraint).elements
        if canon in seen:
            continue
        seen.add(canon)
        witnesses.append(Arrangement(spec, shape, canon))
    count = len(witnesses)
    return count, (witnesses if count <= 1000 else None)


def canonical_form(arrangement: Arrangement, constraint: Constraint) -> Arrangement:
    """The representative of the arrangements the kernel counts as one: a
    circle rotated to start at its minimum element and then, when every
    clause is reversal symmetric, the lexicographically smaller of the
    arrangement and its reversal (a circle's reversal keeps its start in
    front).  Pins are positional and break both symmetries, so pinned
    arrangements are always canonical as given."""
    if constraint.pinned:
        return arrangement
    elems, keep = arrangement.elements, 0
    if arrangement.shape == CIRCULAR:
        k = elems.index(min(elems))
        elems, keep = elems[k:] + elems[:k], 1
    if constraint.reversal_symmetric:
        elems = min(elems, elems[:keep] + elems[keep:][::-1])
    return Arrangement(arrangement.spec, arrangement.shape, elems)


# --- paired numberings ------------------------------------------------------------


def check_pair_numbering(spec: GroupSpec, a: tuple, b: tuple) -> bool:
    """Whether the n values a_i + 2*b_i are pairwise distinct."""
    if sorted(a) != sorted(b):
        return False
    return len(set(rainbow_labels(spec, RainbowClause(RB_WEIGHTED), a, b))) == len(a)


def search_pair_numbering(ground: GroundSet, budget: int = DEFAULT_BUDGET) -> SearchOutcome:
    """Numberings a (the sorted ground) and b of one set with a_i + 2*b_i
    pairwise distinct.  Position i with element j has the label rows[j][i]
    of a weighted clause's tracker; a prefix is cut at its first repeated
    label, so the witness b is the first in lex order."""
    t0 = time.perf_counter()
    elems = sorted(ground.elements)
    n = len(elems)
    _, _, rows = _rainbow_tracker(ground.spec, RainbowClause(RB_WEIGHTED), elems, count())
    path = [0] * n
    # per position, as bits: the elements unused, those left to try, the labels in use
    unused = [(1 << n) - 1] + [0] * n
    cands = unused[:]
    used = [0] * (n + 1)
    nodes = i = 0
    status = "exhausted"
    while i >= 0:
        c = cands[i]
        if not c:
            i -= 1
            continue
        b = c & -c
        cands[i] = c ^ b
        nodes += 1
        if nodes > budget:
            status = "budget"
            break
        j = b.bit_length() - 1
        bit = 1 << rows[j][i]
        if used[i] & bit:
            continue
        path[i] = j
        if i == n - 1:
            status = "witness"
            break
        used[i + 1] = used[i] | bit
        unused[i + 1] = cands[i + 1] = unused[i] ^ b
        i += 1
    witness = None
    if status == "witness":
        witness = Arrangement(ground.spec, LINEAR, tuple(elems[j] for j in path))
    return SearchOutcome(status, witness, nodes, int((time.perf_counter() - t0) * 1000))
