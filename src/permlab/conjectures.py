"""Catalog of arrangement-existence statements, their desk-scale instance
generators, and the campaign runner that turns searches into JSONL records.

Catalog ids and what each asks for (all "distinct" means pairwise distinct,
all cycles are circular arrangements):

  3.1        linear, distinct adjacent distances, designated first element
  3.2        conditional: a distance-rainbow cycle implies one with the
             least and greatest elements adjacent (pinned endpoints)
  3.3        linear over a finite abelian group, distinct differences,
             designated first element; hypothesis n does not divide |G|,
             or n even with cyclic 2-part.  On the whole group this asks
             for a sequencing; where the search spends its budget there,
             constructions.symmetric_sequencing may answer instead
  3.4i/3.4ii cycle over a finite abelian group with distinct sums (i) or
             differences (ii); hypothesis n odd or n not dividing |G|
  3.5i       cycle with x + 2y labels distinct, |G| not divisible by 3
  3.5ii      numberings a (sorted), b of one set with a_i + 2 b_i distinct
  3.6        cycle with consecutive triple sums distinct
  3.7i       cycle of all of F_q, adjacent sums primitive elements (q > 7)
  3.7ii      cycle of 1..(p-1)/2 with sums (p > 19) or differences (p > 13)
             primitive roots mod p
  3.8        cycle of the quadratic residues mod p, sums (p > 19) or
             differences (p > 13) primitive roots mod p
  3.9i/3.9ii cycle of 1..(p-1)/2, labels x^2+y or x^2-y all quadratic
             residues (p > 11) or all primitive roots (p > 13) mod p
  3.10       cycle of the nonzero elements of F_q (q > 7) with a0 + x*y
             primitive for a designated a0
  3.11       cycle of 0..n pinned (0, ..., n), sums coprime to n-1 and n+1
             (n = 2, 4 excluded); -guess variant uses 2n-1 and 2n+1
  3.12i/ii   cycle of distinct nonzero integers with sums (i: n > 2) or
             differences (ii: n > 3) AND products distinct, minus known
             exceptional sign-pattern families
  3.13       cycle of 0..n, sums k have 6k-1 and 6k+1 twin primes
  3.14       cycle of 0..n (n > 2), sums k have 6k-1 and 12k-1 prime
  3.15i/ii   cycle of 0..n, |x-y| and x+y (i) or |x^2-y^2| (ii) of the
             form (odd prime - 1)/2; (ii) excludes n = 2, 4
  3.16       cycle of 0..n pinned (0, ..., 1), labels x^2+y of the form
             (odd prime - 1)/2; n = 4 excluded
  3.17i/ii   same labels, of the form (p-1)/4 with p = 1 mod 4 (i), or
             (p+1)/4 with p = 3 mod 4 and pins 0, ..., 1 (ii)
  3.18a/b/c  cycle of 1..n with x*y-1 (a: n > 5, n != 13), 2xy-1 (b: n>1)
             or 2xy+1 (c: n != 4) all prime
  filz       cycle of 1..n (n even) with all adjacent sums prime
  thm1.6-range  square-class cycles over F_q via the generator-power
             construction, all four (sum/diff, S/T) combinations

Instance generators follow a desk-scale sampling policy: exhaustive windows
for tiny parameters, seeded deterministic samples above that.  Every
randomized generator takes an explicit seed and reproduces bit-identical
instances from (conjecture, params).
"""

from __future__ import annotations

import json
import os
import random
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import combinations, islice
from math import comb, prod

from . import __version__
from .algebra import (
    CIRCULAR,
    LINEAR,
    Arrangement,
    CyclicProduct,
    GroundSet,
    Integers,
    PrimeField,
    element_coords,
    element_from_coords,
    field_spec_for,
    field_view,
    group_add,
    group_add_all,
    group_elements,
    group_neg_all,
    group_order,
    group_sub,
    sylow2_cyclic,
)
from .constructions import qr_cycle, symmetric_sequencing
from .numtheory import PredicateSpec, is_prime, factorize, primes_upto
from .search import (
    Constraint,
    DEFAULT_BUDGET,
    CheckReport,
    PredicateClause,
    RainbowClause,
    Violation,
    check,
    check_pair_numbering,
    search,
    search_pair_numbering,
)

__all__ = [
    "Instance",
    "VerificationRecord",
    "CONJECTURE_IDS",
    "instance",
    "iter_params",
    "oracle_params",
    "describe",
    "record_key",
    "run_counterexample",
    "run_instance",
    "verify_range",
    "golden_fixtures",
    "counterexample_fixtures",
    "GoldenFixture",
]

TOOL_VERSION = __version__


@dataclass(frozen=True)
class Instance:
    ground: GroundSet
    shape: str
    constraint: Constraint
    precondition_ok: bool = True
    note: str = ""
    mode: str = "search"  # a key of _RUNNERS: search | pair | two-phase | qr
    pinned_constraint: Constraint | None = None  # two-phase only

    def check(self, arr: Arrangement) -> CheckReport:
        """check() of arr against the constraint once arr permutes the
        ground in the instance's shape; else one violation, clause_index None."""
        g = self.ground
        if ((arr.spec, arr.shape) == (g.spec, self.shape)
                and sorted(arr.elements) == sorted(g.elements)):
            return check(arr, self.constraint)
        msg = f"not a {self.shape} arrangement of the instance's {len(g)}-element ground"
        return CheckReport(False, (Violation(None, (), msg),))


def record_key(conjecture_id: str, params: dict) -> tuple:
    """What a record is known by on resume: its id and its sorted params."""
    return (conjecture_id, json.dumps(params, sort_keys=True))


@dataclass(frozen=True)
class VerificationRecord:
    conjecture: str
    params: dict
    status: str  # witness | exhausted | budget | skipped-precondition
    witness: list | None
    nodes: int
    elapsed_ms: int
    tool_version: str = TOOL_VERSION
    note: str = ""
    method: str = ""  # "symmetric" for a witness of the walk after a budget
    steps: int = 0  # that walk's steps

    def key(self) -> tuple:
        return record_key(self.conjecture, self.params)

    def to_dict(self) -> dict:
        out = {
            "conjecture": self.conjecture,
            "params": dict(sorted(self.params.items())),
            "status": self.status,
            "witness": self.witness,
            "nodes": self.nodes,
            "elapsed_ms": self.elapsed_ms,
            "tool_version": self.tool_version,
        }
        if self.note:
            out["note"] = self.note
        if self.method:
            out["method"] = self.method
            out["steps"] = self.steps
        return out


# --- shared generator helpers -------------------------------------------------


def _window(m: int, nonzero: bool = False) -> list[int]:
    return [v for v in range(-m, m + 1) if v or not nonzero]


def _window_subsets(m: int, n: int) -> list[tuple[int, ...]]:
    return list(combinations(_window(m), n))


def _nonzero_window_subsets(m: int, n: int) -> list[tuple[int, ...]]:
    return list(combinations(_window(m, nonzero=True), n))


def _check_index(name: str, i: int, size: int) -> int:
    """i, if it picks one of size choices.  A negative index would pick from
    the end, so it is refused like one that is too large."""
    if not 0 <= i < size:
        raise ValueError(f"{name} = {i} is out of range: there are {size} to choose from")
    return i


def _nth_subset(pool, n: int, i: int) -> tuple:
    """The i-th n-subset of pool in combinations() order, without building
    the list of all of them."""
    i = _check_index("subset", i, comb(len(pool), n))
    return next(islice(combinations(pool, n), i, None))


def _seeded_int_set(seed: int, n: int, lo: int, hi: int, nonzero: bool = False) -> tuple[int, ...]:
    rng = random.Random((seed, n, lo, hi, nonzero).__repr__())
    out: set[int] = set()
    while len(out) < n:
        v = rng.randint(lo, hi)
        if nonzero and v == 0:
            continue
        out.add(v)
    return tuple(sorted(out))


def _seeded_subset(seed: int, pool: list, n: int) -> tuple:
    rng = random.Random((seed, n, len(pool)).__repr__())
    idx = sorted(rng.sample(range(len(pool)), n))
    return tuple(pool[i] for i in idx)


def _int_values(params: dict, nonzero: bool = False) -> tuple[int, ...]:
    """The integer set of an {n, m, subset} or {n, seed} param map."""
    n = params["n"]
    if "subset" in params:
        return _nth_subset(_window(params["m"], nonzero), n, params["subset"])
    return _seeded_int_set(params["seed"], n, -3 * n, 3 * n, nonzero)


def _int_ground(values) -> GroundSet:
    return GroundSet(Integers(), tuple(sorted(values)))


def _range_ground(lo: int, hi: int) -> GroundSet:
    return GroundSet(Integers(), tuple(range(lo, hi + 1)))


# catalog of finite abelian groups by order, cyclic form first
_GROUPS_BY_ORDER: dict[int, list[tuple[int, ...]]] = {m: [(m,)] for m in range(2, 37)}
for _moduli in [
    (2, 2), (2, 4), (2, 2, 2), (3, 3), (2, 6), (2, 2, 3), (4, 4), (2, 8),
    (2, 2, 4), (2, 2, 2, 2), (3, 9), (3, 3, 2), (5, 5), (2, 2, 7), (6, 6),
    (2, 18), (3, 12), (2, 2, 9),
]:
    _GROUPS_BY_ORDER[prod(_moduli)].append(_moduli)

_EXHAUSTIVE_GROUP_ORDER = 8  # all subsets and all designated firsts up to here
_GROUP_SEEDS = (0, 1, 2)


def _resolve_group_subset(params: dict) -> tuple[tuple[int, ...], GroundSet]:
    """(moduli, ground) from an {m, g, n, subset|seed} param map; seed is
    read only when subset is absent."""
    how = "subset" if "subset" in params else "seed"
    return _group_ground(params.get("m"), params.get("g", 0), params.get("n"), how,
                         params.get(how))


# a campaign names each group ground under many ids and params (a seed-1
# rainbow-groups round builds 4,872 grounds, 1,155 of them distinct), and
# moduli and GroundSet are immutable, so each is built once per process
@lru_cache(maxsize=4096)
def _group_ground(m, g, n, how: str, i) -> tuple[tuple[int, ...], GroundSet]:
    """(moduli, ground) of the n-subset of the catalog's g-th group of order
    m that i picks, by its index (how = "subset") or as a seed ("seed")."""
    if m is None:
        raise ValueError("needs 'm', the group order")
    if m not in _GROUPS_BY_ORDER:
        raise ValueError(f"m = {m}: the catalog has groups of order "
                         f"{min(_GROUPS_BY_ORDER)} to {max(_GROUPS_BY_ORDER)}")
    if n is None:
        raise ValueError("needs 'n', the ground size")
    if i is None:
        raise ValueError("needs 'seed' or 'subset'")
    groups = _GROUPS_BY_ORDER[m]
    moduli = groups[_check_index("g", g, len(groups))]
    spec = CyclicProduct(moduli)
    pool = group_elements(spec)
    _check_index("n", n, m + 1)
    if how == "subset":
        subset = _nth_subset(pool, n, i)
    else:
        subset = _seeded_subset(i, pool, n)
    return moduli, GroundSet(spec, subset)  # in pool order, so sorted


def _circle(ground: GroundSet, *clauses, ok: bool = True, note: str = "",
            first=None, last=None) -> Instance:
    """A circular search instance.  The note says why the precondition
    fails, so it is kept only when ok is False."""
    return Instance(ground, CIRCULAR, Constraint(clauses, first=first, last=last),
                    precondition_ok=ok, note="" if ok else note)


def _clause(kind: str, labeler: str, *params: int) -> PredicateClause:
    return PredicateClause(PredicateSpec(kind, params), labeler)


# --- per-family builders -------------------------------------------------------


def _build_31(params: dict) -> Instance:
    ground = _int_ground(_int_values(params))
    first = ground.elements[_check_index("first", params["first"], len(ground))]
    return Instance(ground, LINEAR, Constraint((RainbowClause("distance"),), first=first))


def _build_32(params: dict) -> Instance:
    golden = params.get("golden")
    ground = _int_ground((11, 13, 17, 19, 23, 29) if golden in (1, 2) else _int_values(params))
    free = Constraint((RainbowClause("distance"),))
    pinned = Constraint((RainbowClause("distance"),),
                        first=ground.elements[0], last=ground.elements[-1])
    if golden == 2:
        return Instance(ground, CIRCULAR, pinned)
    if golden == 1:
        return Instance(ground, CIRCULAR, free)
    return Instance(ground, CIRCULAR, free, mode="two-phase", pinned_constraint=pinned)


def _build_33(params: dict) -> Instance:
    if params.get("fixture") == 1:
        # full Klein four-group, unpinned: differences always collide
        klein = CyclicProduct((2, 2))
        return Instance(
            GroundSet(klein, group_elements(klein)),
            LINEAR,
            Constraint((RainbowClause("diff"),)),
            note="full Klein four-group",
        )
    moduli, ground = _resolve_group_subset(params)
    n = params["n"]
    first = ground.elements[_check_index("first", params.get("first", 0), len(ground))]
    ok = prod(moduli) % n != 0 or n % 2 == 0 and sylow2_cyclic(CyclicProduct(moduli))
    return Instance(
        ground,
        LINEAR,
        Constraint((RainbowClause("diff"),), first=first),
        precondition_ok=ok,
        note="" if ok else "hypothesis on n and |G| fails",
    )


def _build_34(params: dict, diff: bool) -> Instance:
    moduli, ground = _resolve_group_subset(params)
    n, order = params["n"], prod(moduli)
    ok, note = n % 2 == 1 or order % n != 0, "hypothesis on n and |G| fails"
    if diff and not 3 < n < order:
        ok, note = False, "needs 3 < n < |G|"
    if not diff and n < 3:
        ok, note = False, "two-cycles repeat their single sum"
    return _circle(ground, RainbowClause("diff" if diff else "sum"), ok=ok, note=note)


def _build_35i(params: dict) -> Instance:
    moduli, ground = _resolve_group_subset(params)
    return _circle(ground, RainbowClause("weighted"),
                   ok=prod(moduli) % 3 != 0 and params["n"] > 3,
                   note="needs 3 not dividing |G| and n > 3")


def _group_cycle(params: dict, kind: str) -> Instance:
    """A kind-rainbow cycle of a group subset, stated for n > 3 (3.5ii, 3.6)."""
    _, ground = _resolve_group_subset(params)
    return _circle(ground, RainbowClause(kind), ok=params["n"] > 3, note="needs n > 3")


def _build_37i(params: dict) -> Instance:
    q = params["q"]
    return _circle(GroundSet(field_spec_for(q), tuple(range(q))),
                   _clause("primitive_root_mod", "sum", q), ok=q > 7, note="needs q > 7")


def _half_range(p: int) -> GroundSet:
    return _range_ground(1, (p - 1) // 2)


def _squares_mod(p: int) -> GroundSet:
    return GroundSet(PrimeField(p), tuple(sorted({r * r % p for r in range(1, p)})))


def _odd_prime_cycle(ground, kind: str, labeler: str, bound: int):
    """The builder of a cycle of ground(p), p an odd prime, whose labels
    satisfy kind mod p (3.7ii, 3.8, 3.9); stated for p > bound."""
    def build(params: dict) -> Instance:
        p = params["p"]
        if not is_prime(p) or p == 2:
            raise ValueError(f"p must be an odd prime, got {p}")
        return _circle(ground(p), _clause(kind, labeler, p), ok=p > bound,
                       note=f"needs p > {bound}")
    return build


def _build_310(params: dict) -> Instance:
    q = params["q"]
    spec = field_spec_for(q)
    a0 = params["a0"] % q
    clause = PredicateClause(PredicateSpec("primitive_root_mod", (q,)), "affine_product", a0=a0)
    return _circle(GroundSet(spec, tuple(range(1, q))), clause, ok=q > 7, note="needs q > 7")


def _build_311(params: dict, guess: bool = False) -> Instance:
    n = params["n"]
    if params.get("fixture") == 90:
        return Instance(_range_ground(0, 7), CIRCULAR,
                        Constraint((_clause("coprime_to", "sum", 90),)),
                        note="sums coprime to 90, unpinned")
    k = 2 * n if guess else n
    return _circle(_range_ground(0, n),
                   _clause("coprime_to", "sum", k - 1), _clause("coprime_to", "sum", k + 1),
                   ok=n >= 1 and n not in (2, 4), note="n = 2 and n = 4 are excluded",
                   first=0, last=n)


def _sign_pattern(vals: tuple[int, ...]) -> str:
    """Classify a set of nonzero integers by its plus-minus pairing: the
    known exceptional families are exactly {+-s, +-t} (n=4),
    {r, +-s, +-t} (n=5) and {+-r, +-s, +-t} (n=6)."""
    s = set(vals)
    paired = {v for v in s if -v in s}
    unpaired = s - paired
    pairs = len(paired) // 2
    if len(s) == 4 and pairs == 2:
        return "a"
    if len(s) == 5 and pairs == 2 and len(unpaired) == 1:
        return "b"
    if len(s) == 6 and pairs == 3:
        return "c"
    return ""


def _build_312(params: dict, diff: bool) -> Instance:
    vals = _int_values(params, nonzero=True)
    form = _sign_pattern(vals)
    exceptional = form == "a" if diff else form in ("a", "b", "c")
    min_n = 4 if diff else 3
    return _circle(
        _int_ground(vals), RainbowClause("diff" if diff else "sum"), RainbowClause("product"),
        ok=params["n"] >= min_n and not exceptional,
        note=f"exceptional sign pattern ({form})" if exceptional else f"needs n >= {min_n}",
    )


def _n_cycle(lo: int, clause: PredicateClause, ok=lambda n: n >= 1,
             note: str = "n = {n} is excluded"):
    """The builder of a cycle of lo..n whose labels satisfy clause; ok(n) is
    its precondition, and note, formatted with n, says why it fails."""
    def build(params: dict) -> Instance:
        n = params["n"]
        return _circle(_range_ground(lo, n), clause, ok=ok(n), note=note.format(n=n))
    return build


def _build_316(params: dict) -> Instance:
    # Pinning both ends loses no witnesses: rotate any witness cycle so 0 is
    # first; if the final value v were not 1, the wrap label v**2 + 0 could
    # only avoid a factor of 3 in 2(v**2)+1 when 3 | v, and walking backwards
    # the same argument forces 3 to divide every entry, which is impossible.
    # So every witness through 0 ends at 1 and the pinned search is complete.
    n = params["n"]
    return _circle(_range_ground(0, n), _clause("prime_shift", "square_plus", 2, 1),
                   ok=n >= 1 and n != 4, note="n = 4 is excluded",
                   first=0, last=1 if n >= 1 else None)


def _build_317ii(params: dict) -> Instance:
    # same forcing argument as above, with 4(x^2+y)-1 in place of
    # 2(x^2+y)+1, pins the cycle to start 0 and end 1
    return _circle(_range_ground(0, params["n"]), _clause("prime_shift", "square_plus", 4, -1),
                   first=0, last=1)


_OPS = {0: "sum", 1: "diff"}
_TARGETS = {0: "S", 1: "T"}


def _build_thm16(params: dict) -> Instance:
    q = params["q"]
    op = _OPS[params["op"]]
    target = _TARGETS[params["target"]]
    f = factorize(q)
    if q % 2 == 0 or len(f.pairs) != 1:
        raise ValueError(f"q must be an odd prime power, got {q}")
    spec = field_spec_for(q)
    kind = "quadratic_residue_mod" if target == "S" else "quadratic_nonresidue_mod"
    # below 14 the generator search may come up empty; outcomes are still
    # attempted and recorded either way
    return Instance(
        GroundSet(spec, tuple(sorted(field_view(spec).squares))), CIRCULAR,
        Constraint((_clause(kind, op, q),)),
        note="" if q > 13 else "guaranteed only above 13",
        mode="qr",
    )


# --- sweep and oracle policies -------------------------------------------------
# A sweep maps (lo, hi, seed) to the params of one campaign, in record order;
# an oracle gives the small params that are compared with brute force.


def _int_sweep(with_first: bool, min_n: int = 3, nonzero: bool = False):
    """Integer sets of size n: every subset of a small window while n is
    small, three seeded samples above that."""
    window = 2 if nonzero else 4
    size = len(_window(window, nonzero))

    def sweep(lo, hi, seed):
        for n in range(max(lo, min_n), hi + 1):
            if n <= 7 and n <= size:
                cases = [{"n": n, "m": window, "subset": si} for si in range(comb(size, n))]
                firsts = range(n)
            else:
                cases = [{"n": n, "seed": sd + seed} for sd in range(3)]
                firsts = {0, n // 2, n - 1}  # set order, which the records keep
            for base in cases:
                if with_first:
                    yield from ({**base, "first": fi} for fi in firsts)
                else:
                    yield base
    return sweep


def _group_sweep(sizes_from: int, with_first: bool):
    """Subsets of the finite abelian groups of order m: all of them, with
    every designated first, in small cyclic groups, seeded samples else.
    The full-group size n = m is named once per seed, and every seed gives
    the same instance, the whole group; run_instance searches it once."""
    def sweep(lo, hi, seed):
        for m in range(max(lo, 2), hi + 1):
            for g, moduli in enumerate(_GROUPS_BY_ORDER.get(m, [])):
                if g == 0 and m <= _EXHAUSTIVE_GROUP_ORDER:
                    for n in range(sizes_from, m + 1):
                        for si in range(comb(m, n)):
                            base = {"m": m, "g": g, "n": n, "subset": si}
                            if with_first:
                                yield from ({**base, "first": fi} for fi in range(n))
                            else:
                                yield base
                else:
                    sizes = list(range(sizes_from, min(m, 9) + 1))
                    if m > 2 and m >= sizes_from:
                        sizes.append(m)  # the full-group instance
                    for n in sorted(set(sizes)):
                        for sd in _GROUP_SEEDS:
                            p = {"m": m, "g": g, "n": n, "seed": sd + seed}
                            if with_first:
                                p["first"] = 0
                            yield p
    return sweep


def _group_oracle(pairs, with_first: bool, cap: int = 8):
    out = []
    for m, n in pairs:
        for si in range(min(cap, comb(m, n))):
            base = {"m": m, "g": 0, "n": n, "subset": si}
            if with_first:
                for fi in range(n) if m <= 6 else (0,):
                    out.append({**base, "first": fi})
            else:
                out.append(base)
    return out


def _n_sweep(start: int = 1):
    return lambda lo, hi, seed: ({"n": n} for n in range(max(lo, start), hi + 1))


def _n_oracle(ns=range(1, 7)):
    return lambda: [{"n": n} for n in ns]


def _odd_primes_in(lo, hi):
    return [p for p in primes_upto(hi).primes() if p >= lo and p % 2] if hi > 2 else []


def _odd_prime_sweep(lo, hi, seed):
    return ({"p": p} for p in _odd_primes_in(lo, hi))


def _odd_prime_oracle():
    return [{"p": 11}, {"p": 13}]


def _prime_powers_in(lo, hi):
    return [q for q in range(max(lo, 2), hi + 1) if len(factorize(q).pairs) == 1]


@dataclass(frozen=True)
class _Family:
    build: object  # params -> Instance
    iter_params: object  # sweep policy: (lo, hi, seed) -> params
    oracle: object  # oracle policy: () -> params
    describe: str


_REGISTRY: dict[str, _Family] = {
    "3.1": _Family(
        _build_31, _int_sweep(True),
        lambda: [{"n": n, "m": 2, "subset": si, "first": fi}
                 for n in (3, 4, 5) for si in range(len(_window_subsets(2, n)))
                 for fi in range(n)],
        "linear distance rainbow with designated first element"),
    "3.2": _Family(
        _build_32, _int_sweep(False),
        lambda: [{"n": n, "m": 2, "subset": si}
                 for n in (4, 5) for si in range(len(_window_subsets(2, n)))],
        "distance-rainbow cycle implies one with extremes adjacent"),
    "3.3": _Family(
        _build_33, _group_sweep(2, True),
        lambda: _group_oracle([(5, 3), (5, 4), (6, 3), (7, 4)], True)
        + [{"m": 4, "g": 1, "n": 4, "subset": 0, "first": 0}],
        "linear difference rainbow over a finite abelian group"),
    "3.4i": _Family(
        lambda p: _build_34(p, diff=False), _group_sweep(3, False),
        lambda: _group_oracle([(6, 3), (6, 4), (7, 3), (7, 5)], False),
        "sum-rainbow cycle over a finite abelian group"),
    "3.4ii": _Family(
        lambda p: _build_34(p, diff=True), _group_sweep(4, False),
        lambda: _group_oracle([(6, 4), (7, 4), (8, 5)], False),
        "difference-rainbow cycle over a finite abelian group"),
    "3.5i": _Family(
        _build_35i, _group_sweep(4, False),
        lambda: _group_oracle([(5, 4), (7, 4), (8, 5)], False),
        "x + 2y rainbow cycle over groups of order coprime to 3"),
    "3.5ii": _Family(
        lambda p: replace(_group_cycle(p, "weighted"), mode="pair"),
        _group_sweep(4, False),
        lambda: _group_oracle([(5, 4), (6, 4), (7, 5)], False, cap=6),
        "paired numberings with a_i + 2 b_i distinct"),
    "3.6": _Family(
        lambda p: _group_cycle(p, "triple"), _group_sweep(4, False),
        lambda: _group_oracle([(6, 4), (7, 4), (7, 5)], False)
        + [{"m": 4, "g": 1, "n": 4, "subset": 0}],
        "consecutive-triple-sum rainbow cycle over a finite abelian group"),
    "3.7i": _Family(
        _build_37i, lambda lo, hi, seed: ({"q": q} for q in _prime_powers_in(lo, hi) if q > 7),
        lambda: [{"q": q} for q in (5, 7)],
        "cycle of all field elements with primitive sums"),
    "3.7ii-sums": _Family(
        _odd_prime_cycle(_half_range, "primitive_root_mod", "sum", 19),
        _odd_prime_sweep, _odd_prime_oracle,
        "cycle of 1..(p-1)/2 with sums primitive roots mod p"),
    "3.7ii-diffs": _Family(
        _odd_prime_cycle(_half_range, "primitive_root_mod", "diff", 13),
        _odd_prime_sweep, _odd_prime_oracle,
        "cycle of 1..(p-1)/2 with differences primitive roots mod p"),
    "3.8-sums": _Family(
        _odd_prime_cycle(_squares_mod, "primitive_root_mod", "sum", 19),
        _odd_prime_sweep, _odd_prime_oracle,
        "cycle of the quadratic residues with primitive sums"),
    "3.8-diffs": _Family(
        _odd_prime_cycle(_squares_mod, "primitive_root_mod", "diff", 13),
        _odd_prime_sweep, _odd_prime_oracle,
        "cycle of the quadratic residues with primitive differences"),
    "3.9i-sums": _Family(
        _odd_prime_cycle(_half_range, "quadratic_residue_mod", "square_plus", 11),
        _odd_prime_sweep, _odd_prime_oracle,
        "cycle of 1..(p-1)/2 with x^2+y quadratic residues"),
    "3.9i-diffs": _Family(
        _odd_prime_cycle(_half_range, "quadratic_residue_mod", "square_minus", 11),
        _odd_prime_sweep, _odd_prime_oracle,
        "cycle of 1..(p-1)/2 with x^2-y quadratic residues"),
    "3.9ii-sums": _Family(
        _odd_prime_cycle(_half_range, "primitive_root_mod", "square_plus", 13),
        _odd_prime_sweep, _odd_prime_oracle,
        "cycle of 1..(p-1)/2 with x^2+y primitive roots"),
    "3.9ii-diffs": _Family(
        _odd_prime_cycle(_half_range, "primitive_root_mod", "square_minus", 13),
        _odd_prime_sweep, _odd_prime_oracle,
        "cycle of 1..(p-1)/2 with x^2-y primitive roots"),
    "3.10": _Family(
        _build_310,
        lambda lo, hi, seed: ({"q": q, "a0": a0}
                              for q in _prime_powers_in(lo, hi) if q > 7 for a0 in range(q)),
        lambda: [{"q": q, "a0": a0} for q in (5, 7, 8) for a0 in (0, 1, 2)],
        "cycle of nonzero field elements with a0 + xy primitive"),
    "3.11": _Family(
        _build_311, _n_sweep(),
        lambda: [{"n": n} for n in range(1, 7)] + [{"n": 7, "fixture": 90}],
        "cycle of 0..n pinned (0,..,n), sums coprime to n-1 and n+1"),
    "3.11-guess": _Family(
        lambda p: _build_311(p, guess=True), _n_sweep(), _n_oracle(),
        "guessed variant: sums coprime to 2n-1 and 2n+1"),
    "3.12i": _Family(
        lambda p: _build_312(p, diff=False), _int_sweep(False, nonzero=True),
        lambda: [{"n": n, "m": 2, "subset": si}
                 for n in (3, 4) for si in range(len(_nonzero_window_subsets(2, n)))]
        + [{"n": 5, "seed": 0}, {"n": 6, "seed": 0}],
        "cycle of nonzero integers, sums and products both rainbow"),
    "3.12ii": _Family(
        lambda p: _build_312(p, diff=True), _int_sweep(False, min_n=4, nonzero=True),
        lambda: [{"n": 4, "m": 2, "subset": si}
                 for si in range(len(_nonzero_window_subsets(2, 4)))] + [{"n": 5, "seed": 1}],
        "cycle of nonzero integers, differences and products both rainbow"),
    "3.13": _Family(
        _n_cycle(0, _clause("twin_index", "sum")), _n_sweep(), _n_oracle(),
        "cycle of 0..n with twin-prime-index sums"),
    "3.14": _Family(
        _n_cycle(0, _clause("sophie_germain_index", "sum"), lambda n: n >= 3),
        _n_sweep(3), _n_oracle(range(3, 7)),
        "cycle of 0..n with sums k having 6k-1, 12k-1 prime"),
    "3.15i": _Family(
        _n_cycle(0, _clause("prime_shift", "abs_diff_and_sum", 2, 1)), _n_sweep(), _n_oracle(),
        "cycle of 0..n, both |x-y| and x+y of half-prime form"),
    "3.15ii": _Family(
        _n_cycle(0, _clause("prime_shift", "abs_square_diff", 2, 1),
                 lambda n: n >= 1 and n not in (2, 4)),
        _n_sweep(), _n_oracle(),
        "cycle of 0..n with |x^2-y^2| of half-prime form"),
    "3.16": _Family(
        _build_316, _n_sweep(), _n_oracle(),
        "cycle of 0..n pinned (0,..,1) with x^2+y of half-prime form"),
    "3.17i": _Family(
        _n_cycle(0, _clause("prime_shift", "square_plus", 4, 1)), _n_sweep(), _n_oracle(),
        "cycle of 0..n with x^2+y of the form (p-1)/4, p = 1 mod 4"),
    "3.17ii": _Family(
        _build_317ii, _n_sweep(), _n_oracle(),
        "pinned cycle of 0..n with x^2+y of the form (p+1)/4, p = 3 mod 4"),
    "3.18a": _Family(
        _n_cycle(1, _clause("prime", "product_minus_one"), lambda n: n > 5 and n != 13,
                 "needs n > 5 and n != 13"),
        _n_sweep(), _n_oracle((6, 7)),
        "cycle of 1..n with xy - 1 prime"),
    "3.18b": _Family(
        _n_cycle(1, _clause("prime", "two_product_minus_one"), lambda n: n > 1, "needs n > 1"),
        _n_sweep(), _n_oracle(range(2, 8)),
        "cycle of 1..n with 2xy - 1 prime"),
    "3.18c": _Family(
        _n_cycle(1, _clause("prime", "two_product_plus_one"), lambda n: n >= 1 and n != 4),
        _n_sweep(), _n_oracle((1, 2, 3, 5, 6, 7)),
        "cycle of 1..n with 2xy + 1 prime"),
    "filz": _Family(
        _n_cycle(1, _clause("prime", "sum"), lambda n: n >= 2 and n % 2 == 0,
                 "stated for even n only"),
        lambda lo, hi, seed: ({"n": n} for n in range(max(lo, 2), hi + 1) if n % 2 == 0),
        lambda: [{"n": n} for n in (2, 4, 6)],
        "cycle of 1..n (even) with prime sums"),
    "thm1.6-range": _Family(
        _build_thm16,
        lambda lo, hi, seed: ({"q": q, "op": op, "target": t}
                              for q in _odd_primes_in(lo, hi) for op in (0, 1) for t in (0, 1)),
        lambda: [{"q": q, "op": op, "target": t}
                 for q in (5, 7, 13) for op in (0, 1) for t in (0, 1)],
        "square-class cycles via generator powers, all four targets"),
}

CONJECTURE_IDS = tuple(sorted(_REGISTRY))


def describe(conjecture_id: str) -> str:
    return _REGISTRY[conjecture_id].describe


def instance(conjecture_id: str, params: dict) -> Instance:
    """Materialize one search instance from its id and integer parameters."""
    fam = _REGISTRY.get(conjecture_id)
    if fam is None:
        raise ValueError(
            f"unknown conjecture id {conjecture_id!r}; known: {', '.join(CONJECTURE_IDS)}"
        )
    return fam.build(dict(params))


def iter_params(conjecture_id: str, lo: int, hi: int, seed: int = 0) -> list[dict]:
    """The params of a campaign over [lo, hi], in record order."""
    fam = _REGISTRY.get(conjecture_id)
    if fam is None:
        raise ValueError(f"unknown conjecture id {conjecture_id!r}")
    return list(fam.iter_params(lo, hi, seed))


def oracle_params(conjecture_id: str) -> list[dict]:
    """Small-instance parameter slices (ground sets of size <= 7) used for
    oracle equivalence testing against brute force."""
    return list(_REGISTRY[conjecture_id].oracle())


# --- running ---------------------------------------------------------------------


def _witness_coords(spec, elements) -> list:
    return [element_coords(spec, x) for x in elements]


def _run_search(cid: str, params: dict, inst: Instance, budget: int,
                constraint: Constraint | None = None, nodes: int = 0, ms: int = 0,
                note: str = "") -> VerificationRecord:
    """Search, then turn the outcome into a record: the runner of plain
    existence questions, and the one search-to-record step of the others,
    which pass another constraint, the cost already spent and a note.
    search() re-checks the witness it returns.  Where it spends its budget
    on a sequencing of a whole group, the symmetric walk gets as many steps."""
    if constraint is None:
        constraint = inst.constraint
    out = search(inst.ground, inst.shape, constraint, budget)
    nodes, ms = nodes + out.nodes, ms + out.elapsed_ms
    if out.status == "budget" and _is_sequencing(inst, constraint):
        rec = _symmetric_record(cid, params, inst, constraint, budget, nodes, ms, note)
        if rec is not None:
            return rec
    witness = None
    if out.status == "witness":
        witness = _witness_coords(inst.ground.spec, out.witness.elements)
    return VerificationRecord(cid, params, out.status, witness, nodes, ms, note=note)


def _is_sequencing(inst: Instance, constraint: Constraint) -> bool:
    """Whether the instance asks for a line through a whole group with one
    involution (even order, cyclic Sylow 2-subgroup) with one plain diff
    clause: a sequencing, of which Gordon's theorem says one exists."""
    ground = inst.ground
    return (inst.shape == LINEAR and constraint.clauses == (RainbowClause("diff"),)
            and _is_whole_group(ground) and len(ground) % 2 == 0
            and sylow2_cyclic(ground.spec))


def _symmetric_record(cid: str, params: dict, inst: Instance, constraint: Constraint,
                      cap: int, nodes: int, ms: int, note: str) -> VerificationRecord | None:
    """The witness record of symmetric_sequencing's walk of at most cap steps,
    translated onto the constraint's pins; None where the walk finds none or
    the pins differ by something other than the involution z, the difference
    of every symmetric arrangement's ends."""
    spec = inst.ground.spec
    z = element_from_coords(spec, [m // 2 if m % 2 == 0 else 0 for m in spec.moduli])
    first, last = constraint.first, constraint.last
    if first is None and last is not None:
        first = group_sub(spec, last, z)
    if last is not None and last != group_add(spec, first, z):
        return None
    t0 = time.perf_counter()
    arr, steps = symmetric_sequencing(spec, cap)
    if arr is None:
        return None
    if first is not None:
        arr = replace(arr, elements=group_add_all(spec, arr.elements, [first] * len(arr)))
    report = replace(inst, constraint=constraint).check(arr)
    if not report.ok:
        raise RuntimeError(
            f"symmetric_sequencing gave an invalid arrangement: {report.first.message}")
    ms += int((time.perf_counter() - t0) * 1000)
    return VerificationRecord(cid, params, "witness", _witness_coords(spec, arr.elements), nodes,
                              ms, note=note, method="symmetric", steps=steps)


# label tries of the lex-first pair walk on a whole group.  Over every
# whole group the 3.5ii sweep names (orders 4-36) the walk finds a pairing
# within 5,447 tries (whole Z/36), or none in 10**6 (whole Z/6 x Z/6 and
# Z/3 x Z/12), and b = -a pairs every whole group
_WHOLE_GROUP_PAIR_TRIES = 10**5


def _run_pair(cid: str, params: dict, inst: Instance, budget: int) -> VerificationRecord:
    """The lex-first walk, of at most _WHOLE_GROUP_PAIR_TRIES tries on a
    whole group; where it runs out there, b = -a, whose labels
    a_i - 2 a_i = -a_i are all distinct."""
    whole = _is_whole_group(inst.ground)
    tries = min(budget, _WHOLE_GROUP_PAIR_TRIES) if whole else budget
    out = search_pair_numbering(inst.ground, tries)
    spec = inst.ground.spec
    a = tuple(sorted(inst.ground.elements))
    note = "witness holds both numberings, a then b"
    if out.status == "witness":
        b = out.witness.elements
    elif out.status == "budget" and whole:
        b = tuple(group_neg_all(spec, a))
        note += "; b = -a"
    else:
        return VerificationRecord(cid, params, out.status, None, out.nodes, out.elapsed_ms)
    if not check_pair_numbering(spec, a, b):
        raise RuntimeError(f"search_pair_numbering produced an invalid numbering: a = {a}, b = {b}")
    return VerificationRecord(cid, params, "witness", _witness_coords(spec, a + b), out.nodes,
                              out.elapsed_ms, note=note)


def _run_two_phase(cid: str, params: dict, inst: Instance, budget: int) -> VerificationRecord:
    free = _run_search(cid, params, inst, budget)
    if free.status == "budget":
        return free
    if free.status == "exhausted":
        return replace(free, status="skipped-precondition",
                       note="no unpinned witness; implication is vacuous")
    rec = _run_search(cid, params, inst, budget, inst.pinned_constraint,
                      free.nodes, free.elapsed_ms)
    if rec.status == "exhausted":
        return replace(rec, note="unpinned witness exists but no pinned one: implication fails")
    return rec


def _run_qr(cid: str, params: dict, inst: Instance, budget: int) -> VerificationRecord:
    t0 = time.perf_counter()
    arr = qr_cycle(params["q"], _OPS[params["op"]], _TARGETS[params["target"]])
    ms = int((time.perf_counter() - t0) * 1000)
    if arr is None:
        # the construction does not apply, which says nothing about
        # existence: the exact search decides
        return _run_search(cid, params, inst, budget, ms=ms,
                           note="no generator with the shifted square in the target class")
    report = inst.check(arr)
    if not report.ok:
        raise RuntimeError(f"qr_cycle produced an invalid arrangement: {report.first.message}")
    return VerificationRecord(cid, params, "witness",
                              _witness_coords(arr.spec, arr.elements), 0, ms)


# Instance.mode -> its runner, (id, params, instance, budget) -> record; each
# runner re-checks a witness before recording it
_RUNNERS = {"search": _run_search, "pair": _run_pair, "two-phase": _run_two_phase,
            "qr": _run_qr}


def _is_whole_group(ground: GroundSet) -> bool:
    spec = ground.spec
    return isinstance(spec, CyclicProduct) and len(ground) == group_order(spec)


# (conjecture id, instance, budget) -> the record of its first run, for
# whole-group instances only: they are the ones a campaign names more than
# once (under every seed), and keeping every instance would grow the
# process for no repeat
_WHOLE_GROUP_ANSWERS: dict[tuple, VerificationRecord] = {}


def run_instance(conjecture_id: str, params: dict,
                 budget: int = DEFAULT_BUDGET) -> VerificationRecord:
    """Run one instance to a self-contained record.  Witnesses are always
    re-checked before being recorded.  An instance whose ground is a whole
    finite group is the same whatever seed named it, so it is answered once
    per process: a later call gets the first record, with its own params
    and the first run's nodes and elapsed_ms."""
    inst = instance(conjecture_id, params)
    if not inst.precondition_ok:
        return VerificationRecord(
            conjecture_id, params, "skipped-precondition", None, 0, 0, note=inst.note
        )
    run = _RUNNERS[inst.mode]
    if not _is_whole_group(inst.ground):
        return run(conjecture_id, params, inst, budget)
    key = (conjecture_id, inst, budget)
    rec = _WHOLE_GROUP_ANSWERS.get(key)
    if rec is None:
        rec = _WHOLE_GROUP_ANSWERS[key] = run(conjecture_id, params, inst, budget)
        return rec
    return replace(rec, params=params)


def run_counterexample(cid: str, params: dict,
                       budget: int = DEFAULT_BUDGET) -> VerificationRecord:
    """run_instance without the precondition gate, for `permlab fixtures`:
    a known impossibility, such as an exceptional sign pattern of 3.12i or
    3.12ii, lies outside its conjecture's precondition, and its exhaustion
    is what it shows."""
    inst = instance(cid, params)
    return _RUNNERS[inst.mode](cid, params, inst, budget)


def verify_range(conjecture_id: str, lo: int, hi: int, *,
                 budget: int = DEFAULT_BUDGET, jobs: int = 1, seed: int = 0,
                 skip_keys: set | None = None):
    """Yield VerificationRecords for the family's instances over [lo, hi],
    in deterministic instance order regardless of worker count.  Keys in
    skip_keys (resume) are not re-searched."""
    plan = [
        params for params in iter_params(conjecture_id, lo, hi, seed)
        if not skip_keys or record_key(conjecture_id, params) not in skip_keys
    ]
    # the pool forks all its workers at once, so it gets no more of them
    # than there are instances or processors
    workers = min(jobs, len(plan), os.cpu_count() or 1)
    if workers <= 1:
        for params in plan:
            yield run_instance(conjecture_id, params, budget)
        return
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(run_instance, conjecture_id, params, budget) for params in plan]
        for fut in futures:
            yield fut.result()


# --- stored fixtures --------------------------------------------------------------


@dataclass(frozen=True)
class GoldenFixture:
    name: str
    conjecture: str
    params: dict
    elements: tuple

    def arrangement(self) -> Arrangement:
        inst = instance(self.conjecture, self.params)
        return Arrangement(inst.ground.spec, inst.shape, self.elements)

    def passes(self) -> bool:
        return instance(self.conjecture, self.params).check(self.arrangement()).ok


def golden_fixtures() -> list[GoldenFixture]:
    """Stored witness arrangements, replayed against their catalog instances."""
    return [
        GoldenFixture("sums-primitive-mod11", "3.7i", {"q": 11},
                      (0, 6, 7, 1, 5, 3, 10, 8, 9, 4, 2)),
        GoldenFixture("squareplus-primitive-mod23", "3.9ii-sums", {"p": 23},
                      (1, 6, 7, 11, 4, 5, 3, 8, 10, 9, 2)),
        GoldenFixture("squareminus-primitive-mod23", "3.9ii-diffs", {"p": 23},
                      (1, 9, 7, 5, 11, 10, 3, 2, 6, 8, 4)),
        GoldenFixture("products-primitive-mod11", "3.10", {"q": 11, "a0": 10},
                      (1, 9, 2, 4, 5, 8, 10, 3, 6, 7)),
        GoldenFixture("absdiffsum-halfprime-n9", "3.15i", {"n": 9},
                      (0, 1, 2, 3, 5, 4, 7, 8, 6, 9)),
        GoldenFixture("squarediff-halfprime-n5", "3.15ii", {"n": 5},
                      (0, 1, 4, 5, 2, 3)),
        GoldenFixture("halfprime-chain-n20", "3.16", {"n": 20},
                      (0, 3, 12, 9, 15, 18, 6, 20, 19, 14, 13, 4, 2, 7, 16, 17,
                       11, 10, 5, 8, 1)),
        GoldenFixture("quarterplus-n9", "3.17i", {"n": 9},
                      (0, 1, 2, 3, 4, 6, 9, 7, 8, 5)),
        GoldenFixture("quarterminus-n9", "3.17ii", {"n": 9},
                      (0, 3, 6, 9, 2, 4, 5, 8, 7, 1)),
        GoldenFixture("products-prime-n23", "3.18a", {"n": 23},
                      (1, 6, 23, 10, 9, 22, 11, 18, 13, 14, 21, 2, 15, 4, 17,
                       16, 5, 12, 7, 20, 19, 8, 3)),
        GoldenFixture("six-primes-free", "3.2", {"golden": 1},
                      (11, 13, 29, 17, 23, 19)),
        GoldenFixture("six-primes-pinned", "3.2", {"golden": 2},
                      (11, 19, 17, 13, 23, 29)),
    ]


def counterexample_fixtures() -> list[tuple[str, dict, str]]:
    """Instances with a known definite verdict: (id, params, expected status).
    All but the pinned 3.11 entry are expected-exhausted impossibilities."""
    out: list[tuple[str, dict, str]] = []
    out.append(("3.3", {"fixture": 1}, "exhausted"))
    # 3.12 exceptional sign patterns on concrete integer sets
    subsets4 = _nonzero_window_subsets(2, 4)
    out.append(("3.12i", {"n": 4, "m": 2, "subset": subsets4.index((-2, -1, 1, 2))},
                "exhausted"))
    subsets5 = _nonzero_window_subsets(3, 5)
    out.append(("3.12i", {"n": 5, "m": 3, "subset": subsets5.index((-2, -1, 1, 2, 3))},
                "exhausted"))
    subsets6 = _nonzero_window_subsets(3, 6)
    out.append(("3.12i", {"n": 6, "m": 3,
                          "subset": subsets6.index((-3, -2, -1, 1, 2, 3))},
                "exhausted"))
    out.append(("3.12ii", {"n": 4, "m": 2, "subset": subsets4.index((-2, -1, 1, 2))},
                "exhausted"))
    # sums of a 0..7 cycle cannot all be coprime to 90, as printed; the
    # conjecture's own condition for n = 7 is recorded alongside
    out.append(("3.11", {"n": 7, "fixture": 90}, "exhausted"))
    out.append(("3.11", {"n": 7}, "witness"))
    return out

