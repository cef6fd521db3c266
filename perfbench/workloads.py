"""The make-up of each workload, and the plan one round of it runs.

A plan is built from freshly imported permlab modules and the workload
seed.  It is a list of Items, the answers of one round, in the order they
are produced.  Every workload has the same number of items for every seed,
and the items that reproduce a known program fault do not depend on the
seed, so the share of failed answers is the same in every run.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from math import gcd

import oracle as O

# (catalog id, from, to) ranges; `from`/`to` are the family's primary
# parameter, as for `permlab verify --from --to`.
PREDICATE_CIRCLES = (
    ("3.13", 1, 28), ("3.14", 3, 28), ("3.15i", 1, 28), ("3.15ii", 1, 28),
    ("3.16", 1, 28), ("3.17i", 1, 28), ("3.17ii", 1, 28), ("3.18a", 6, 29),
    ("3.18b", 2, 28), ("3.18c", 1, 28), ("filz", 2, 40),
)
RAINBOW_GROUPS = (
    ("3.3", 9, 36), ("3.4i", 9, 36), ("3.4ii", 9, 36), ("3.5i", 9, 36),
    ("3.6", 9, 36), ("3.12i", 6, 14), ("3.12ii", 6, 14),
)
FIELD_PREDICATES = (
    ("3.7i", 8, 128), ("3.8-sums", 3, 150), ("3.8-diffs", 3, 150),
    ("3.9i-sums", 3, 150), ("3.9i-diffs", 3, 150), ("3.9ii-sums", 3, 150),
    ("3.9ii-diffs", 3, 150), ("3.10", 8, 32), ("thm1.6-range", 3, 61),
)
# library searches with two `triple` clauses over Z/m: (m, ground size,
# shape, modulus of the second clause).  Each has an arrangement.
TWO_TRIPLE_CALLS = ((7, 5, "circular", 6), (10, 8, "circular", 8), (11, 9, "linear", 9))
# construction sizes: about CONSTRUCTION_SIZE elements, plus a seeded
# offset below CONSTRUCTION_JITTER
CONSTRUCTION_SIZE = 50_000
CONSTRUCTION_JITTER = 1_000

BUDGETS = {
    "predicate-circles": 10_000,
    "rainbow-groups": 10_000,
    "field-predicates": 20_000,
}

FAULT_QR = "qr-exhausted"  # run_instance's qr mode says exhausted when qr_cycle gives None
FAULT_TRIPLE = "two-triple"  # search() enforces only the first triple clause


@dataclass
class Item:
    """One answer.  run(sink) produces it; check(output) -> Verdict runs
    after the round, outside the timed interval.  fault names the known
    program fault this answer reproduces, if any."""

    key: str
    run: object
    check: object
    fault: str | None = None


class ProgramInputs:
    """What the checks take from the program: sampled ground sets and the
    presentation of prime-power fields (see oracle.Catalog)."""

    def __init__(self, mods):
        self.mods = mods

    def sample(self, cid, params):
        ground = self.mods.conjectures.instance(cid, params).ground
        moduli = getattr(ground.spec, "moduli", None)
        return ground.elements, moduli

    def field_poly(self, q):
        return self.mods.algebra.field_spec_for(q).poly


def build_plan(workload: str, seed: int, mods) -> list[Item]:
    """The items of one round."""
    if workload == "constructions-large":
        return _construction_items(seed, mods)
    ranges = {
        "predicate-circles": PREDICATE_CIRCLES,
        "rainbow-groups": RAINBOW_GROUPS,
        "field-predicates": FIELD_PREDICATES,
    }[workload]
    budget = BUDGETS[workload]
    catalog = O.Catalog(ProgramInputs(mods))
    items = []
    for cid, lo, hi in ranges:
        for params in mods.conjectures.iter_params(cid, lo, hi, seed):
            items.append(_record_item(mods, catalog, cid, params, budget))
    if workload == "rainbow-groups":
        items += [_two_triple_item(mods, budget, *call) for call in TWO_TRIPLE_CALLS]
    random.Random(seed).shuffle(items)
    return items


def write_record(sink, rec) -> str:
    """Serialise and write one record as `permlab verify --out` does (the
    CLI does this inline in cmd_verify)."""
    line = json.dumps(rec.to_dict(), sort_keys=False)
    sink.write(line + "\n")
    sink.flush()
    return line


def _record_item(mods, catalog, cid, params, budget) -> Item:
    """A catalog instance taken to the JSONL record `permlab verify --out`
    writes for it."""
    run_instance = mods.conjectures.run_instance

    def run(sink):
        return write_record(sink, run_instance(cid, params, budget))

    qr = cid == "thm1.6-range"

    def check(line):
        return O.check_record(catalog, json.loads(line), budget, lex_applies=not qr)

    # the qr runner's false `exhausted` happens only at q <= 13 (see README)
    fault = FAULT_QR if qr and params["q"] <= 13 else None
    return Item(f"{cid} {json.dumps(params, sort_keys=True)}", run, check, fault)


def _two_triple_item(mods, budget, m, n, shape, modulus) -> Item:
    S = mods.search
    ground = mods.algebra.GroundSet(mods.algebra.CyclicProduct((m,)), tuple(range(n)))
    constraint = S.Constraint((S.RainbowClause("triple"), S.RainbowClause("triple", modulus)))
    g = O.Group((m,))
    spec = O.Spec(tuple(range(n)), shape == "circular", rainbow=(
        (3, lambda x, y, z: g.add(g.add(x, y), z)),
        (3, lambda x, y, z: g.add(g.add(x, y), z) % modulus),
    ))

    def run(sink):
        return S.search(ground, shape, constraint, budget)

    def check(out):
        if out.status == "budget":
            return O.Verdict(out.nodes >= budget, "budget")
        if out.status == "witness":
            why = O.valid(spec, out.witness.elements)
            return O.Verdict(why is None, "rederived", why or "")
        want = O.lex_first(spec)
        return O.Verdict(want is None, "oracle", f"exhausted, yet {want} is valid" if want else "")

    return Item(f"search Z/{m} n={n} {shape} triple+triple mod {modulus}", run, check, FAULT_TRIPLE)


# --- constructions ---------------------------------------------------------------------


def _construction_items(seed: int, mods) -> list[Item]:
    K = mods.constructions
    vectors = mods.algebra.IntegerVectors(2)
    rng = random.Random(seed)

    def size():
        return CONSTRUCTION_SIZE + rng.randrange(CONSTRUCTION_JITTER)

    def values(n):
        return sorted(rng.sample(range(-20 * n, 20 * n), n))

    def pairs(n):
        return sorted({(v, rng.randrange(-50, 50)) for v in values(n)})

    def odd_prime_at_least(n):
        n |= 1
        while not O.is_prime(n):
            n += 2
        return n

    def vec_add(x, y):
        return (x[0] + y[0], x[1] + y[1])

    zig, wsum, tsum, rep = values(size()), values(size()), values(size()), values(size())
    wvec, tvec = pairs(size()), pairs(size())
    n_prime, n_circ, n_mod, n_cop = size(), size(), size() & ~1, size() | 1
    p_rrc = odd_prime_at_least(size())
    q_qr = odd_prime_at_least(2 * size())

    def weighted(add):
        return (2, lambda x, y: add(x, add(y, y)))

    def triple(add):
        return (3, lambda x, y, z: add(add(x, y), z))

    def integer_add(x, y):
        return x + y

    def qr_spec(op, target):
        sign = 1 if op == "sum" else -1
        test = O.residue_square if target == "S" else O.residue_nonsquare

        def make():
            squares = tuple(sorted({x * x % q_qr for x in range(1, q_qr)}))
            return O.Spec(squares, True, lambda x, y: test(x + sign * y, q_qr))

        return make

    calls = [
        ("zigzag_distances", (zig,), lambda: O.Spec(
            tuple(zig), False, rainbow=((2, lambda x, y: abs(x - y)),), first=zig[0])),
        ("prime_circle_distinct_distances", (n_prime,), lambda: _prime_circle_spec(n_prime)),
        ("circular_distinct_diffs", (n_circ,), lambda: O.Spec(
            tuple(range(n_circ + 1)), True, rainbow=((2, lambda x, y: x - y),), first=0, last=n_circ)),
        ("mod_distinct_diffs", (n_mod,), lambda: O.Spec(
            tuple(range(1, n_mod + 1)), False, rainbow=((2, lambda x, y: (x - y) % n_mod),))),
        ("weighted_sum_cycle", (wsum,), lambda: O.Spec(tuple(wsum), True, rainbow=(weighted(integer_add),))),
        ("triple_sum_cycle", (tsum,), lambda: O.Spec(tuple(tsum), True, rainbow=(triple(integer_add),))),
        ("weighted_sum_cycle", (wvec, vectors), lambda: O.Spec(tuple(wvec), True, rainbow=(weighted(vec_add),))),
        ("triple_sum_cycle", (tvec, vectors), lambda: O.Spec(tuple(tvec), True, rainbow=(triple(vec_add),))),
        ("reduced_residue_cycle", (p_rrc,), lambda: O.Spec(
            tuple(range(1, p_rrc)), True, lambda x, y: gcd((x - y) % p_rrc, p_rrc) == 1,
            rainbow=((2, lambda x, y: (x - y) % p_rrc),))),
        ("qr_cycle", (q_qr, "sum", "S"), qr_spec("sum", "S")),
        ("qr_cycle", (q_qr, "diff", "T"), qr_spec("diff", "T")),
        ("coprime_circle_odd", (n_cop,), lambda: O.Spec(
            tuple(range(n_cop + 1)), True,
            lambda x, y: gcd(x + y, n_cop - 1) == 1 and gcd(x + y, n_cop + 1) == 1,
            first=0, last=n_cop)),
        ("repair_adjacent_sums", (rep,), lambda: O.Spec(tuple(rep), True, rainbow=((2, integer_add),))),
    ]
    return [_construction_item(K, name, args, make_spec) for name, args, make_spec in calls]


def _prime_circle_spec(n):
    ps = O.first_primes(n)
    return O.Spec(tuple(ps), True, rainbow=((2, lambda x, y: abs(x - y)),), first=2, last=ps[-1])


def _construction_item(K, name, args, make_spec) -> Item:
    builder = getattr(K, name)
    over = " over Z^2" if len(args) == 2 and name in ("weighted_sum_cycle", "triple_sum_cycle") else ""
    circular = name not in ("zigzag_distances", "mod_distinct_diffs")

    def run(sink):
        return builder(*args)

    def check(arr):
        if arr is None:
            return O.Verdict(False, "rederived", "no arrangement")
        if (arr.shape == "circular") != circular:
            return O.Verdict(False, "rederived", f"shape {arr.shape}")
        why = O.valid(make_spec(), arr.elements)
        return O.Verdict(why is None, "rederived", why or "")

    size = len(args[0]) if isinstance(args[0], list) else args[0]
    extra = "".join(f" {a}" for a in args[1:] if isinstance(a, str))
    return Item(f"{name}{over} n={size}{extra}", run, check)
