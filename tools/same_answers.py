"""Check that two checkouts give the same campaign records.

    python3 tools/same_answers.py --parent ../permlab-parent --change . \
        [--seed 1 --seed 2]

For each checkout, one child process (run with PYTHONDONTWRITEBYTECODE=1)
imports permlab from <checkout>/src and the catalog ranges and budgets of
the predicate-circles, rainbow-groups and field-predicates workloads from
<checkout>/perfbench/workloads.py.  At every seed (default 1 and 2) it runs
each instance of those ranges through run_instance, as a benchmark round
does, and prints one line per record: the workload, the seed and the
record's to_dict() without elapsed_ms, the one field that two runs of the
same search may disagree on.  This process compares the two outputs per
workload and seed, prints the record counts and the first record and field
that differ, and exits 1 on any difference, 0 when every record is equal.

Each child also prints the records of `permlab fixtures`, one line per
golden fixture, with whether it passes(), and one per known impossibility,
run through run_counterexample at DEFAULT_BUDGET, without elapsed_ms; the
compare reports them as a group of their own.

Each child also prints one line per prime power q <= 4096 with exponent
>= 2: the modulus polynomial of F_q, the generator its tables are built
over and a sha1 of the exp table, so that the two checkouts' field tables
are compared with each other, not with a product of the checkout's own;
the compare reports them as the group "fields".

Each child also runs the kernel fences of <checkout>/tests/test_search.py:
the searches of _outcome_fence_searches(), _counted_fence_searches() (with
witness counting) and _DENSE_FENCE (at the fence's budget of 20,000
nodes).  It prints one line per search, keyed by a readable description,
with its status, nodes, first witness and witness count, and the compare
prints every fence search that differs, parent -> change; a difference
there also exits 1.

    python3 tools/same_answers.py --records CHECKOUT [--seed S ...]

prints the lines of one checkout, as each child does.  Like
tools/bench_pairs.py, this script imports nothing from permlab itself and
writes nothing in the checkouts.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

# workload -> the name of its (id, from, to) ranges in perfbench/workloads.py
WORKLOADS = {
    "predicate-circles": "PREDICATE_CIRCLES",
    "rainbow-groups": "RAINBOW_GROUPS",
    "field-predicates": "FIELD_PREDICATES",
}
SEEDS = (1, 2)


def _describe(ground, shape, constraint) -> str:
    """A readable key of one fence search: shape, ground, clauses, pins."""
    clauses = []
    for cl in constraint.clauses:
        if hasattr(cl, "kind"):
            clauses.append(f"rainbow {cl.kind}" + (f" mod {cl.modulus}" if cl.modulus else ""))
        else:
            a0 = f" a0={cl.a0!r}" if cl.a0 is not None else ""
            clauses.append(f"{cl.predicate.describe()} on {cl.labeler}{a0}")
    pins = "".join(f" {name}={pin!r}" for name, pin in
                   (("first", constraint.first), ("last", constraint.last)) if pin is not None)
    return f"{shape} {ground.spec!r} {list(ground.elements)} {' & '.join(clauses)}{pins}"


def fence_lines(root: Path) -> list:
    """The lines of one checkout's kernel fences: 'fence json' per search."""
    sys.path.insert(0, str(root / "tests"))
    import test_search
    from permlab.conjectures import instance
    from permlab.search import search

    if root not in Path(test_search.__file__).resolve().parents:
        raise SystemExit(f"imported {test_search.__file__}, not the tests of {root}")
    runs = [(f"outcome {_describe(g, shape, cons)} budget {budget}", g, shape, cons,
             {"budget": budget}) for g, shape, cons, budget in test_search._outcome_fence_searches()]
    runs += [(f"counted {_describe(g, shape, cons)}", g, shape, cons, {"count_witnesses": True})
             for g, shape, cons in test_search._counted_fence_searches()]
    for cid, params in test_search._DENSE_FENCE:
        inst = instance(cid, params)
        # at the budget of TestDenseOutcomeFence
        runs.append((f"dense {cid} {json.dumps(params)}", inst.ground, inst.shape,
                     inst.constraint, {"budget": 20000}))
    lines = []
    for name, ground, shape, cons, kwargs in runs:
        out = search(ground, shape, cons, **kwargs)
        doc = {"search": name, "status": out.status, "nodes": out.nodes,
               "witness": out.witness and list(out.witness.elements),
               "count": out.witness_count}
        lines.append(f"fence {json.dumps(doc)}")
    return lines


def fixture_lines(conjectures) -> list:
    """The lines of `permlab fixtures`: 'fixture json' per golden fixture
    and per known impossibility."""
    lines = []
    for g in conjectures.golden_fixtures():
        doc = {"conjecture": g.conjecture, "params": g.params, "golden": g.name,
               "passes": g.passes()}
        lines.append(f"fixture {json.dumps(doc)}")
    for cid, params, _ in conjectures.counterexample_fixtures():
        rec = conjectures.run_counterexample(cid, params, conjectures.DEFAULT_BUDGET).to_dict()
        del rec["elapsed_ms"]
        lines.append(f"fixture {json.dumps(rec)}")
    return lines


def field_lines(algebra, factorize) -> list:
    """The lines of the prime-power fields up to 4096: 'field json' per field."""
    lines = []
    for q in range(4, 4097):
        pairs = factorize(q).pairs
        if len(pairs) == 1 and pairs[0][1] >= 2:
            spec = algebra.field_spec_for(q)
            fv = algebra.field_view(spec)
            digest = hashlib.sha1(repr(fv.exp_table).encode()).hexdigest()
            doc = {"q": q, "poly": list(spec.poly), "generator": fv.generator, "exp_sha1": digest}
            lines.append(f"field {json.dumps(doc)}")
    return lines


def records(checkout: Path, seeds) -> list:
    """The lines of one checkout: 'workload seed record-json' per record."""
    root = checkout.resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import workloads
    from permlab import algebra, conjectures
    from permlab.numtheory import factorize

    if root not in Path(conjectures.__file__).resolve().parents:
        raise SystemExit(f"imported {conjectures.__file__}, not the permlab of {root}")
    lines = []
    for workload, name in WORKLOADS.items():
        budget = workloads.BUDGETS[workload]
        for seed in seeds:
            for cid, lo, hi in getattr(workloads, name):
                for params in conjectures.iter_params(cid, lo, hi, seed):
                    rec = conjectures.run_instance(cid, params, budget).to_dict()
                    del rec["elapsed_ms"]
                    lines.append(f"{workload} {seed} {json.dumps(rec)}")
    return (lines + fixture_lines(conjectures) + field_lines(algebra, factorize)
            + fence_lines(root))


def child_lines(checkout: Path, seeds) -> list:
    """records() of a checkout, run in a child process of its own."""
    proc = subprocess.run(
        [sys.executable, __file__, "--records", str(checkout.resolve()),
         *(f"--seed={s}" for s in seeds)],
        capture_output=True, text=True, env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
    )
    if proc.returncode != 0:
        raise SystemExit(f"{checkout}: records exited {proc.returncode}\n{proc.stderr}")
    return proc.stdout.splitlines()


# line kind -> the group its lines are compared as, apart from the workloads
_GROUPS = {"fixture": "fixtures", "field": "fields"}


def _grouped(lines) -> dict:
    """The records of an output of records(), by (workload, seed), the
    fixture records under ("fixtures", None) and the field lines under
    ("fields", None)."""
    out: dict = {}
    for line in lines:
        kind, rest = line.split(" ", 1)
        if kind == "fence":
            continue
        if kind in _GROUPS:
            key, rec = (_GROUPS[kind], None), rest
        else:
            seed, rec = rest.split(" ", 1)
            key = (kind, int(seed))
        out.setdefault(key, []).append(json.loads(rec))
    return out


def _short(value) -> str:
    text = json.dumps(value)
    return text if len(text) <= 60 else text[:57] + "..."


def first_difference(parent: list, change: list) -> str | None:
    """Where two record lists first differ: the record and its first field
    that differ, or the side with more records; None when they are equal."""
    for i, (p, c) in enumerate(zip(parent, change)):
        if p != c:
            key = next(k for k in [*p, *(k for k in c if k not in p)] if p.get(k) != c.get(k))
            name = f"F_{p['q']}" if "q" in p else f"{p.get('conjecture')} {_short(p.get('params'))}"
            return (f"record {i + 1} ({name}) differs first in {key!r}: "
                    f"{_short(p.get(key))} -> {_short(c.get(key))}")
    if len(parent) != len(change):
        more = "parent" if len(parent) > len(change) else "change"
        return f"the {more} has {abs(len(parent) - len(change))} more records"
    return None


def _fences(lines) -> dict:
    """The fence searches of an output of records(), by description."""
    out = {}
    for line in lines:
        if line.startswith("fence "):
            doc = json.loads(line[len("fence "):])
            out[doc.pop("search")] = doc
    return out


def _outcome(doc) -> str:
    if doc is None:
        return "absent"
    count = "" if doc["count"] is None else f", {doc['count']} counted"
    return f"{doc['status']}, {doc['nodes']} nodes, witness {_short(doc['witness'])}{count}"


def fence_report(parent_lines, change_lines) -> list:
    """One line for the kernel fences, then one per fence search that
    differs, parent -> change; nothing when neither side ran a fence."""
    parent, change = _fences(parent_lines), _fences(change_lines)
    if not (parent or change):
        return []
    moved = [name for name in [*parent, *(k for k in change if k not in parent)]
             if parent.get(name) != change.get(name)]
    report = [f"kernel fences: {len(parent)} parent and {len(change)} change searches; "
              + (f"{len(moved)} differ" if moved else "all equal")]
    report += [f"  {name}: {_outcome(parent.get(name))} -> {_outcome(change.get(name))}"
               for name in moved]
    return report


def compare(parent_lines, change_lines) -> tuple:
    """(report lines, whether every record and fence search is equal) of
    two outputs of records(): one report line per workload and seed, one
    for the fixtures, then fence_report()'s."""
    parent, change = _grouped(parent_lines), _grouped(change_lines)
    report = []
    same = True
    for workload, seed in [*parent, *(k for k in change if k not in parent)]:
        p, c = parent.get((workload, seed), []), change.get((workload, seed), [])
        diff = first_difference(p, c)
        same = same and diff is None
        group = workload if seed is None else f"{workload} seed {seed}"
        report.append(f"{group}: {len(p)} parent and {len(c)} change records; "
                      + ("all equal" if diff is None else diff))
    fences = fence_report(parent_lines, change_lines)
    same = same and not fences[1:]
    return report + fences, same


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, help="checkout of the parent commit")
    ap.add_argument("--change", type=Path, help="checkout of the change")
    ap.add_argument("--records", type=Path, help="only print the record lines of this checkout")
    ap.add_argument("--seed", type=int, action="append", help="repeatable; default: 1 and 2")
    args = ap.parse_args(argv)
    seeds = args.seed or SEEDS
    if args.records:
        print("\n".join(records(args.records, seeds)))
        return 0
    if not (args.parent and args.change):
        ap.error("--parent and --change are required")
    report, same = compare(child_lines(args.parent, seeds), child_lines(args.change, seeds))
    print("\n".join(report))
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
