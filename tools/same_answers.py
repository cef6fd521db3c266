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

    python3 tools/same_answers.py --records CHECKOUT [--seed S ...]

prints the lines of one checkout, as each child does.  Like
tools/bench_pairs.py, this script imports nothing from permlab itself and
writes nothing in the checkouts.
"""

from __future__ import annotations

import argparse
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


def records(checkout: Path, seeds) -> list:
    """The lines of one checkout: 'workload seed record-json' per record."""
    root = checkout.resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import workloads
    from permlab import conjectures

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
    return lines


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


def _grouped(lines) -> dict:
    out: dict = {}
    for line in lines:
        workload, seed, rec = line.split(" ", 2)
        out.setdefault((workload, int(seed)), []).append(json.loads(rec))
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
            return (f"record {i + 1} ({p.get('conjecture')} {_short(p.get('params'))}) differs "
                    f"first in {key!r}: {_short(p.get(key))} -> {_short(c.get(key))}")
    if len(parent) != len(change):
        more = "parent" if len(parent) > len(change) else "change"
        return f"the {more} has {abs(len(parent) - len(change))} more records"
    return None


def compare(parent_lines, change_lines) -> tuple:
    """(report lines, whether every record is equal) of two outputs of
    records(), one report line per workload and seed."""
    parent, change = _grouped(parent_lines), _grouped(change_lines)
    report = []
    same = True
    for workload, seed in [*parent, *(k for k in change if k not in parent)]:
        p, c = parent.get((workload, seed), []), change.get((workload, seed), [])
        diff = first_difference(p, c)
        same = same and diff is None
        report.append(f"{workload} seed {seed}: {len(p)} parent and {len(c)} change records; "
                      + ("all equal" if diff is None else diff))
    return report, same


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
