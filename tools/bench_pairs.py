"""Run alternating A/B pairs of the benchmark and write a BENCH_*.json.

    python3 tools/bench_pairs.py --parent ../permlab-parent --change . \
        --workload rainbow-groups \
        --topic "what the change does" --out BENCH_topic.json

Each side is a source checkout whose own perfbench/run.py is run from its
root, in a new process per run, as the benchmark's command runs it.  Pair i
runs with seed i; odd pairs run the parent first and even pairs the change
first, so that a drift of the host's speed falls on both sides alike.
Every workload gets PAIRS pairs, the fewest that can back a claimed gain.
The run length and, without --workload, the workloads are those of the
change's BENCHMARK.json.  With --traced W, one traced 10 s seed-1 run of
workload W per side is added.

The output holds topic, command, host and method, and per workload the
number of pairs, the median and quartiles of every metric on each side,
in how many pairs the change read better (in the metric's `better`
direction in the change's BENCHMARK.json), two verdicts per metric, and
every run.  `gain_holds`: the change read better in at least 9 of 10
pairs, and its median beats the parent's by more than the parent's
quartile spread.  `within_bound`: the change's median is not worse than
the parent's by more than the metric's `bound`, a fraction of the
parent's median.  This script
imports nothing from permlab and writes nothing in the checkouts but what
run.py itself writes (.perfbench_out/).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
RUN = "perfbench/run.py"
PAIRS = 10


def command(workload, seed, seconds, trace) -> list:
    return [RUN, "--workload", str(workload), "--seed", str(seed),
            "--seconds", f"{seconds:g}", "--trace", str(trace)]


def run_once(root: Path, workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    """One run of the checkout at root: the JSON result run.py prints last."""
    proc = subprocess.run(
        [sys.executable, *command(workload, seed, seconds, trace)],
        cwd=root, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{root}: {workload} seed {seed} exited {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def pair_order(pair: int) -> tuple:
    """Which side runs first in pair number `pair` (from 1)."""
    return SIDES if pair % 2 else SIDES[::-1]


def summarize(runs: list, better: dict, bound: dict) -> dict:
    """The per-workload block of a BENCH file from its runs, each
    {"seed", "first", "parent": result, "change": result}: per side the
    median and the quartiles (statistics.quantiles, n = 4) of every metric;
    per metric the number of pairs where the change read better in its
    direction, better[name] ("lower" or "higher"), and the verdicts
    gain_holds and within_bound (bound[name] is a fraction)."""
    names = list(runs[0]["parent"]["metrics"])

    def values(side, name):
        return [r[side]["metrics"][name]["value"] for r in runs]

    median, quartiles = {}, {}
    for side in SIDES:
        median[side] = {name: statistics.median(values(side, name)) for name in names}
        quartiles[side] = {name: statistics.quantiles(values(side, name), n=4) for name in names}
    # gain[name]: how far the change's median is better than the parent's
    sign = {name: 1 if better[name] == "lower" else -1 for name in names}
    gain = {name: sign[name] * (median["parent"][name] - median["change"][name]) for name in names}
    wins = {
        name: sum(sign[name] * (p - c) > 0
                  for p, c in zip(values("parent", name), values("change", name)))
        for name in names
    }
    return {
        "pairs": len(runs),
        "median": median,
        "quartiles": quartiles,
        "change_better_in_pairs": wins,
        "gain_holds": {
            name: 10 * wins[name] >= 9 * len(runs)
            and gain[name] > quartiles["parent"][name][2] - quartiles["parent"][name][0]
            for name in names
        },
        "within_bound": {
            name: -gain[name] <= bound[name] * abs(median["parent"][name]) for name in names
        },
        "runs": runs,
    }


def host() -> str:
    return (f"{os.cpu_count()} CPU {platform.system()}, "
            f"{platform.python_implementation()} {platform.python_version()}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, type=Path, help="checkout of the parent commit")
    ap.add_argument("--change", required=True, type=Path, help="checkout of the change")
    ap.add_argument("--workload", action="append", help="repeatable; default: every workload")
    ap.add_argument("--traced", help="add one traced seed-1 run of this workload per side")
    ap.add_argument("--topic", required=True)
    ap.add_argument("--out", required=True, type=Path)
    args = ap.parse_args(argv)

    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    benchmark = json.loads((roots["change"] / "BENCHMARK.json").read_text())
    seconds = benchmark["run_seconds"]
    better = {m["name"]: m["better"] for m in benchmark["end_to_end"]}
    bound = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    workloads = args.workload or [w["name"] for w in benchmark["workloads"]]
    out = {
        "topic": args.topic,
        "command": "python3 " + " ".join(command("W", "S", seconds, 0)),
        "host": host(),
        "method": "parent commit and change each run from its own checkout; seed = pair "
                  "number; odd pairs run the parent first, even pairs the change first",
        "workloads": {},
    }
    for workload in workloads:
        runs = []
        for pair in range(1, PAIRS + 1):
            run = {"seed": pair, "first": pair_order(pair)[0]}
            for side in pair_order(pair):
                run[side] = run_once(roots[side], workload, pair, seconds)
            runs.append({k: run[k] for k in ("seed", "first", *SIDES)})
            print(f"{workload} pair {pair}: run_s "
                  + " -> ".join(f"{run[s]['metrics']['run_s']['value']:.3f}" for s in SIDES),
                  file=sys.stderr)
        out["workloads"][workload] = summarize(runs, better, bound)
    if args.traced:
        out["traced"] = {"command": "python3 " + " ".join(command(args.traced, 1, 10, 1))}
        for side in SIDES:
            out["traced"][side] = run_once(roots[side], args.traced, 1, 10, trace=1)
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
