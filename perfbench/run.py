"""permlab benchmark: one workload, one process, one JSON result line.

    python3 perfbench/run.py --workload predicate-circles --seed 1 --seconds 28 --trace 0

Run from the root of a permlab source checkout; permlab is imported from
src/.  A run repeats whole rounds of the workload until --seconds have
passed.  Each round starts from a fresh import of permlab, as a campaign
in a new process would, so no cache of one round serves the next.  The
first round's answers are checked against oracle.py; every later round
must give the same answers.  With --trace 1, rounds alternate between
untraced and traced, and the run prints the per-layer figures of the
traced rounds and the tracing overhead; spans go to .perfbench_out/.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import resource
import statistics
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracle as O  # noqa: E402
import tracing as T  # noqa: E402
import workloads as W  # noqa: E402

WORKLOADS = ("predicate-circles", "rainbow-groups", "field-predicates", "constructions-large")
# the tail percentile of one answer's time, fixed per workload so that
# every run reports the same percentile (README, "Metrics")
TAIL_PERCENTILE = {
    "predicate-circles": 96,
    "rainbow-groups": 99,
    "field-predicates": 98,
    "constructions-large": 80,
}
MIN_SETUPS = 5
MODULES = ("conjectures", "search", "numtheory", "algebra", "constructions", "cli")


WRITE_RECORD = W.write_record


def forget_permlab():
    """Drop every permlab module, so the next import starts afresh."""
    for name in [m for m in sys.modules if m == "permlab" or m.startswith("permlab.")]:
        del sys.modules[name]
    gc.collect()


def import_permlab():
    package = importlib.import_module("permlab")
    mods = {name: importlib.import_module(f"permlab.{name}") for name in MODULES}
    return SimpleNamespace(package=package, **mods)


def setup(workload, seed, traced):
    """Import permlab and build the round's plan; returns the set-up time,
    which is what a campaign pays before its first answer."""
    forget_permlab()
    W.write_record = WRITE_RECORD  # drops a traced round's wrapper
    t0 = perf_counter()
    mods = import_permlab()
    tracer = None
    if traced:
        tracer = T.Tracer()
        tracer.install(mods, W)
    items = W.build_plan(workload, seed, mods)
    return perf_counter() - t0, mods, items, tracer


def digest(out):
    """What must repeat from round to round (timings dropped)."""
    if isinstance(out, str):
        rec = json.loads(out)
        rec.pop("elapsed_ms", None)
        return json.dumps(rec, sort_keys=True)
    if isinstance(out, BaseException):
        return f"{type(out).__name__}: {out}"
    if hasattr(out, "nodes"):
        wit = out.witness.elements if out.witness is not None else None
        return repr((out.status, out.nodes, wit))
    return hash((out.shape, out.elements)) if out is not None else None


def percentile(sorted_vals, pct):
    """Nearest-rank percentile."""
    k = max(0, math.ceil(pct / 100 * len(sorted_vals)) - 1)
    return sorted_vals[k]


def beyond(sorted_vals, pct):
    """How many values lie beyond the nearest-rank percentile."""
    return len(sorted_vals) - max(1, math.ceil(pct / 100 * len(sorted_vals)))


def answer_round(items, tracer, sink_path):
    """Produce every answer of one round: (outputs, answer times, round
    time).  An answer that raises is a program fault; its output is the
    exception."""
    outputs, times = [], []
    with open(sink_path, "w", encoding="utf-8") as sink:
        t_round = perf_counter()
        for i, item in enumerate(items):
            if tracer is not None:
                tracer.answer = i
            t0 = perf_counter()
            try:
                out = item.run(sink)
            except Exception as exc:
                out = exc
            times.append(perf_counter() - t0)
            outputs.append(out)
        elapsed = perf_counter() - t_round
    return outputs, times, elapsed


def check_answers(items, outputs):
    return [
        O.Verdict(False, "raised", digest(out)) if isinstance(out, BaseException) else item.check(out)
        for item, out in zip(items, outputs)
    ]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=28.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = HERE.parent
    if not (root / "src" / "permlab" / "__init__.py").is_file():
        print(f"error: no permlab sources under {root / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    out_dir = root / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    sink_path = out_dir / f"{args.workload}-seed{args.seed}.jsonl"
    span_path = out_dir / f"trace-{args.workload}-seed{args.seed}.jsonl"

    setups, round_s, traced_s, answer_s, layer = [], [], [], [], []
    item_s = None  # item_s[i]: the times of answer i in the untraced rounds
    attempted = failed = 0
    first = None  # digests and verdicts of the first round
    problems = []
    spans_fh = open(span_path, "w", encoding="utf-8") if args.trace else None
    t_begin = perf_counter()
    rnd = 0
    try:
        while rnd < 1 + args.trace or perf_counter() - t_begin < args.seconds:
            traced = bool(args.trace) and rnd % 2 == 1
            setup_s, mods, items, tracer = setup(args.workload, args.seed, traced)
            setups.append(setup_s)
            outputs, times, elapsed = answer_round(items, tracer, sink_path)
            if first is None:
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
                verdicts = check_answers(items, outputs)
                digests = [digest(o) for o in outputs]
                first = (digests, verdicts)
                problems += [f"{it.key}: {v.why}" for it, v in zip(items, verdicts) if not v.ok and it.fault is None]
                definite = sum(1 for d, v in zip(digests, verdicts) if v.ok and _definite(d, v))
                coverage = dict(sorted(Counter(v.how for v in verdicts).items()))
                per_round = len(items)
            for item, out, d0, v in zip(items, outputs, *first):
                if digest(out) != d0:
                    problems.append(f"{item.key}: answer changed between rounds")
                    failed += 1
                elif not v.ok:
                    failed += 1
            attempted += len(items)
            if traced:
                traced_s.append(elapsed)
                layer.append(tracer.figures())
                tracer.dump(spans_fh, rnd)
            else:
                round_s.append(elapsed)
                answer_s.extend(times)
                if item_s is None:
                    item_s = [[] for _ in times]
                for ts, t in zip(item_s, times):
                    ts.append(t)
            del outputs, mods, tracer, items
            # a second set-up per round, so that setup_s is a median of
            # samples spread over the whole run
            setups.append(setup(args.workload, args.seed, False)[0])
            rnd += 1
        while len(setups) < MIN_SETUPS:
            setups.append(setup(args.workload, args.seed, False)[0])
    finally:
        if spans_fh is not None:
            spans_fh.close()

    # The host's speed drifts by tens of per cent over tens of seconds, so
    # the timings average over the whole run: run_s is the mean round, and
    # the tail is taken over each answer's mean time over the untraced
    # rounds.  A tail needs ten answers beyond it; where a round has too
    # few answers for that (constructions-large), the tail is taken over
    # every answer time of every untraced round instead.  The median is
    # taken over every answer time, where a pause that hits a short answer
    # counts once rather than in its mean.
    per_answer = sorted(statistics.fmean(ts) for ts in item_s)
    answer_s.sort()
    tail = TAIL_PERCENTILE[args.workload]
    tail_over = per_answer if beyond(per_answer, tail) >= 10 else answer_s
    print(
        f"{args.workload} seed={args.seed}: {rnd} rounds of {per_round} answers, "
        f"failed per round {failed * per_round // attempted}, checks {coverage}, "
        f"p{tail} has {beyond(tail_over, tail)} of {len(tail_over)} "
        f"{'answer means' if tail_over is per_answer else 'answer times'} beyond it",
        file=sys.stderr,
    )
    for p in problems[:20]:
        print(f"  wrong: {p}", file=sys.stderr)

    if args.trace:
        metrics = {}
        for name, unit in T.LAYER_METRICS.items():
            if name == "trace.run_s":
                value = statistics.fmean(traced_s)
            elif name == "trace.overhead_pct":
                value = 100 * (statistics.fmean(traced_s) / statistics.fmean(round_s) - 1)
            else:
                value = statistics.median(f[name] for f in layer)
            metrics[name] = {"value": value, "unit": unit}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "run_s": {"value": statistics.fmean(round_s), "unit": "s"},
            "answer_ms_p50": {"value": 1e3 * statistics.median(answer_s), "unit": "ms"},
            "answer_ms_tail": {"value": 1e3 * percentile(tail_over, tail), "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "definite_answers": {"value": definite, "unit": "count"},
        }
    result = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


def _definite(d, v) -> bool:
    """Whether a checked first-round answer is a witness, an arrangement or
    an exhausted verdict (d is its digest)."""
    if v.how not in ("lex-first", "rederived", "oracle"):
        return False
    if isinstance(d, str) and d.startswith("{"):
        return json.loads(d)["status"] in ("witness", "exhausted")
    if isinstance(d, str):
        return d.startswith(("('witness'", "('exhausted'"))
    return d is not None


if __name__ == "__main__":
    sys.exit(main())
