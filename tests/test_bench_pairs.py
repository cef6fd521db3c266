"""The summary tools/bench_pairs.py writes, on made-up runs: the benchmark
itself never runs here."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def _result(run_s, answers):
    return {
        "correct": True,
        "attempted": 10,
        "failed": 0,
        "metrics": {
            "run_s": {"value": run_s, "unit": "s"},
            "definite_answers": {"value": answers, "unit": "count"},
        },
    }


def _runs(parent, change):
    return [
        {"seed": i, "first": bench_pairs.pair_order(i)[0],
         "parent": _result(p, 7), "change": _result(c, 7)}
        for i, (p, c) in enumerate(zip(parent, change), start=1)
    ]


def test_median_quartiles_and_wins():
    parent = [2.0, 1.6, 1.8, 2.4, 1.9]
    change = [1.4, 1.7, 1.2, 1.5, 1.9]
    better = {"run_s": "lower", "definite_answers": "higher"}
    block = bench_pairs.summarize(_runs(parent, change), better)
    assert block["pairs"] == 5
    assert block["median"]["parent"]["run_s"] == 1.9
    assert block["median"]["change"]["run_s"] == 1.5
    # exclusive quartiles of 1.6, 1.8, 1.9, 2.0, 2.4
    assert block["quartiles"]["parent"]["run_s"] == pytest.approx([1.7, 1.9, 2.2])
    # pair 2 read higher and pair 5 the same: neither counts as better
    assert block["change_better_in_pairs"] == {"run_s": 3, "definite_answers": 0}
    assert [r["seed"] for r in block["runs"]] == [1, 2, 3, 4, 5]


def test_wins_follow_each_metric_direction():
    # more answers is better: the change wins where it reads higher
    runs = _runs([1.0, 1.0, 1.0], [1.0, 1.0, 1.0])
    for run, (p, c) in zip(runs, [(7, 9), (7, 5), (7, 8)]):
        run["parent"]["metrics"]["definite_answers"]["value"] = p
        run["change"]["metrics"]["definite_answers"]["value"] = c
    block = bench_pairs.summarize(runs, {"run_s": "lower", "definite_answers": "higher"})
    assert block["change_better_in_pairs"] == {"run_s": 0, "definite_answers": 2}


def test_odd_pairs_run_the_parent_first():
    assert [bench_pairs.pair_order(i)[0] for i in range(1, 5)] == ["parent", "change"] * 2
    assert bench_pairs.pair_order(2) == ("change", "parent")


def test_command_is_the_benchmark_command():
    assert bench_pairs.command("rainbow-groups", 3, 28.0, 0) == [
        "perfbench/run.py", "--workload", "rainbow-groups", "--seed", "3",
        "--seconds", "28", "--trace", "0",
    ]
