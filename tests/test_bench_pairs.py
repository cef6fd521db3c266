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


BETTER = {"run_s": "lower", "definite_answers": "higher"}
BOUND = {"run_s": 0.25, "definite_answers": 0.01}


def test_median_quartiles_and_wins():
    parent = [2.0, 1.6, 1.8, 2.4, 1.9]
    change = [1.4, 1.7, 1.2, 1.5, 1.9]
    block = bench_pairs.summarize(_runs(parent, change), BETTER, BOUND)
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
    block = bench_pairs.summarize(runs, BETTER, BOUND)
    assert block["change_better_in_pairs"] == {"run_s": 0, "definite_answers": 2}


def test_gain_holds_needs_nine_of_ten_and_the_parent_spread():
    parent = [1.00, 1.10, 0.90, 1.20, 0.95, 1.05, 1.15, 0.85, 1.00, 1.10]
    # parent median 1.025, quartiles 0.9375 and 1.1125: a spread of 0.175
    assert bench_pairs.summarize(_runs(parent, parent), BETTER, BOUND)["gain_holds"] == {
        "run_s": False, "definite_answers": False}
    change = [p - 0.3 for p in parent]
    assert bench_pairs.summarize(_runs(parent, change), BETTER, BOUND)["gain_holds"]["run_s"]
    # better in 9 of 10 is enough, 8 of 10 is not
    assert bench_pairs.summarize(
        _runs(parent, change[:9] + [1.2]), BETTER, BOUND)["gain_holds"]["run_s"]
    assert not bench_pairs.summarize(
        _runs(parent, change[:8] + [1.2, 1.2]), BETTER, BOUND)["gain_holds"]["run_s"]
    # better in every pair, but the medians are 0.15 apart, inside the spread
    close = [p - 0.15 for p in parent]
    block = bench_pairs.summarize(_runs(parent, close), BETTER, BOUND)
    assert block["change_better_in_pairs"]["run_s"] == 10
    assert not block["gain_holds"]["run_s"]
    # more answers in every pair, by more than the spread of the parent's
    runs = _runs(parent, parent)
    for i, run in enumerate(runs):
        run["change"]["metrics"]["definite_answers"]["value"] = 8 + i % 2
    assert bench_pairs.summarize(runs, BETTER, BOUND)["gain_holds"]["definite_answers"]


def test_within_bound_follows_each_metric_direction():
    parent = [1.0] * 10
    block = bench_pairs.summarize(_runs(parent, [1.25] * 10), BETTER, BOUND)
    assert block["within_bound"] == {"run_s": True, "definite_answers": True}
    block = bench_pairs.summarize(_runs(parent, [1.3] * 10), BETTER, BOUND)
    assert block["within_bound"]["run_s"] is False
    # a faster change is within any bound
    block = bench_pairs.summarize(_runs(parent, [0.2] * 10), BETTER, {**BOUND, "run_s": 0})
    assert block["within_bound"]["run_s"] is True
    # 1 answer fewer of 100 is within 1 %, 2 are not; more answers always are
    for answers, ok in ((99, True), (98, False), (150, True)):
        runs = _runs(parent, parent)
        for run in runs:
            run["parent"]["metrics"]["definite_answers"]["value"] = 100
            run["change"]["metrics"]["definite_answers"]["value"] = answers
        assert bench_pairs.summarize(runs, BETTER, BOUND)["within_bound"]["definite_answers"] is ok


def test_odd_pairs_run_the_parent_first():
    assert [bench_pairs.pair_order(i)[0] for i in range(1, 5)] == ["parent", "change"] * 2
    assert bench_pairs.pair_order(2) == ("change", "parent")


def test_command_is_the_benchmark_command():
    assert bench_pairs.command("rainbow-groups", 3, 28.0, 0) == [
        "perfbench/run.py", "--workload", "rainbow-groups", "--seed", "3",
        "--seconds", "28", "--trace", "0",
    ]
