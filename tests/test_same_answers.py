"""The comparison tools/same_answers.py makes, on made-up record and fence
lines: no campaign or search runs here."""

import importlib.util
import json
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "same_answers.py"
_SPEC = importlib.util.spec_from_file_location("same_answers", _PATH)
same_answers = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(same_answers)


def _line(workload, seed, n, nodes=3, **extra):
    rec = {"conjecture": "3.13", "params": {"n": n}, "status": "witness",
           "witness": [[0], [1]], "nodes": nodes, "tool_version": "0.1.0", **extra}
    return f"{workload} {seed} {json.dumps(rec)}"


def _lines(*ns, seed=1):
    return [_line("predicate-circles", seed, n) for n in ns]


def test_equal_outputs():
    lines = _lines(1, 2, 3) + _lines(1, 2, seed=2) + [_line("rainbow-groups", 1, 9)]
    report, same = same_answers.compare(lines, list(lines))
    assert same
    assert report == [
        "predicate-circles seed 1: 3 parent and 3 change records; all equal",
        "predicate-circles seed 2: 2 parent and 2 change records; all equal",
        "rainbow-groups seed 1: 1 parent and 1 change records; all equal",
    ]


def test_first_field_that_differs():
    parent = _lines(1, 2, 3)
    change = _lines(1) + [_line("predicate-circles", 1, 2, nodes=4),
                          _line("predicate-circles", 1, 3, nodes=5)]
    report, same = same_answers.compare(parent, change)
    assert not same
    assert report == ['predicate-circles seed 1: 3 parent and 3 change records; record 2 '
                      '(3.13 {"n": 2}) differs first in \'nodes\': 3 -> 4']
    # a field only one side has counts as a difference, after the shared ones
    change = _lines(1) + [_line("predicate-circles", 1, 2, note="b = -a")] + _lines(3)
    report, same = same_answers.compare(parent, change)
    assert not same and "differs first in 'note': null -> \"b = -a\"" in report[0]


def test_one_seed_per_report_line():
    # a difference at seed 2 leaves seed 1 equal
    parent = _lines(1, 2) + _lines(1, 2, seed=2)
    change = _lines(1, 2) + [_line("predicate-circles", 2, 1),
                             _line("predicate-circles", 2, 2, nodes=9)]
    report, same = same_answers.compare(parent, change)
    assert not same
    assert report[0].endswith("all equal")
    assert "record 2" in report[1] and "seed 2" in report[1]
    # and one at seed 1 is not hidden by an equal seed 2
    change = _lines(1) + [_line("predicate-circles", 1, 2, nodes=9)] + _lines(1, 2, seed=2)
    report, same = same_answers.compare(parent, change)
    assert not same
    assert "record 2" in report[0] and report[1].endswith("all equal")


def test_missing_records_and_groups():
    report, same = same_answers.compare(_lines(1, 2, 3), _lines(1, 2))
    assert not same
    assert report == ["predicate-circles seed 1: 3 parent and 2 change records; "
                      "the parent has 1 more records"]
    # a workload one side has not run at all
    report, same = same_answers.compare(_lines(1), _lines(1) + [_line("field-predicates", 1, 5)])
    assert not same
    assert report[1] == ("field-predicates seed 1: 0 parent and 1 change records; "
                         "the change has 1 more records")


def _fixture(n, status="exhausted"):
    rec = {"conjecture": "3.11", "params": {"n": n}, "status": status, "nodes": 0}
    return f"fixture {json.dumps(rec)}"


def test_fixtures_are_a_group_of_their_own():
    parent = _lines(1) + [_fixture(7), _fixture(9)]
    change = _lines(1) + [_fixture(7), _fixture(9, status="witness")]
    report, same = same_answers.compare(parent, change)
    assert not same
    assert report == [
        "predicate-circles seed 1: 1 parent and 1 change records; all equal",
        "fixtures: 2 parent and 2 change records; record 2 (3.11 {\"n\": 9}) differs "
        "first in 'status': \"exhausted\" -> \"witness\"",
    ]


def test_long_values_are_cut():
    parent = _lines(1)
    change = [_line("predicate-circles", 1, 1, witness=[[i] for i in range(40)])]
    report, _ = same_answers.compare(parent, change)
    assert "differs first in 'witness': [[0], [1]] -> [[0], [1], [2]," in report[0]
    assert report[0].endswith("...")


def _fence(search, nodes=10, status="witness", witness=(0, 1), count=None):
    doc = {"search": search, "status": status, "nodes": nodes,
           "witness": witness and list(witness), "count": count}
    return f"fence {json.dumps(doc)}"


def test_equal_fences():
    lines = _lines(1) + [_fence("outcome a"), _fence("counted b", count=4)]
    report, same = same_answers.compare(lines, list(lines))
    assert same
    assert report == ["predicate-circles seed 1: 1 parent and 1 change records; all equal",
                      "kernel fences: 2 parent and 2 change searches; all equal"]


def test_every_moved_fence_search_is_listed():
    parent = _lines(1) + [_fence("a"), _fence("b", count=2), _fence("c"), _fence("d")]
    change = _lines(1) + [_fence("a", nodes=7), _fence("b", count=3), _fence("c"),
                          _fence("d", status="budget", witness=None)]
    report, same = same_answers.compare(parent, change)
    assert not same
    # the records stay equal; the fence lines follow them, one per moved search
    assert report == [
        "predicate-circles seed 1: 1 parent and 1 change records; all equal",
        "kernel fences: 4 parent and 4 change searches; 3 differ",
        "  a: witness, 10 nodes, witness [0, 1] -> witness, 7 nodes, witness [0, 1]",
        "  b: witness, 10 nodes, witness [0, 1], 2 counted -> "
        "witness, 10 nodes, witness [0, 1], 3 counted",
        "  d: witness, 10 nodes, witness [0, 1] -> budget, 10 nodes, witness null",
    ]


def test_a_fence_search_on_one_side_only():
    report, same = same_answers.compare([_fence("a")], [_fence("a"), _fence("new")])
    assert not same
    assert report == ["kernel fences: 1 parent and 2 change searches; 1 differ",
                      "  new: absent -> witness, 10 nodes, witness [0, 1]"]
    report, same = same_answers.compare([_fence("gone")], [])
    assert not same
    assert report[1] == "  gone: witness, 10 nodes, witness [0, 1] -> absent"


def _field(q, poly, generator=2, exp_sha1="ab"):
    doc = {"q": q, "poly": poly, "generator": generator, "exp_sha1": exp_sha1}
    return f"field {json.dumps(doc)}"


def test_fields_are_a_group_of_their_own():
    parent = _lines(1) + [_field(4, [1, 1, 1]), _field(8, [1, 1, 0, 1])]
    change = _lines(1) + [_field(4, [1, 1, 1]), _field(8, [1, 0, 1, 1], exp_sha1="cd")]
    report, same = same_answers.compare(parent, change)
    assert not same
    assert report == [
        "predicate-circles seed 1: 1 parent and 1 change records; all equal",
        "fields: 2 parent and 2 change records; record 2 (F_8) differs "
        "first in 'poly': [1, 1, 0, 1] -> [1, 0, 1, 1]",
    ]
