import json
import os
from dataclasses import replace

import pytest

from permlab import cli
from permlab.cli import arrangement_from_dict, arrangement_to_dict, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def read_jsonl(path):
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


class TestConstruct:
    def test_thm12i(self, capsys):
        code, out, _ = run(capsys, "construct", "thm1.2i", "--n", "4")
        assert code == 0
        doc = json.loads(out)
        assert [c[0] for c in doc["elements"]] == [0, 3, 1, 2, 4]

    def test_thm15(self, capsys):
        code, out, _ = run(capsys, "construct", "thm1.5", "--n", "7")
        assert code == 0
        assert [c[0] for c in json.loads(out)["elements"]] == [3, 2, 6, 4, 5, 1]

    def test_thm13_elements(self, capsys):
        code, out, _ = run(capsys, "construct", "thm1.3", "--elements", "0,5,6,10")
        assert code == 0
        assert [c[0] for c in json.loads(out)["elements"]] == [0, 6, 5, 10]

    def test_thm16_not_found(self, capsys):
        code, out, _ = run(
            capsys, "construct", "thm1.6", "--q", "5", "--op", "sum", "--target", "S"
        )
        assert code == 1
        assert json.loads(out)["status"] == "not_found"

    def test_usage_error(self, capsys):
        code, _, err = run(capsys, "construct", "thm1.2ii", "--n", "5")
        assert code == 3
        assert "even" in err

    @pytest.mark.parametrize("argv", [
        ("thm1.1", "--elements", "0,1,3,7,12"),
        ("cor1.1", "--n", "6"),
        ("thm1.2i", "--n", "4"),
        ("thm1.2ii", "--n", "6"),
        ("thm1.3", "--elements", "0,5,6,10"),
        ("thm1.4", "--elements", "0,1,3,7,12,20"),
        ("thm1.5", "--n", "7"),
        ("thm1.6", "--q", "17", "--op", "diff", "--target", "T"),
        ("rem1.2", "--elements", "1,2,3,4,5,6"),
        ("rem3.11", "--n", "7"),
    ], ids=lambda argv: argv[0])
    def test_every_construction_round_trips(self, capsys, argv):
        code, out, _ = run(capsys, "construct", *argv)
        assert code == 0
        doc = json.loads(out)
        assert arrangement_to_dict(arrangement_from_dict(doc)) == doc

    @pytest.mark.parametrize("what,flag", [
        ("thm1.1", "--elements"), ("thm1.3", "--elements"), ("thm1.4", "--elements"),
        ("rem1.2", "--elements"), ("cor1.1", "--n"), ("thm1.2i", "--n"),
        ("thm1.2ii", "--n"), ("thm1.5", "--n"), ("rem3.11", "--n"), ("thm1.6", "--q"),
    ])
    def test_missing_flag_is_usage_error(self, capsys, what, flag):
        code, out, err = run(capsys, "construct", what)
        assert (code, out) == (3, "")
        assert err == f"error: {what} needs {flag}\n"


class TestCheck:
    @pytest.fixture()
    def n20(self, tmp_path):
        doc = {
            "group": {"kind": "integers"},
            "shape": "circular",
            "elements": [
                [x]
                for x in (0, 3, 12, 9, 15, 18, 6, 20, 19, 14, 13, 4, 2, 7, 16,
                          17, 11, 10, 5, 8, 1)
            ],
        }
        p = tmp_path / "n20.json"
        p.write_text(json.dumps(doc))
        return p

    def test_pass(self, capsys, n20):
        code, out, _ = run(
            capsys, "check", "--arrangement", str(n20), "--conjecture", "3.16",
            "--params", "n=20",
        )
        assert code == 0 and "pass" in out

    def test_fail_localizes(self, capsys, n20, tmp_path):
        doc = json.loads(n20.read_text())
        doc["elements"][3], doc["elements"][4] = doc["elements"][4], doc["elements"][3]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, out, _ = run(
            capsys, "check", "--arrangement", str(bad), "--conjecture", "3.16",
            "--params", "n=20",
        )
        assert code == 1
        assert "positions" in out

    @pytest.mark.parametrize("shape, elements, params", [
        ("circular", [0, 1], "n=5"),
        ("linear", [0, 5, 2, 3, 4, 1, 6], "n=6"),
    ], ids=["too-few-elements", "line-for-a-circle"])
    def test_arrangement_must_be_the_instances(self, capsys, tmp_path, shape, elements, params):
        # both pass 3.13's clause as given: a check against a catalog
        # instance also compares the ground set and the shape
        doc = {"group": {"kind": "integers"}, "shape": shape, "elements": [[x] for x in elements]}
        p = tmp_path / "a.json"
        p.write_text(json.dumps(doc))
        code, out, _ = run(
            capsys, "check", "--arrangement", str(p), "--conjecture", "3.13", "--params", params,
        )
        assert code == 1
        assert out.startswith("fail: ") and "ground" in out

    def test_malformed(self, capsys, tmp_path):
        bad = tmp_path / "garbage.json"
        bad.write_text("{not json")
        code, _, err = run(
            capsys, "check", "--arrangement", str(bad), "--conjecture", "3.16",
            "--params", "n=20",
        )
        assert code == 3

    @pytest.mark.parametrize("conjecture, params", [
        ("3.3", ["m=5", "n=3", "subset=999", "first=0"]),
        ("3.3", ["m=5", "n=3", "subset=-1", "first=0"]),
        ("3.3", ["m=5", "n=3", "subset=0", "first=3"]),
        ("3.3", ["m=5", "n=3", "subset=0", "first=-1"]),
        ("3.3", ["m=4", "g=7", "n=3", "subset=0", "first=0"]),
        ("3.1", ["m=2", "n=3", "subset=999", "first=0"]),
    ], ids=["subset", "negative-subset", "first", "negative-first", "g", "3.1-subset"])
    def test_out_of_range_index_is_usage_error(self, capsys, n20, conjecture, params):
        code, _, err = run(
            capsys, "check", "--arrangement", str(n20), "--conjecture", conjecture,
            "--params", *params,
        )
        assert code == 3
        assert "out of range" in err

    @pytest.mark.parametrize("params, named", [
        (["m=40", "n=3", "seed=0"], "m = 40: the catalog has groups of order 2 to 36"),
        (["m=20", "n=3"], "needs 'seed' or 'subset'"),
        (["n=3", "seed=0"], "needs 'm'"),
        (["m=20", "n=30", "seed=0"], "n = 30 is out of range"),
    ], ids=["m", "seed", "no-m", "n"])
    def test_bad_group_parameter_is_named(self, capsys, n20, params, named):
        code, out, err = run(
            capsys, "check", "--arrangement", str(n20), "--conjecture", "3.3",
            "--params", *params, "first=0",
        )
        assert code == 3 and out == ""
        assert err.startswith(f"error: {named}")

    @pytest.mark.parametrize("group, elements", [
        ({"kind": "prime_field", "p": 11.7}, [[1], [2], [3], [4]]),
        ({"kind": "integers"}, [[1], [2], [3.5], [4]]),
        ({"kind": "integers"}, [[1], [2], ["3"], [4]]),
        ({"kind": "integers"}, [[1], [True], [3], [4]]),
    ], ids=["float-p", "float-element", "string-element", "bool-element"])
    def test_file_numbers_are_json_integers(self, capsys, tmp_path, group, elements):
        pa = tmp_path / "a.json"
        pc = tmp_path / "c.json"
        pa.write_text(json.dumps({"group": group, "shape": "linear", "elements": elements}))
        pc.write_text(json.dumps({"clauses": [{"rainbow": "sum"}]}))
        code, out, err = run(capsys, "check", "--arrangement", str(pa), "--constraint", str(pc))
        assert code == 3
        assert out == "" and "expected a JSON integer" in err

    def test_constraint_file(self, capsys, tmp_path):
        arr = {
            "group": {"kind": "integers"},
            "shape": "circular",
            "elements": [[1], [2], [3], [4]],
        }
        cons = {"constraint": {"clauses": [{"predicate": {"kind": "prime"}, "labeler": "sum"}]}}
        pa = tmp_path / "a.json"
        pc = tmp_path / "c.json"
        pa.write_text(json.dumps(arr))
        pc.write_text(json.dumps(cons))
        code, out, _ = run(capsys, "check", "--arrangement", str(pa), "--constraint", str(pc))
        assert code == 0


class TestSearch:
    @pytest.fixture()
    def odd5(self, tmp_path):
        inst = {
            "group": {"kind": "integers"},
            "shape": "linear",
            "ground": [[1], [2], [3], [4], [5]],
            "constraint": {"clauses": [{"rainbow": "diff", "modulus": 5}]},
        }
        p = tmp_path / "odd5.json"
        p.write_text(json.dumps(inst))
        return p

    def test_exhausted_with_oracle(self, capsys, odd5):
        code, out, _ = run(capsys, "search", "--instance", str(odd5), "--all-small")
        assert code == 1
        doc = json.loads(out)
        assert doc["status"] == "exhausted"
        assert doc["brute_force_count"] == 0
        assert doc["verdicts_agree"]

    def test_witness(self, capsys, tmp_path):
        inst = {
            "group": {"kind": "integers"},
            "shape": "circular",
            "ground": [[x] for x in (1, 2, 3, 4, 5, 6)],
            "constraint": {"clauses": [{"predicate": {"kind": "prime"}, "labeler": "sum"}]},
        }
        p = tmp_path / "filz6.json"
        p.write_text(json.dumps(inst))
        code, out, _ = run(capsys, "search", "--instance", str(p))
        assert code == 0
        assert json.loads(out)["status"] == "witness"

    def test_budget(self, capsys, tmp_path):
        inst = {
            "group": {"kind": "integers"},
            "shape": "circular",
            "ground": [[x] for x in range(14)],
            "constraint": {"clauses": [{"rainbow": "sum"}]},
        }
        p = tmp_path / "hard.json"
        p.write_text(json.dumps(inst))
        code, out, _ = run(capsys, "search", "--instance", str(p), "--budget", "10")
        assert code == 2
        assert json.loads(out)["status"] == "budget"

    @pytest.mark.parametrize(
        "doc",
        [
            [],
            5,
            {"group": 3},
            {"group": {"kind": "integers"}, "shape": "circular", "ground": 5,
             "constraint": {"clauses": [{"rainbow": "sum"}]}},
            {"group": {"kind": "integers"}, "shape": "circular", "ground": [[1], [2], [3]],
             "constraint": {"clauses": [{"rainbow": "sum", "modulus": "3"}]}},
            # a modular predicate over an integer or Z/m ground needs an odd prime
            *({"group": group, "shape": "circular", "ground": [[1], [2], [4], [5]],
               "constraint": {"clauses": [{"predicate": {"kind": "quadratic_residue_mod", "params": [9]},
                                           "labeler": "sum"}]}}
              for group in ({"kind": "integers"}, {"kind": "cyclic_product", "moduli": [12]})),
            # an a0 that is no element of the ground's group
            *({"group": group, "shape": "circular", "ground": [[1], [2], [3]],
               "constraint": {"clauses": [{"predicate": {"kind": "primitive_root_mod",
                                                         "params": [11]},
                                           "labeler": "affine_product", "a0": a0}]}}
              for group, a0 in (({"kind": "integers"}, [1]), ({"kind": "integers"}, 1.5),
                                ({"kind": "prime_field", "p": 11}, [1, 2]),
                                ({"kind": "prime_field", "p": 11}, "z"))),
            # files hold JSON integers: no float, string or bool is cut or read as one
            {"group": {"kind": "integers"}, "shape": "linear", "ground": [[1], [2], [3.5]],
             "constraint": {"clauses": [{"rainbow": "sum"}]}},
            {"group": {"kind": "prime_field", "p": 11.7}, "shape": "linear",
             "ground": [[1], [2], [3]], "constraint": {"clauses": [{"rainbow": "sum"}]}},
            {"group": {"kind": "integer_vectors", "rank": 2.0}, "shape": "linear",
             "ground": [[0, 1], [0, 2]], "constraint": {"clauses": [{"rainbow": "sum"}]}},
            {"group": {"kind": "integers"}, "shape": "linear", "ground": [[1], [2], [3]],
             "constraint": {"clauses": [{"rainbow": "sum", "modulus": 4.5}]}},
            {"group": {"kind": "integers"}, "shape": "circular", "ground": [[1], [2], [3]],
             "constraint": {"clauses": [{"predicate": {"kind": "coprime_to", "params": [6.5]},
                                         "labeler": "sum"}]}},
        ],
    )
    def test_malformed_instance_is_usage_error(self, capsys, tmp_path, doc):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc))
        code, out, err = run(capsys, "search", "--instance", str(p))
        assert code == 3
        assert err.startswith("error:") and out == ""

    def test_all_small_budget_is_no_verdict(self, capsys, tmp_path):
        # brute force counts 2 circles, and the search stops at its budget
        inst = {
            "group": {"kind": "integers"},
            "shape": "circular",
            "ground": [[x] for x in range(1, 9)],
            "constraint": {"clauses": [{"predicate": {"kind": "prime"}, "labeler": "sum"}]},
        }
        p = tmp_path / "filz8.json"
        p.write_text(json.dumps(inst))
        code, out, _ = run(capsys, "search", "--instance", str(p), "--all-small", "--budget", "2")
        assert code == 2
        doc = json.loads(out)
        assert doc["status"] == "budget"
        assert doc["brute_force_count"] == 2
        assert doc["verdicts_agree"] is None

    def test_all_small_capacity(self, capsys, tmp_path):
        inst = {
            "group": {"kind": "integers"},
            "shape": "circular",
            "ground": [[x] for x in range(12)],
            "constraint": {"clauses": [{"rainbow": "sum"}]},
        }
        p = tmp_path / "big.json"
        p.write_text(json.dumps(inst))
        code, _, err = run(capsys, "search", "--instance", str(p), "--all-small")
        assert code == 3


class TestVerify:
    def test_campaign_records(self, capsys, tmp_path):
        out_path = tmp_path / "r.jsonl"
        code, _, err = run(
            capsys, "verify", "--conjecture", "3.13", "--from", "1", "--to", "12",
            "--out", str(out_path),
        )
        assert code == 0
        rows = read_jsonl(out_path)
        assert rows[0]["type"] == "header"
        recs = rows[1:]
        assert len(recs) == 12
        assert all(r["status"] == "witness" for r in recs)

    def test_resume_skips_everything(self, capsys, tmp_path):
        out_path = tmp_path / "r.jsonl"
        run(capsys, "verify", "--conjecture", "3.13", "--from", "1", "--to", "8",
            "--out", str(out_path))
        before = out_path.read_text()
        code, _, err = run(
            capsys, "verify", "--conjecture", "3.13", "--from", "1", "--to", "8",
            "--out", str(out_path), "--resume",
        )
        assert code == 0
        assert "0 searched" in err
        assert out_path.read_text() == before

    def test_resume_redoes_truncated_line(self, capsys, tmp_path):
        out_path = tmp_path / "r.jsonl"
        run(capsys, "verify", "--conjecture", "3.13", "--from", "1", "--to", "6",
            "--out", str(out_path))
        whole = out_path.read_text()
        # chop the final record mid-line
        out_path.write_text(whole[: whole.rindex("status") + 3])
        code, _, err = run(
            capsys, "verify", "--conjecture", "3.13", "--from", "1", "--to", "6",
            "--out", str(out_path), "--resume",
        )
        assert code == 0
        assert "1 searched" in err
        rows = read_jsonl(out_path)
        assert [r["params"]["n"] for r in rows[1:]] == [1, 2, 3, 4, 5, 6]

    def test_resume_cuts_at_a_broken_middle_line(self, capsys, tmp_path):
        # the broken line repeats the start of the n = 1 record, so cutting at
        # the first place its bytes occur would lose the records of n = 1, 2
        out_path = tmp_path / "r.jsonl"
        run(capsys, "verify", "--conjecture", "3.13", "--from", "1", "--to", "3",
            "--out", str(out_path))
        header, n1, n2, n3 = out_path.read_text().splitlines(keepends=True)
        out_path.write_text(header + n1 + n2 + n1[:30] + "\n" + n3)
        code, _, err = run(
            capsys, "verify", "--conjecture", "3.13", "--from", "1", "--to", "3",
            "--out", str(out_path), "--resume",
        )
        assert code == 0
        assert "1 searched" in err
        rows = read_jsonl(out_path)
        assert rows[0]["type"] == "header"
        assert [r["params"]["n"] for r in rows[1:]] == [1, 2, 3]

    def test_resume_keeps_a_single_header(self, capsys, tmp_path):
        out_path = tmp_path / "r.jsonl"
        run(capsys, "verify", "--conjecture", "3.13", "--from", "1", "--to", "2",
            "--out", str(out_path))
        whole = out_path.read_text()
        # the header, then the first record cut mid-line
        out_path.write_text(whole[: whole.index("status")])
        code, _, err = run(
            capsys, "verify", "--conjecture", "3.13", "--from", "1", "--to", "2",
            "--out", str(out_path), "--resume",
        )
        assert code == 0
        rows = read_jsonl(out_path)
        assert [r.get("type") for r in rows] == ["header", None, None]
        assert [r["params"]["n"] for r in rows[1:]] == [1, 2]

    @pytest.mark.parametrize("line", ["{}", "[]", "7", '{"conjecture": "3.13"}',
                                      '{"conjecture": "3.13", "params": [1]}'])
    def test_resume_on_a_line_that_is_no_record_is_usage_error(self, capsys, tmp_path, line):
        # valid JSON but neither a header nor a record: the file is left as it is
        out_path = tmp_path / "r.jsonl"
        run(capsys, "verify", "--conjecture", "3.13", "--from", "1", "--to", "2",
            "--out", str(out_path))
        header, n1, _n2 = out_path.read_text().splitlines(keepends=True)
        out_path.write_text(header + n1 + line + "\n")
        before = out_path.read_text()
        code, _, err = run(
            capsys, "verify", "--conjecture", "3.13", "--from", "1", "--to", "2",
            "--out", str(out_path), "--resume",
        )
        assert code == 3
        assert f"line 3 is neither a header nor a record: {line}" in err
        assert out_path.read_text() == before

    def test_unknown_flag_is_usage_error(self, capsys):
        # the known impossibilities of 3.12i/3.12ii are run by `fixtures`
        code, out, err = run(
            capsys, "verify", "--conjecture", "3.12i", "--from", "1", "--to", "3",
            "--family", "exceptional",
        )
        assert code == 3
        assert out == ""
        assert "unrecognized arguments: --family exceptional" in err

    def test_resume_without_out_is_usage_error(self, capsys):
        code, out, err = run(capsys, "verify", "--conjecture", "3.13", "--to", "2", "--resume")
        assert (code, out, err) == (3, "", "error: --resume needs --out\n")

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_jobs_below_one_is_usage_error(self, capsys, jobs):
        code, out, err = run(capsys, "verify", "--conjecture", "3.13", "--to", "2",
                             "--jobs", jobs)
        assert (code, out) == (3, "")
        assert err == f"error: --jobs must be >= 1, got {jobs}\n"

    @pytest.mark.parametrize("budget", ["0", "-3"])
    def test_budget_below_one_writes_no_file(self, capsys, tmp_path, budget):
        out_path = tmp_path / "x.jsonl"
        code, out, err = run(capsys, "verify", "--conjecture", "3.13", "--to", "2",
                             "--budget", budget, "--out", str(out_path))
        assert (code, out, err) == (3, "", "error: budget must be >= 1 node\n")
        assert not out_path.exists()

    def test_budget_below_one_leaves_a_resumed_file_uncut(self, capsys, tmp_path):
        out_path = tmp_path / "r.jsonl"
        run(capsys, "verify", "--conjecture", "3.13", "--from", "1", "--to", "2",
            "--out", str(out_path))
        whole = out_path.read_text()
        # a broken tail that a resume would cut
        out_path.write_text(whole[: whole.rindex("status")])
        before = out_path.read_bytes()
        code, _, err = run(capsys, "verify", "--conjecture", "3.13", "--from", "1", "--to", "2",
                           "--out", str(out_path), "--resume", "--budget", "0")
        assert (code, err) == (3, "error: budget must be >= 1 node\n")
        assert out_path.read_bytes() == before

    def test_unknown_id(self, capsys):
        code, _, err = run(capsys, "verify", "--conjecture", "9.99")
        assert code == 3
        assert "known ids" in err

    def test_budget_exit(self, capsys):
        code, out, err = run(
            capsys, "verify", "--conjecture", "3.7ii-sums", "--from", "23",
            "--to", "23", "--budget", "2",
        )
        assert code == 2
        assert '"status": "budget"' in out

    def test_budget_env_override(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("PERMLAB_BUDGET", "7")
        from permlab.cli import default_budget

        assert default_budget() == 7
        monkeypatch.setenv("PERMLAB_BUDGET", "zero")
        with pytest.raises(SystemExit):
            default_budget()

    def test_bad_budget_env_fails_only_a_command_that_reads_it(self, capsys, tmp_path,
                                                               monkeypatch):
        monkeypatch.setenv("PERMLAB_BUDGET", "zero")
        code, _, _ = run(capsys, "construct", "thm1.2ii", "--n", "6")
        assert code == 0
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        capsys.readouterr()
        path = tmp_path / "inst.json"
        path.write_text(json.dumps({
            "group": {"kind": "integers"}, "shape": "linear", "ground": [[1], [2]],
            "constraint": {"clauses": [{"rainbow": "sum"}]},
        }))
        for argv in (["search", "--instance", str(path)], ["fixtures"],
                     ["verify", "--conjecture", "3.13", "--to", "2"]):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (3, ""), argv
            assert "PERMLAB_BUDGET must be a positive integer, got 'zero'" in err
        # a --budget on the command line leaves the variable unread
        code, _, _ = run(capsys, "search", "--instance", str(path), "--budget", "5")
        assert code == 0


class TestFileRoundTrips:
    def test_arrangement_files(self):
        from permlab.algebra import (
            CIRCULAR,
            LINEAR,
            Arrangement,
            CyclicProduct,
            Integers,
            IntegerVectors,
            field_spec_for,
        )
        from permlab.cli import arrangement_from_dict, arrangement_to_dict

        fixtures = [
            Arrangement(Integers(), LINEAR, (3, -1, 4)),
            Arrangement(IntegerVectors(2), CIRCULAR, ((0, 1), (2, -3), (4, 0), (1, 1))),
            Arrangement(CyclicProduct((2, 2)), LINEAR, ((0, 0), (1, 1))),
            Arrangement(CyclicProduct((6,)), CIRCULAR, (0, 2, 5)),
            Arrangement(field_spec_for(9), CIRCULAR, (0, 1, 3, 7)),
        ]
        for arr in fixtures:
            doc = arrangement_to_dict(arr)
            again = arrangement_from_dict(json.loads(json.dumps(doc)))
            assert again == arr
            assert arrangement_to_dict(again) == doc

    def test_constraint_files(self):
        from permlab.algebra import Integers
        from permlab.cli import constraint_from_dict, constraint_to_dict
        from permlab.numtheory import PredicateSpec
        from permlab.search import Constraint, PredicateClause, RainbowClause

        spec = Integers()
        cons = Constraint(
            (
                RainbowClause("diff", modulus=12),
                PredicateClause(PredicateSpec("coprime_to", (8,)), "sum"),
                PredicateClause(
                    PredicateSpec("primitive_root_mod", (11,)), "affine_product", a0=2
                ),
            ),
            first=0,
            last=11,
        )
        doc = constraint_to_dict(cons, spec)
        again = constraint_from_dict(json.loads(json.dumps(doc)), spec)
        assert again == cons


class TestFixturesCommand:
    def test_all_conform(self, capsys, tmp_path):
        out_path = tmp_path / "fix.jsonl"
        code, out, _ = run(capsys, "fixtures", "--out", str(out_path))
        assert code == 0
        assert out.count("PASS") == 19  # 12 golden + 7 counterexample rows
        assert "FAIL" not in out
        rows = read_jsonl(out_path)
        assert len(rows) == 19

    def test_failing_stored_witness_writes_no_record(self, capsys, tmp_path, monkeypatch):
        # sorted order is no 3.7i witness; a record would claim a proof of
        # nonexistence after 0 nodes
        fixtures = [
            replace(g, elements=tuple(sorted(g.elements))) if g.name == "sums-primitive-mod11" else g
            for g in cli.golden_fixtures()
        ]
        monkeypatch.setattr(cli, "golden_fixtures", lambda: fixtures)
        out_path = tmp_path / "fix.jsonl"
        code, out, _ = run(capsys, "fixtures", "--out", str(out_path))
        assert code == 1
        assert out.count("FAIL") == 1
        assert "sums-primitive-mod11" in next(line for line in out.splitlines() if "FAIL" in line)
        rows = read_jsonl(out_path)
        assert len(rows) == 18
        assert all(row.get("note") != "stored witness sums-primitive-mod11" for row in rows)

    def test_budget_below_one_runs_nothing(self, capsys, tmp_path):
        out_path = tmp_path / "fix.jsonl"
        code, out, err = run(capsys, "fixtures", "--budget", "0", "--out", str(out_path))
        assert (code, out, err) == (3, "", "error: budget must be >= 1 node\n")
        assert not out_path.exists()


class TestArgumentErrors:
    def test_missing_required_argument(self, capsys):
        code, _, err = run(capsys, "search")
        assert code == 3
        assert "--instance" in err

    def test_unknown_command(self, capsys):
        code, _, _ = run(capsys, "nope")
        assert code == 3

    def test_unwritable_out_is_usage_error(self, capsys, tmp_path):
        missing = str(tmp_path / "missing" / "x.jsonl")
        for argv in (
            ("construct", "thm1.2ii", "--n", "6", "--out", missing),
            ("verify", "--conjecture", "3.13", "--from", "1", "--to", "2", "--out", missing),
            ("fixtures", "--out", missing),
            # a directory where the records file should be
            ("verify", "--conjecture", "3.13", "--from", "1", "--to", "2",
             "--out", str(tmp_path), "--resume"),
        ):
            code, _, err = run(capsys, *argv)
            assert code == 3, argv
            assert err.startswith("error:") and "Traceback" not in err, argv

    def test_version_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "permlab" in capsys.readouterr().out
