import hashlib
import json
import os
import subprocess
import sys
from concurrent.futures import Future
from dataclasses import replace

import pytest

import permlab
from permlab import conjectures
from permlab.algebra import (
    CIRCULAR,
    LINEAR,
    Arrangement,
    CyclicProduct,
    PrimeField,
    element_coords,
    element_from_coords,
    spec_to_dict,
)
from permlab.cli import constraint_to_dict
from permlab.conjectures import (
    CONJECTURE_IDS,
    VerificationRecord,
    counterexample_fixtures,
    describe,
    golden_fixtures,
    instance,
    iter_params,
    oracle_params,
    run_counterexample,
    run_instance,
    verify_range,
)
from permlab.search import (
    Constraint,
    PredicateClause,
    RainbowClause,
    brute_force_enumerate,
    check,
    search,
)


def replay_witness(rec: VerificationRecord) -> bool:
    """Records must be re-checkable offline from (conjecture, params)."""
    inst = instance(rec.conjecture, rec.params)
    elems = tuple(element_from_coords(inst.ground.spec, c) for c in rec.witness)
    if inst.mode == "pair":
        from permlab.search import check_pair_numbering

        n = len(elems) // 2
        return check_pair_numbering(inst.ground.spec, elems[:n], elems[n:])
    if inst.mode == "two-phase":
        constraint = inst.pinned_constraint
    else:
        constraint = inst.constraint
    arr = Arrangement(inst.ground.spec, inst.shape, elems)
    return check(arr, constraint).ok


# the perfbench/workloads.py campaign ranges, and desk-scale ranges for the
# families no workload runs
CATALOG_RANGES = {
    "3.1": (3, 9), "3.2": (3, 9), "3.3": (9, 36), "3.4i": (9, 36), "3.4ii": (9, 36),
    "3.5i": (9, 36), "3.5ii": (9, 36), "3.6": (9, 36), "3.7i": (8, 128),
    "3.7ii-sums": (3, 150), "3.7ii-diffs": (3, 150), "3.8-sums": (3, 150),
    "3.8-diffs": (3, 150), "3.9i-sums": (3, 150), "3.9i-diffs": (3, 150),
    "3.9ii-sums": (3, 150), "3.9ii-diffs": (3, 150), "3.10": (8, 32),
    "3.11": (1, 28), "3.11-guess": (1, 28), "3.12i": (6, 14), "3.12ii": (6, 14),
    "3.13": (1, 28), "3.14": (3, 28), "3.15i": (1, 28), "3.15ii": (1, 28),
    "3.16": (1, 28), "3.17i": (1, 28), "3.17ii": (1, 28), "3.18a": (6, 29),
    "3.18b": (2, 28), "3.18c": (1, 28), "filz": (2, 40), "thm1.6-range": (3, 61),
}
CATALOG_DIGESTS = {
    "3.1": "1d39d20e9d72f7f4",
    "3.10": "1e2490fc44f6fc14",
    "3.11": "46edbfac99776970",
    "3.11-guess": "25eeb1eb09c162a2",
    "3.12i": "eb36a4e0f0454578",
    "3.12ii": "df4491d482ff52c2",
    "3.13": "30e9d958a45a3dee",
    "3.14": "15775013d16e377c",
    "3.15i": "0bf2c53db0dc6f47",
    "3.15ii": "57d639448c20cd04",
    "3.16": "21386851a3910d74",
    "3.17i": "41e430db0d728f16",
    "3.17ii": "e7581eca69143054",
    "3.18a": "11fce6c5c09158d0",
    "3.18b": "58819cb3c8476274",
    "3.18c": "787167f48f5f21d4",
    "3.2": "5f8d3f94b2ff064a",
    "3.3": "60e8857c2c987d54",
    "3.4i": "c7479a4c358d9184",
    "3.4ii": "c2e02d25484c77ee",
    "3.5i": "317b608454da57a8",
    "3.5ii": "f4f5f487696c0d49",
    "3.6": "f6f5122cb8c8066f",
    "3.7i": "f15f5aded6873bb7",
    "3.7ii-diffs": "cb6d9ad4305c6492",
    "3.7ii-sums": "018e904baef93267",
    "3.8-diffs": "e3b1ed2cc0e0244a",
    "3.8-sums": "da051a0cfc107054",
    "3.9i-diffs": "d53d9da5b683ce87",
    "3.9i-sums": "9291ec6534efd2cf",
    "3.9ii-diffs": "838376f13f3ba6da",
    "3.9ii-sums": "2cfcb820e8f270d1",
    "filz": "3345c73cf892737f",
    "thm1.6-range": "e8c10abfc42d71ed",
}


class TestRegistry:
    def test_ids_closed_set(self):
        assert "3.13" in CONJECTURE_IDS
        assert "filz" in CONJECTURE_IDS
        assert "thm1.6-range" in CONJECTURE_IDS
        assert len(CONJECTURE_IDS) == 34
        for cid in CONJECTURE_IDS:
            assert describe(cid)

    def test_unknown_id(self):
        with pytest.raises(ValueError, match="unknown conjecture"):
            instance("9.99", {})

    def test_313_example(self):
        rec = run_instance("3.13", {"n": 1})
        assert rec.status == "witness"
        assert rec.witness == [[0], [1]]

    def test_316_n20_accepts_golden_permutation(self):
        inst = instance("3.16", {"n": 20})
        arr = Arrangement(
            inst.ground.spec, inst.shape,
            (0, 3, 12, 9, 15, 18, 6, 20, 19, 14, 13, 4, 2, 7, 16, 17, 11, 10, 5, 8, 1),
        )
        assert check(arr, inst.constraint).ok

    def test_318_n23_accepts_golden_cycle(self):
        inst = instance("3.18a", {"n": 23})
        arr = Arrangement(
            inst.ground.spec, inst.shape,
            (1, 6, 23, 10, 9, 22, 11, 18, 13, 14, 21, 2, 15, 4, 17, 16, 5, 12,
             7, 20, 19, 8, 3),
        )
        assert check(arr, inst.constraint).ok

    def test_preconditions(self):
        assert not instance("3.11", {"n": 2}).precondition_ok
        assert not instance("3.11", {"n": 4}).precondition_ok
        assert instance("3.11", {"n": 6}).precondition_ok
        assert not instance("3.16", {"n": 4}).precondition_ok
        assert not instance("3.18a", {"n": 13}).precondition_ok
        assert not instance("filz", {"n": 5}).precondition_ok
        assert not instance("3.7ii-sums", {"p": 19}).precondition_ok
        assert instance("3.7ii-diffs", {"p": 17}).precondition_ok

    @pytest.mark.parametrize("name, params", [
        ("subset", {"m": 5, "n": 3, "subset": 999, "first": 0}),
        ("subset", {"m": 5, "n": 3, "subset": -1, "first": 0}),
        ("first", {"m": 5, "n": 3, "subset": 0, "first": 3}),
        ("g", {"m": 4, "g": 7, "n": 3, "subset": 0}),
        ("g", {"m": 4, "g": -1, "n": 3, "subset": 0}),
    ])
    def test_out_of_range_index(self, name, params):
        with pytest.raises(ValueError, match=f"^{name} = -?[0-9]+ is out of range"):
            instance("3.3", params)

    def test_subset_index_lists_no_subsets(self):
        # C(36, 18) is about 9e9 subsets.  Listing them all before indexing
        # would take all the memory there is, so the build runs in a child
        # process capped at 1 GB of address space.
        code = ("import resource; resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
                "from permlab.conjectures import instance; "
                "print(instance('3.3', {'m': 36, 'n': 18, 'subset': 0}).ground.elements)")
        src = os.path.dirname(os.path.dirname(permlab.__file__))
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             timeout=60, env={**os.environ, "PYTHONPATH": src})
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == str(tuple(range(18)))

    def test_exceptional_detection(self):
        # {-2,-1,1,2} is form (a); adding an unpaired value makes form (b)
        inst = instance("3.12i", {"n": 4, "seed": 0})
        # seeded set may or may not be exceptional; use explicit windows
        from permlab.conjectures import _nonzero_window_subsets

        subs4 = _nonzero_window_subsets(2, 4)
        a_idx = subs4.index((-2, -1, 1, 2))
        inst_a = instance("3.12i", {"n": 4, "m": 2, "subset": a_idx})
        assert not inst_a.precondition_ok
        assert "exceptional" in inst_a.note


class TestGoldenFixtures:
    def test_all_pass(self):
        fixtures = golden_fixtures()
        assert len(fixtures) == 12
        for g in fixtures:
            assert g.passes(), g.name

    def test_perturbed_fixture_fails_with_position(self):
        g = next(f for f in golden_fixtures() if f.name == "halfprime-chain-n20")
        inst = instance(g.conjecture, g.params)
        elems = list(g.elements)
        elems[3], elems[4] = elems[4], elems[3]
        arr = Arrangement(inst.ground.spec, inst.shape, tuple(elems))
        report = check(arr, inst.constraint)
        assert not report.ok
        assert report.first.positions  # violation is localized


class TestCounterexamples:
    def test_all_conform(self):
        for cid, params, expected in counterexample_fixtures():
            rec = run_counterexample(cid, params)
            assert rec.status == expected, (cid, params, rec.status)

    def test_runs_the_instance_mode(self):
        # n = 3 fails the precondition of 3.5ii, yet forced through it is
        # still a paired-numbering question, not a weighted-rainbow cycle
        params = {"m": 7, "g": 0, "n": 3, "subset": 0}
        assert run_instance("3.5ii", params).status == "skipped-precondition"
        rec = run_counterexample("3.5ii", params)
        assert rec.status == "witness"
        assert len(rec.witness) == 6
        assert "both numberings" in rec.note
        assert replay_witness(rec)


class TestRunInstance:
    def test_witness_records_replay(self):
        cases = [
            ("3.13", {"n": 6}),
            ("3.15i", {"n": 5}),
            ("3.16", {"n": 3}),
            ("3.18b", {"n": 5}),
            ("filz", {"n": 6}),
            ("3.7i", {"q": 9}),
            ("3.10", {"q": 8, "a0": 3}),
            ("3.11", {"n": 9}),
            ("thm1.6-range", {"q": 17, "op": 0, "target": 1}),
        ]
        for cid, params in cases:
            rec = run_instance(cid, params)
            assert rec.status == "witness", (cid, params, rec.status)
            assert replay_witness(rec), (cid, params)

    def test_skip_record(self):
        rec = run_instance("3.11", {"n": 4})
        assert rec.status == "skipped-precondition"
        assert rec.witness is None and rec.nodes == 0

    def test_pair_record(self):
        rec = run_instance("3.5ii", {"m": 7, "g": 0, "n": 4, "subset": 0})
        assert rec.status == "witness"
        assert len(rec.witness) == 8
        assert replay_witness(rec)

    def test_pair_sweep_past_six_elements(self):
        # the 3.5ii sweep has no size cap: every instance up to order 36
        # is a witness at 20,000 label tries.  The walk finds all but whole
        # Z/6 x Z/6 and Z/3 x Z/12 (one instance each, recorded under three
        # seeds), which are answered with b = -a
        params = iter_params("3.5ii", 9, 36, 0)
        assert max(p["n"] for p in params) == 36
        recs = [run_instance("3.5ii", p, 20_000) for p in params]
        assert [r for r in recs if r.status != "witness"] == []
        negated = [(instance("3.5ii", r.params).ground.spec.moduli, r.params["n"])
                   for r in recs if r.note.endswith("b = -a")]
        assert negated == [((6, 6), 36)] * 3 + [((3, 12), 36)] * 3

    def test_pair_negation_on_a_whole_group(self, kernel_runs):
        # lex order finds no pairing of whole Z/6 x Z/6 in 1,000 tries
        params = {"m": 36, "g": 1, "n": 36, "seed": 0}
        rec = run_instance("3.5ii", params, 1_000)
        assert (rec.status, rec.nodes) == ("witness", 1_001)
        assert rec.note == "witness holds both numberings, a then b; b = -a"
        a, b = rec.witness[:36], rec.witness[36:]
        assert b == [[-x % 6, -y % 6] for x, y in a]
        assert replay_witness(rec)
        # a subset of the group gets no such fallback
        rec = run_instance("3.5ii", {**params, "n": 35}, 10)
        assert (rec.status, rec.witness) == ("budget", None)

    @pytest.mark.parametrize("g, moduli", [(1, (6, 6)), (3, (3, 12))])
    def test_pair_walk_on_a_whole_group_is_capped(self, monkeypatch, g, moduli):
        # the lex walk finds no pairing of these two whole groups, so at the
        # default budget it stops after the cap's tries and b = -a answers
        import permlab.conjectures as conjectures

        monkeypatch.setattr(conjectures, "_WHOLE_GROUP_ANSWERS", {})
        params = {"m": 36, "g": g, "n": 36, "seed": 0}
        assert instance("3.5ii", params).ground.spec.moduli == moduli
        rec = run_instance("3.5ii", params)
        assert (rec.status, rec.nodes) == ("witness", conjectures._WHOLE_GROUP_PAIR_TRIES + 1)
        assert rec.note.endswith("; b = -a")
        assert replay_witness(rec)

    @pytest.fixture
    def kernel_runs(self, monkeypatch):
        """An empty whole-group memo, and the sizes of the grounds that
        run_instance hands to the kernel from here on."""
        import permlab.conjectures as conjectures

        monkeypatch.setattr(conjectures, "_WHOLE_GROUP_ANSWERS", {})
        runs = []

        def counting(ground, *args):
            runs.append(len(ground))
            return search(ground, *args)

        monkeypatch.setattr(conjectures, "search", counting)
        return runs

    @staticmethod
    def _whole_group_params(cid, m, g):
        params = [p for p in iter_params(cid, m, m, 0) if p["g"] == g and p["n"] == m]
        assert [p["seed"] for p in params] == [0, 1, 2]
        return params

    def test_whole_group_is_searched_once(self, kernel_runs):
        # 3.3 over whole Z/3 x Z/3 fails its precondition, so 3.3 is taken
        # over whole Z/10
        for cid, m, g in (("3.3", 10, 0), ("3.6", 9, 1)):
            params = self._whole_group_params(cid, m, g)
            recs = [run_instance(cid, p, 10_000) for p in params]
            assert kernel_runs == [m]
            kernel_runs.clear()
            assert [r.params for r in recs] == params
            assert recs[0].status == "witness" and replay_witness(recs[2])
            assert all(replace(r, params=params[0]) == recs[0] for r in recs)
        recs = [run_instance("3.3", p) for p in self._whole_group_params("3.3", 9, 1)]
        assert {r.status for r in recs} == {"skipped-precondition"}
        assert kernel_runs == []

    def test_whole_group_again_under_another_budget_or_id(self, kernel_runs):
        p = self._whole_group_params("3.6", 9, 1)[0]
        first = run_instance("3.6", p, 10_000)
        again = run_instance("3.6", p, 20_000)  # the same witness, searched again
        assert replace(again, elapsed_ms=0) == replace(first, elapsed_ms=0)
        assert run_instance("3.4i", p, 10_000).conjecture == "3.4i"
        run_instance("3.6", p, 10_000)
        assert kernel_runs == [9, 9, 9]

    def test_subset_is_searched_every_time(self, kernel_runs):
        p = {"m": 9, "g": 1, "n": 8, "seed": 0}
        recs = [run_instance("3.6", p, 10_000) for _ in range(2)]
        assert kernel_runs == [8, 8]
        assert replace(recs[0], elapsed_ms=0) == replace(recs[1], elapsed_ms=0)

    def test_two_phase_records(self):
        rec = run_instance("3.2", {"n": 4, "m": 4, "subset": 0})
        assert rec.status in ("witness", "skipped-precondition")
        if rec.status == "witness":
            assert replay_witness(rec)

    def test_qr_mode(self):
        rec = run_instance("thm1.6-range", {"q": 5, "op": 0, "target": 0})
        assert rec.status == "exhausted"
        assert "no generator" in rec.note

    def test_qr_mode_rejects_a_bad_construction(self, monkeypatch):
        # the squares of F_13 in ascending order: 3 + 4 = 7 is a nonsquare.
        # The re-check must hold under python -O, so it is no assert.
        import permlab.conjectures as conjectures

        bad = Arrangement(PrimeField(13), CIRCULAR, (1, 3, 4, 9, 10, 12))
        monkeypatch.setattr(conjectures, "qr_cycle", lambda q, op, target: bad)
        with pytest.raises(RuntimeError, match=r"^qr_cycle produced an invalid arrangement: "
                                               r"label 7 at positions \(1, 2\) fails "):
            run_instance("thm1.6-range", {"q": 13, "op": 0, "target": 0})
        # (0, 1) passes the clause, but the instance is the six nonzero squares
        short = Arrangement(PrimeField(13), CIRCULAR, (0, 1))
        monkeypatch.setattr(conjectures, "qr_cycle", lambda q, op, target: short)
        with pytest.raises(RuntimeError, match=r"^qr_cycle produced an invalid arrangement: "):
            run_instance("thm1.6-range", {"q": 13, "op": 0, "target": 0})

    def test_pair_mode_rejects_a_bad_numbering(self, monkeypatch):
        # over Z/7, a = (0, 1, 2, 3) and b = (1, 0, 2, 3) give the labels
        # a_i + 2 b_i = 2, 1, 6, 2.  The re-check must hold under python -O.
        import permlab.conjectures as conjectures
        from permlab.search import SearchOutcome

        b = Arrangement(CyclicProduct((7,)), LINEAR, (1, 0, 2, 3))
        bad = SearchOutcome("witness", b, 1, 0)
        monkeypatch.setattr(conjectures, "search_pair_numbering", lambda ground, budget: bad)
        with pytest.raises(RuntimeError,
                           match=r"^search_pair_numbering produced an invalid numbering: "):
            run_instance("3.5ii", {"m": 7, "g": 0, "n": 4, "subset": 0})

    def test_qr_mode_searches_without_generator(self):
        # with no suitable generator the runner falls back to the exact
        # search, which finds these arrangements
        cases = [
            ({"q": 13, "op": 1, "target": 1}, (1, 3, 9, 4, 10, 12)),
            ({"q": 3, "op": 0, "target": 0}, (1,)),
            ({"q": 3, "op": 1, "target": 0}, (1,)),
            ({"q": 3, "op": 1, "target": 1}, (1,)),
        ]
        for params, elems in cases:
            rec = run_instance("thm1.6-range", params)
            assert rec.status == "witness", params
            assert "no generator" in rec.note
            assert [c[0] for c in rec.witness] == list(elems)
            assert replay_witness(rec)
        # these have no arrangement; the verdict now comes from the search
        for q, op, target in ((5, 0, 0), (5, 0, 1), (5, 1, 0), (7, 0, 0)):
            rec = run_instance("thm1.6-range", {"q": q, "op": op, "target": target})
            assert rec.status == "exhausted" and rec.nodes >= 1


@pytest.fixture
def fresh_memo(monkeypatch):
    monkeypatch.setattr(conjectures, "_WHOLE_GROUP_ANSWERS", {})


def _whole(m, g=0, seed=1, first=0):
    return {"m": m, "g": g, "n": m, "seed": seed, "first": first}


class TestSymmetricSequencing:
    """The symmetric walk answers a whole-group sequencing search that
    spends its budget, and nothing else."""

    DIFF = RainbowClause("diff")

    def test_settles_a_budget_answer(self, fresh_memo, monkeypatch):
        walks = []
        walk = conjectures.symmetric_sequencing
        monkeypatch.setattr(conjectures, "symmetric_sequencing",
                            lambda *a: walks.append(a) or walk(*a))
        recs = [run_instance("3.3", _whole(22, seed=s), 10_000) for s in (1, 2, 3)]
        assert len(walks) == 1  # the later seed names reuse the record
        for rec in recs:
            assert (rec.status, rec.nodes, rec.method, rec.steps) == (
                "witness", 10_001, "symmetric", 88)
            assert replay_witness(rec)
            d = rec.to_dict()
            assert list(d)[-2:] == ["method", "steps"]
            assert (d["method"], d["steps"]) == ("symmetric", 88)

    def test_a_definite_answer_keeps_its_record(self, fresh_memo):
        # whole Z/20 is a DFS witness at 5,241 nodes
        rec = run_instance("3.3", _whole(20), 10_000)
        assert (rec.status, rec.nodes, rec.method) == ("witness", 5_241, "")
        assert "method" not in rec.to_dict() and "steps" not in rec.to_dict()

    def test_a_walk_out_of_steps_keeps_the_budget(self, fresh_memo):
        # whole Z/3 x Z/12 needs 79,894 steps
        rec = run_instance("3.3", _whole(36, g=3), 10_000)
        assert instance("3.3", rec.params).ground.spec.moduli == (3, 12)
        assert (rec.status, rec.witness, rec.method) == ("budget", None, "")
        assert "method" not in rec.to_dict()
        rec = run_instance("3.3", _whole(36, g=3), 80_000)
        assert (rec.status, rec.steps) == ("witness", 79_894) and replay_witness(rec)

    def test_only_whole_group_sequencings(self, fresh_memo):
        # a subset, a sum line and a line of two clauses each keep their budget
        rec = run_instance("3.3", {"m": 22, "g": 0, "n": 21, "seed": 1, "first": 0}, 10)
        assert (rec.status, rec.method) == ("budget", "")
        inst = instance("3.3", _whole(22))
        for clauses in ((RainbowClause("sum"),), (self.DIFF, RainbowClause("sum"))):
            other = replace(inst, constraint=Constraint(clauses))
            assert conjectures._run_search("3.3", {}, other, 10).status == "budget"

    def test_a_pinned_first_is_honoured(self, fresh_memo):
        rec = run_instance("3.3", _whole(22, first=5), 10_000)
        assert (rec.status, rec.method) == ("witness", "symmetric")
        assert (rec.witness[0], rec.witness[-1]) == ([5], [16])
        assert replay_witness(rec)

    @pytest.mark.parametrize("first, last, ends", [
        (None, 3, (14, 3)), (4, 15, (4, 15)), (None, None, (0, 11))])
    def test_the_searched_constraint_is_met(self, first, last, ends):
        inst = instance("3.3", _whole(22))
        constraint = Constraint((self.DIFF,), first=first, last=last)
        rec = conjectures._run_search("3.3", {}, inst, 100, constraint)
        assert (rec.status, rec.nodes, rec.method) == ("witness", 101, "symmetric")
        assert (rec.witness[0], rec.witness[-1]) == ([ends[0]], [ends[1]])
        arr = Arrangement(inst.ground.spec, LINEAR, tuple(c[0] for c in rec.witness))
        assert check(arr, constraint).ok

    def test_pins_apart_by_other_than_the_involution(self):
        # the root deduction answers such a search exhausted, so the walk
        # is only asked directly
        inst = instance("3.3", _whole(22))
        constraint = Constraint((self.DIFF,), first=4, last=14)
        assert search(inst.ground, LINEAR, constraint, 100).status == "exhausted"
        assert conjectures._symmetric_record("3.3", {}, inst, constraint, 100, 101, 0, "") is None

    def test_an_invalid_walk_builds_no_record(self, monkeypatch):
        inst = instance("3.3", _whole(22))
        bad = Arrangement(inst.ground.spec, LINEAR, tuple(range(22)))
        monkeypatch.setattr(conjectures, "symmetric_sequencing", lambda spec, cap: (bad, 1))
        with pytest.raises(RuntimeError, match="invalid arrangement"):
            conjectures._run_search("3.3", {}, inst, 100)

    def test_two_campaigns_give_the_same_records(self, monkeypatch):
        def campaign():
            monkeypatch.setattr(conjectures, "_WHOLE_GROUP_ANSWERS", {})
            recs = [r.to_dict() for r in verify_range("3.3", 22, 22, budget=10_000)]
            for r in recs:
                r.pop("elapsed_ms")
            return recs

        first = campaign()
        assert [r.get("method") for r in first if r["params"]["n"] == 22] == ["symmetric"] * 3
        assert campaign() == first


class TestGroupGround:
    """Each group ground is built once per process."""

    def test_the_cache_gives_what_a_build_gives(self):
        ground = conjectures._group_ground
        for cid in ("3.3", "3.4i", "3.4ii", "3.5i", "3.6"):
            for seed in (1, 2):
                for p in iter_params(cid, 9, 36, seed):
                    how = "subset" if "subset" in p else "seed"
                    key = (p["m"], p.get("g", 0), p["n"], how, p[how])
                    assert instance(cid, p).ground == ground.__wrapped__(*key)[1]
                    assert ground(*key) is ground(*key)
        info = ground.cache_info()
        assert info.maxsize == 4096 and info.currsize <= info.maxsize

    @pytest.mark.parametrize("params, message", [
        ({"m": 40, "n": 3, "seed": 0}, "m = 40: the catalog has groups of order 2 to 36"),
        ({"n": 3, "seed": 0}, "needs 'm'"),
        ({"m": 20, "seed": 0}, "needs 'n'"),
        ({"m": 20, "n": 3}, "needs 'seed' or 'subset'"),
        ({"m": 20, "n": 30, "seed": 0}, "n = 30 is out of range"),
        ({"m": 20, "g": 1, "n": 3, "seed": 0}, "g = 1 is out of range"),
    ])
    def test_a_bad_parameter_is_named(self, params, message):
        before = conjectures._group_ground.cache_info().currsize
        with pytest.raises(ValueError, match=message):
            instance("3.4i", params)
        assert conjectures._group_ground.cache_info().currsize == before

    def test_seed_is_read_only_without_subset(self):
        p = {"m": 7, "g": 0, "n": 3, "subset": 4}
        assert instance("3.4i", {**p, "seed": 1}).ground == instance("3.4i", p).ground


class Test32Protocol:
    def test_distance_rainbow_exhausted_maps_to_skip(self):
        # 0..5 distance-rainbow cycles cannot exist (6 edges, 5 distances)
        from permlab.conjectures import _window_subsets

        subs = _window_subsets(4, 6)
        idx = subs.index((-2, -1, 0, 1, 2, 3))
        rec = run_instance("3.2", {"n": 6, "m": 4, "subset": idx})
        assert rec.status == "skipped-precondition"
        assert "vacuous" in rec.note


class TestVerifyRange:
    def test_stream_order_and_resume_keys(self):
        recs = list(verify_range("3.13", 1, 8))
        assert [r.params["n"] for r in recs] == list(range(1, 9))
        keys = {r.key() for r in recs}
        recs2 = list(verify_range("3.13", 1, 8, skip_keys=keys))
        assert recs2 == []

    def test_parallel_matches_serial(self):
        ser = [r.to_dict() for r in verify_range("3.13", 1, 10)]
        par = [r.to_dict() for r in verify_range("3.13", 1, 10, jobs=3)]
        assert len(ser) == len(par)
        for a, b in zip(ser, par):
            a.pop("elapsed_ms"), b.pop("elapsed_ms")
        assert ser == par

    @pytest.mark.parametrize("jobs,cpus,workers", [
        (500, 64, 3),  # no more workers than instances
        (500, 2, 2),  # nor than processors
        (2, 64, 2),
        (500, None, None),  # an unknown processor count runs serially
        (1, 64, None),
    ])
    def test_pool_size(self, monkeypatch, jobs, cpus, workers):
        # a stand-in executor that records its size and runs tasks inline,
        # so that no process is started
        sizes = []

        class Inline:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                fut = Future()
                fut.set_result(fn(*args))
                return fut

        monkeypatch.setattr(conjectures, "ProcessPoolExecutor", Inline)
        monkeypatch.setattr(conjectures.os, "cpu_count", lambda: cpus)
        recs = list(verify_range("3.13", 1, 3, jobs=jobs))
        assert [r.params["n"] for r in recs] == [1, 2, 3]
        assert sizes == ([] if workers is None else [workers])

    def test_thm16_range_17_to_60(self):
        for rec in verify_range("thm1.6-range", 17, 60):
            assert rec.status == "witness", rec.params
            assert replay_witness(rec)


class TestConstructionSearchAgreement:
    def test_311_odd_agrees(self):
        from permlab.constructions import coprime_circle_odd

        for n in (3, 5, 7, 9, 11, 13):
            inst = instance("3.11", {"n": n})
            arr = coprime_circle_odd(n)
            assert check(arr, inst.constraint).ok
            out = search(inst.ground, inst.shape, inst.constraint, 10**7)
            assert out.status == "witness"

    def test_thm16_agrees(self):
        from permlab.constructions import qr_cycle

        for q in (17, 29):
            for op_code, op in ((0, "sum"), (1, "diff")):
                for t_code, target in ((0, "S"), (1, "T")):
                    inst = instance(
                        "thm1.6-range", {"q": q, "op": op_code, "target": t_code}
                    )
                    arr = qr_cycle(q, op, target)
                    assert arr is not None
                    assert check(arr, inst.constraint).ok
                    out = search(inst.ground, inst.shape, inst.constraint, 10**7)
                    assert out.status == "witness"


class TestOracleSlices:
    def test_every_family_has_small_instances(self):
        for cid in CONJECTURE_IDS:
            assert oracle_params(cid), cid

    def test_circular_predicate_counts_match_oracle(self):
        # witness counts, not just verdicts: a kernel that loses witnesses
        # while still finding one would pass a verdict-only comparison
        checked = 0
        for cid in CONJECTURE_IDS:
            for params in oracle_params(cid):
                inst = instance(cid, params)
                if inst.mode == "pair" or inst.shape != CIRCULAR or len(inst.ground) > 7:
                    continue
                if not any(isinstance(c, PredicateClause) for c in inst.constraint.clauses):
                    continue
                out = search(inst.ground, inst.shape, inst.constraint, 10**7,
                             count_witnesses=True)
                cnt, _ = brute_force_enumerate(inst.ground, inst.shape, inst.constraint)
                assert out.witness_count == cnt, (cid, params)
                checked += 1
        assert checked >= 100

    def test_catalog_fence(self):
        """Every family's sweep, oracle slice, description and instances hash
        to the digests the catalog had when this test was written.  A change
        here changes campaign records; update a digest only on purpose."""
        got = {}
        for cid in CONJECTURE_IDS:
            lo, hi = CATALOG_RANGES[cid]
            h = hashlib.sha256(describe(cid).encode())
            params = iter_params(cid, lo, hi, 0) + iter_params(cid, lo, hi, 3)
            for p in params + oracle_params(cid):
                inst = instance(cid, p)
                spec = inst.ground.spec
                pinned = inst.pinned_constraint
                h.update(json.dumps([
                    p, spec_to_dict(spec), [element_coords(spec, x) for x in inst.ground.elements],
                    inst.shape, constraint_to_dict(inst.constraint, spec),
                    pinned and constraint_to_dict(pinned, spec),
                    inst.precondition_ok, inst.note, inst.mode,
                ], sort_keys=True).encode())
            got[cid] = h.hexdigest()[:16]
        assert got == CATALOG_DIGESTS

    def test_312_sweeps_n5_with_seeds(self):
        # the nonzero window {-2, -1, 1, 2} has 4 elements, so n = 5 is seeded
        for cid in ("3.12i", "3.12ii"):
            assert iter_params(cid, 5, 5, 2) == [{"n": 5, "seed": s} for s in (2, 3, 4)]
            assert iter_params(cid, 4, 4, 2)[0] == {"n": 4, "m": 2, "subset": 0}
            for p in iter_params(cid, 5, 5):
                assert len(instance(cid, p).ground) == 5
        assert iter_params("3.1", 7, 7)[0] == {"n": 7, "m": 4, "subset": 0, "first": 0}

    def test_iter_params_deterministic(self):
        a = iter_params("3.1", 3, 4)
        b = iter_params("3.1", 3, 4)
        assert a == b
