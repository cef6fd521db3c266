"""Spans and counters around calls into permlab, installed from outside.

The tracer replaces functions in the namespaces of freshly imported permlab
modules (every module that binds the function, since `from x import f`
copies the binding) and in this benchmark's workloads module.  It is only
installed in traced rounds; an untraced round runs the modules as imported.

Spans are (name, start, end, parent index, answer id), kept in memory and
written out when the run ends.  Hot functions are counted, never timed: a
span around every group operation would swamp the trace.
"""

from __future__ import annotations

import functools
import json
from collections import Counter
from time import perf_counter

PREDICATE_FUNCTIONS = ("predicate_allows", "eval_predicate")
GROUP_OPS = ("group_add", "group_sub", "group_mul", "group_double")

# per-layer metric and its unit, in printed order
LAYER_METRICS = {
    "conjectures.plan_ms": "ms",
    "conjectures.instance_ms": "ms",
    "search.calls": "count",
    "search.self_s": "s",
    "search.nodes": "count",
    "search.nodes_per_s": "1/s",
    "search.witness": "count",
    "search.exhausted": "count",
    "search.budget": "count",
    "search.adjacency_ms": "ms",
    "search.check_ms": "ms",
    "search.check_calls": "count",
    "numtheory.table_ms": "ms",
    "numtheory.predicate_calls": "count",
    "numtheory.factorize_calls": "count",
    "algebra.field_view_ms": "ms",
    "algebra.group_op_calls": "count",
    "constructions.build_ms": "ms",
    "cli.write_ms": "ms",
    "cli.bytes_written": "B",
    "trace.run_s": "s",
    "trace.overhead_pct": "%",
}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.answer = -1

    def timed(self, name, fn, on_result=None):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, self.answer)
            if on_result is not None:
                on_result(out)
            return out

        return wrapper

    def counted(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # --- installation ------------------------------------------------------------

    def install(self, mods, bench_workloads):
        namespaces = list(vars(mods).values())
        conj, S, nt, alg, K = mods.conjectures, mods.search, mods.numtheory, mods.algebra, mods.constructions

        def swap(obj, new):
            for ns in namespaces:
                for key, val in list(vars(ns).items()):
                    if val is obj:
                        setattr(ns, key, new)

        swap(conj.iter_params, self.timed("conjectures.plan", conj.iter_params))
        swap(conj.instance, self.timed("conjectures.instance", conj.instance))
        swap(S.search, self.timed("search.search", S.search, self._search_result))
        swap(S._compile_adjacency, self.timed("search.adjacency", S._compile_adjacency))
        swap(S.check, self.timed("search.check", S.check))
        nt.PredicateTable.__init__ = self.timed("numtheory.table", nt.PredicateTable.__init__)
        nt.PredicateTable.lookup = self.counted("numtheory.predicate", nt.PredicateTable.lookup)
        for name in PREDICATE_FUNCTIONS:
            swap(getattr(nt, name), self.counted("numtheory.predicate", getattr(nt, name)))
        swap(nt.factorize, self.counted("numtheory.factorize", nt.factorize))
        # only a cache miss builds tables, so time the function the cache wraps
        uncached = alg.field_view.__wrapped__
        swap(alg.field_view, functools.lru_cache(maxsize=None)(self.timed("algebra.field_view", uncached)))
        for name in GROUP_OPS:
            swap(getattr(alg, name), self.counted("algebra.group_op", getattr(alg, name)))
        for name in K.__all__:  # the ten builders
            swap(getattr(K, name), self.timed("constructions.build", getattr(K, name)))
        bench_workloads.write_record = self.timed(
            "cli.write", bench_workloads.write_record, self._written)

    def _search_result(self, out):
        self.counts["search.nodes"] += out.nodes
        self.counts["search." + out.status] += 1

    def _written(self, line):
        self.counts["cli.bytes_written"] += len(line.encode()) + 1

    # --- figures -----------------------------------------------------------------------

    def figures(self) -> dict:
        """Per-layer figures of one traced round."""
        total = Counter()
        calls = Counter()
        child = [0.0] * len(self.spans)
        outer_build = [None] * len(self.spans)
        check_in_build = 0.0
        for i, (name, t0, t1, parent, _) in enumerate(self.spans):
            d = t1 - t0
            total[name] += d
            calls[name] += 1
            if parent >= 0:
                child[parent] += d
                outer_build[i] = outer_build[parent]
            if name == "constructions.build" and outer_build[i] is None:
                outer_build[i] = i
            elif name == "search.check" and outer_build[i] is not None:
                check_in_build += d
        search_self = sum(
            (t1 - t0) - child[i]
            for i, (name, t0, t1, _, _) in enumerate(self.spans)
            if name == "search.search"
        )
        outer = sum(
            t1 - t0 for i, (name, t0, t1, _, _) in enumerate(self.spans)
            if name == "constructions.build" and outer_build[i] == i
        )
        nodes = self.counts["search.nodes"]
        return {
            "conjectures.plan_ms": 1e3 * total["conjectures.plan"],
            "conjectures.instance_ms": 1e3 * total["conjectures.instance"],
            "search.calls": calls["search.search"],
            "search.self_s": search_self,
            "search.nodes": nodes,
            "search.nodes_per_s": nodes / search_self if search_self > 0 else 0.0,
            "search.witness": self.counts["search.witness"],
            "search.exhausted": self.counts["search.exhausted"],
            "search.budget": self.counts["search.budget"],
            "search.adjacency_ms": 1e3 * total["search.adjacency"],
            "search.check_ms": 1e3 * total["search.check"],
            "search.check_calls": calls["search.check"],
            "numtheory.table_ms": 1e3 * total["numtheory.table"],
            "numtheory.predicate_calls": self.counts["numtheory.predicate"],
            "numtheory.factorize_calls": self.counts["numtheory.factorize"],
            "algebra.field_view_ms": 1e3 * total["algebra.field_view"],
            "algebra.group_op_calls": self.counts["algebra.group_op"],
            "constructions.build_ms": 1e3 * (outer - check_in_build),
            "cli.write_ms": 1e3 * total["cli.write"],
            "cli.bytes_written": self.counts["cli.bytes_written"],
        }

    def dump(self, fh, round_no: int):
        for name, t0, t1, parent, answer in self.spans:
            fh.write(json.dumps({"round": round_no, "answer": answer, "name": name,
                                 "start": t0, "end": t1, "parent": parent}) + "\n")
