"""Spans around the calls into each layer, recorded from outside the program.

A traced instance wraps its oracle's `query`, `find_separator` and
`separable`, wraps its leaf solver, and rebinds `sada.framework`'s
`find_causal_cut` and `merge_results` for the length of the run. Spans are
kept in memory (name, start, end, parent span, instance id) and written out
once at the end; self times and counters are accumulated as spans close.
"""

import statistics
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter_ns

import numpy as np

import sada.framework
from sada.citest import CiError, ExactCiOracle


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.span_name = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("i")
        self.span_instance = array("i")
        self._open = []  # [span index, nanoseconds covered by closed children]
        self.instance = -1
        self.total_ns = Counter()
        self.self_ns = Counter()
        self.calls = Counter()
        self.counts = Counter()
        self.samples = defaultdict(list)
        self._cut_depth = {}
        self._searching = False

    def begin(self, name: str) -> None:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self._open[-1][0] if self._open else -1)
        self.span_instance.append(self.instance)
        self.span_end.append(0)
        self._open.append([idx, 0])
        self.span_start.append(perf_counter_ns())

    def end(self, name: str) -> None:
        now = perf_counter_ns()
        idx, covered = self._open.pop()
        self.span_end[idx] = now
        dur = now - self.span_start[idx]
        self.total_ns[name] += dur
        self.self_ns[name] += dur - covered
        self.calls[name] += 1
        if self._open:
            self._open[-1][1] += dur

    @contextmanager
    def span(self, name: str):
        self.begin(name)
        try:
            yield
        finally:
            self.end(name)

    @contextmanager
    def installed(self, inst):
        """Trace one instance: wrap its oracle and solver and rebind the
        framework's cut search and merge until the block exits."""
        fw = sada.framework
        saved = fw.find_causal_cut, fw.merge_results
        fw.find_causal_cut = self._traced_cut(saved[0])
        fw.merge_results = self._traced_merge(saved[1])
        self._wrap_oracle(inst.oracle)
        inst.solver = self._traced_solver(inst.solver)
        self._cut_depth.clear()
        try:
            yield
        finally:
            fw.find_causal_cut, fw.merge_results = saved
            self.counts["citest.distinct"] += len(getattr(inst.oracle, "_cache", ()))
            if isinstance(inst.oracle, ExactCiOracle):
                self.counts["graph.dsep_distinct"] += len(inst.oracle.graph._dsep_cache)

    def _wrap_oracle(self, oracle):
        query, find_separator, separable = oracle.query, oracle.find_separator, oracle.separable
        cache = getattr(oracle, "_cache", None)
        counts = self.counts

        def traced_query(u, v, z=()):
            counts[f"citest.queries_z{min(len(z), 3)}"] += 1
            before = None if cache is None else len(cache)
            self.begin("citest.query")
            try:
                verdict = query(u, v, z)
            except CiError as exc:
                counts[f"citest.refused.{type(exc).__name__}"] += 1
                raise
            finally:
                self.end("citest.query")
            if cache is not None and len(cache) == before:
                counts["citest.hits"] += 1
            return verdict

        def outermost_search(search, found):
            # the generic `separable` calls `find_separator` on the oracle,
            # which is wrapped too: only the outermost search is counted
            def traced(u, v, candidates, max_cond=3):
                if self._searching:
                    return search(u, v, candidates, max_cond)
                self._searching = True
                self.begin("citest.search")
                try:
                    out = search(u, v, candidates, max_cond)
                finally:
                    self.end("citest.search")
                    self._searching = False
                counts["citest.search_found"] += found(out)
                return out
            return traced

        oracle.query = traced_query
        oracle.find_separator = outermost_search(find_separator, lambda sep: sep is not None)
        oracle.separable = outermost_search(separable, bool)

    def _traced_solver(self, solver):
        def traced(data, variables):
            self.samples["leaf_size"].append(len(variables))
            self.begin("solvers.leaf")
            try:
                return solver(data, variables)
            finally:
                self.end("solvers.leaf")
        return traced

    def _traced_cut(self, find_causal_cut):
        depths = self._cut_depth

        def traced(oracle, variables, cfg, rng=None):
            depth = depths.pop(tuple(variables), 0)
            self.begin("framework.cut")
            try:
                cut = find_causal_cut(oracle, variables, cfg, rng=rng)
            finally:
                self.end("framework.cut")
            if cut is not None:
                self.counts["framework.cut_found"] += 1
                self.samples["cut_min_side"].append(cut.min_side)
                self.samples["cut_set"].append(len(cut.cut_set))
                self.samples["cut_depth"].append(depth + 1)
                for side in (cut.left, cut.right):
                    depths[tuple(sorted(side | cut.cut_set))] = depth + 1
            return cut
        return traced

    def _traced_merge(self, merge_results):
        def traced(g1, g2, oracle, max_cond=3):
            self.begin("framework.merge")
            try:
                merged = merge_results(g1, g2, oracle, max_cond=max_cond)
            finally:
                self.end("framework.merge")
            self.counts["framework.merge_in"] += len(g1.pairs() | g2.pairs())
            self.counts["framework.merge_kept"] += len(merged)
            return merged
        return traced

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path, names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            start_ns=np.frombuffer(self.span_start, dtype=np.int64),
            end_ns=np.frombuffer(self.span_end, dtype=np.int64),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            instance=np.frombuffer(self.span_instance, dtype=np.int32))

    def layer_metrics(self, kind: str, instances: int, untraced_solve_ns: int) -> dict:
        """Per-layer metrics as (value, unit); counts and times are per
        traced instance, ratios, medians and maxima are over the whole run."""
        per = max(instances, 1)
        c, calls = self.counts, self.calls

        def secs(counter, name):
            return counter[name] / 1e9 / per

        def ratio(num, den):
            return num / den if den else 0.0

        def p50(key):
            return float(statistics.median(self.samples[key])) if self.samples[key] else 0.0

        queries = calls["citest.query"]
        search_self = secs(self.self_ns, "citest.search")
        traced_solve_ns = self.total_ns["instance"]
        return {
            "citest.queries": (queries / per, "count"),
            **{f"citest.queries_z{z}": (c[f"citest.queries_z{z}"] / per, "count") for z in range(4)},
            "citest.query_s": (secs(self.self_ns, "citest.query"), "s"),
            "citest.query_us": (ratio(self.self_ns["citest.query"] / 1e3, queries), "us"),
            "citest.refused_unreliable": (c["citest.refused.UnreliableTestError"] / per, "count"),
            "citest.refused_singular": (c["citest.refused.SingularConditioningError"] / per, "count"),
            "citest.refused_insufficient": (c["citest.refused.InsufficientSamplesError"] / per, "count"),
            "citest.distinct": (c["citest.distinct"] / per, "count"),
            "citest.hit_ratio": (ratio(c["citest.hits"], queries), "1"),
            "citest.search_calls": (calls["citest.search"] / per, "count"),
            "citest.search_found_ratio": (ratio(c["citest.search_found"], calls["citest.search"]), "1"),
            "citest.search_self_s": (search_self, "s"),
            "graph.dsep_s": (search_self if kind == "oracle" else 0.0, "s"),
            "graph.dsep_distinct": (c["graph.dsep_distinct"] / per, "count"),
            "graph.generate_s": (secs(self.total_ns, "graph.generate"), "s"),
            "synth.generate_s": (secs(self.total_ns, "synth.generate"), "s"),
            "solvers.leaf_calls": (calls["solvers.leaf"] / per, "count"),
            "solvers.leaf_s": (secs(self.total_ns, "solvers.leaf"), "s"),
            "solvers.leaf_size_p50": (p50("leaf_size"), "vars"),
            "solvers.leaf_size_max": (float(max(self.samples["leaf_size"], default=0)), "vars"),
            "solvers.flat_s": (secs(self.total_ns, "solvers.flat"), "s"),
            "framework.cut_calls": (calls["framework.cut"] / per, "count"),
            "framework.cut_found_ratio": (ratio(c["framework.cut_found"], calls["framework.cut"]), "1"),
            "framework.cut_s": (secs(self.total_ns, "framework.cut"), "s"),
            "framework.cut_self_s": (secs(self.self_ns, "framework.cut"), "s"),
            "framework.cut_min_side_p50": (p50("cut_min_side"), "vars"),
            "framework.cut_set_p50": (p50("cut_set"), "vars"),
            "framework.cut_depth_max": (float(max(self.samples["cut_depth"], default=0)), "count"),
            "framework.merge_calls": (calls["framework.merge"] / per, "count"),
            "framework.merge_s": (secs(self.total_ns, "framework.merge"), "s"),
            "framework.merge_self_s": (secs(self.self_ns, "framework.merge"), "s"),
            "framework.merge_kept_ratio": (ratio(c["framework.merge_kept"], c["framework.merge_in"]), "1"),
            "framework.driver_self_s": (secs(self.self_ns, "instance"), "s"),
            "framework.cleanup_s": (secs(self.total_ns, "framework.cleanup"), "s"),
            "trace.solve_s": (traced_solve_ns / 1e9 / per, "s"),
            "trace.baseline_s": ((self.total_ns["solvers.flat"] + self.total_ns["framework.cleanup"])
                                 / 1e9 / per, "s"),
            "trace.overhead_ratio": (ratio(traced_solve_ns, untraced_solve_ns) - 1.0, "1"),
            "trace.instances": (float(instances), "count"),
        }
