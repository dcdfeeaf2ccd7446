"""Spans around the solver's public functions, and the per-layer metrics
derived from them.

The wrappers are installed from here, on the module attributes that
`solve_diagram` looks up at call time, and removed again after each traced
pass; the untraced passes run the unmodified functions.  A span records its
name, start, end and parent span.  A span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import math
from array import array
from collections import Counter
from time import perf_counter
from typing import Any, Callable, Sequence

import numpy as np

from infdiag import clusters, diagram, nodes, solve
from infdiag.factors import OpCounter

RULES = ("decompose-sum", "recompose-sum", "simplify-normalized", "drop-unit",
         "decompose-max", "recompose-max")
OP_KINDS = ("sum", "plus", "times", "max", "min")
KERNELS = ("factors.combine_all", "factors.marginalize", "factors.argmax_marginalize")

# (owner, attribute, span name, keep the return value for the pass summary)
WRAPPED: tuple[tuple[Any, str, str, bool], ...] = (
    (diagram, "parse", "diagram.parse", False),
    (solve, "store_for", "nodes.store_for", True),
    (nodes.NodeStore, "intern", "nodes.intern", False),
    (solve, "macrostructure", "rewrite.macrostructure", True),
    (solve, "assemble", "clusters.assemble", True),
    (clusters, "find_order", "clusters.find_order", False),
    (solve, "merge_clusters", "clusters.merge_clusters", True),
    (solve, "evaluate", "solve.evaluate", False),
    (solve, "extract_policies", "solve.extract_policies", False),
    (solve, "combine_all", "factors.combine_all", False),
    (solve, "marginalize", "factors.marginalize", False),
    (solve, "argmax_marginalize", "factors.argmax_marginalize", False),
)


class Tracer:
    """Spans kept in flat arrays; `kept` holds return values by span name."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.kept: dict[str, list[Any]] = {}
        self._stack: list[int] = []
        self.clear()

    def clear(self) -> None:
        self.name = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        for values in self.kept.values():
            values.clear()

    def wrap(self, name: str, fn: Callable, keep: bool = False) -> Callable:
        nid = len(self.names)
        self.names.append(name)
        stack = self._stack
        kept = self.kept.setdefault(name, []) if keep else None

        def traced(*args: Any, **kwargs: Any) -> Any:
            i = len(self.name)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.end.append(0.0)
            stack.append(i)
            self.start.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end[i] = perf_counter()
                stack.pop()
            if kept is not None:
                kept.append(out)
            return out

        return traced

    def self_times(self) -> tuple[Counter, Counter]:
        """(calls, self seconds) by span name for the spans recorded so far."""
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        has = parent >= 0
        child = np.bincount(parent[has], weights=dur[has], minlength=len(dur))
        own = np.bincount(name, weights=dur - child, minlength=len(self.names))
        calls = np.bincount(name, minlength=len(self.names))
        return (Counter({n: int(calls[i]) for i, n in enumerate(self.names)}),
                Counter({n: float(own[i]) for i, n in enumerate(self.names)}))


class TracedPasses:
    """Installs the wrappers for one pass at a time and sums what they saw."""

    def __init__(self) -> None:
        self.tracer = Tracer()
        self.wrappers = [(owner, attr, getattr(owner, attr),
                          self.tracer.wrap(span, getattr(owner, attr), keep))
                         for owner, attr, span, keep in WRAPPED]
        self.request_span = self.tracer.wrap("bench.request", self._request)
        self.solve_span = self.tracer.wrap("solve.solve_diagram", solve.solve_diagram)
        self.passes = 0
        self.calls: Counter = Counter()
        self.seconds: Counter = Counter()
        self.counts: Counter = Counter()
        self.width_max = 0
        self.max_cells = 0

    def _request(self, text: str, counter: OpCounter) -> solve.RunReport:
        return self.solve_span(diagram.parse(text), counter=counter)

    def solve(self, text: str) -> tuple[solve.RunReport, OpCounter]:
        counter = OpCounter()
        return self.request_span(text, counter), counter

    def install(self) -> None:
        for owner, attr, _, traced in self.wrappers:
            setattr(owner, attr, traced)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self.wrappers:
            setattr(owner, attr, original)

    def end_pass(self, texts: Sequence[str], reports: Sequence[solve.RunReport],
                 counters: Sequence[OpCounter]) -> None:
        calls, seconds = self.tracer.self_times()
        self.calls += calls
        self.seconds += seconds
        kept = self.tracer.kept
        c = self.counts
        c["parse_bytes"] += sum(len(t.encode()) for t in texts)
        c["store_nodes"] += sum(len(s.nodes) for s in kept["nodes.store_for"])
        c["dag_nodes"] += sum(r.node_count for r in reports)
        for _, trace in kept["rewrite.macrostructure"]:
            c["trace_events"] += len(trace)
            c.update("rule." + e.rule for e in trace)
        c["before_merge"] += sum(len(m.clusters) for m in kept["clusters.assemble"])
        for store, m in zip(kept["nodes.store_for"], kept["clusters.merge_clusters"]):
            c["after_merge"] += len(m.clusters)
            self.width_max = max(self.width_max, m.w_mcdag)
            for cl in m.clusters:
                cells = math.prod(store.sizes[v] for v in cl.V)
                c["cells"] += cells
                self.max_cells = max(self.max_cells, cells)
        for counter in counters:
            c["ops.total"] += counter.total
            c.update({f"ops.{k}": n for k, n in counter.by_kind.items()})
        self.passes += 1
        self.tracer.clear()

    def metrics(self, overhead_ratio: float, potential_ve_ms: float
                ) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, per traced pass; times are self times."""
        p = self.passes
        c = self.counts

        def ms(span: str) -> tuple[float, str]:
            return 1e3 * self.seconds[span] / p, "ms"

        def count(n: float) -> tuple[float, str]:
            return n / p, "count"

        kernel_s = sum(self.seconds[k] for k in KERNELS)
        out = {
            "diagram.parse_ms": ms("diagram.parse"),
            "diagram.parse_mb_per_s": (c["parse_bytes"] / 1e6 / self.seconds["diagram.parse"],
                                       "MB/s"),
            "nodes.intern_calls": count(self.calls["nodes.intern"]),
            "nodes.intern_ms": ms("nodes.intern"),
            "nodes.dag_nodes": count(c["dag_nodes"]),
            "nodes.useful_ratio": (c["dag_nodes"] / c["store_nodes"], "ratio"),
            "rewrite.macrostructure_ms": ms("rewrite.macrostructure"),
            "rewrite.trace_events": count(c["trace_events"]),
        }
        out.update({f"rewrite.rule.{r}": count(c["rule." + r]) for r in RULES})
        out.update({
            "clusters.assemble_ms": ms("clusters.assemble"),
            "clusters.find_order_ms": ms("clusters.find_order"),
            "clusters.find_order_calls": count(self.calls["clusters.find_order"]),
            "clusters.merge_ms": ms("clusters.merge_clusters"),
            "clusters.count_before_merge": count(c["before_merge"]),
            "clusters.count_after_merge": count(c["after_merge"]),
            "clusters.width_max": (self.width_max, "count"),
            "clusters.max_cells": (self.max_cells, "cells"),
            "clusters.total_cells": (c["cells"] / p, "cells"),
            "solve.evaluate_ms": ms("solve.evaluate"),
            "solve.policies_ms": ms("solve.extract_policies"),
            "solve.combine_all_per_cluster": (
                self.calls["factors.combine_all"] / c["after_merge"], "ratio"),
            "factors.combine_all_ms": ms("factors.combine_all"),
            "factors.marginalize_ms": ms("factors.marginalize"),
            "factors.argmax_marginalize_ms": ms("factors.argmax_marginalize"),
            "factors.ops.total": count(c["ops.total"]),
        })
        out.update({f"factors.ops.{k}": count(c["ops." + k]) for k in OP_KINDS})
        out["factors.cells_per_s"] = (c["ops.total"] / kernel_s, "cells/s")
        out["baseline.potential_ve_ms"] = (potential_ve_ms, "ms")
        out["trace.overhead_ratio"] = (overhead_ratio, "ratio")
        return out
