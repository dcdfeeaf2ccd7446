"""The contract between the solver and `perfbench/tracing.py`.

The benchmark's traced passes wrap solver functions by module attribute and
divide by the time spent in the factor kernels.  If the solver stops looking
a wrapped name up at call time, or renames it, the span never fires and the
traced run reports nothing for that layer or dies dividing by zero.  One
traced pass over small fixtures checks that the spans fire.
"""

import importlib
import sys
from pathlib import Path

import pytest

from infdiag import factors, solve
from infdiag.diagram import fixture, random_id, serialize

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# `evaluate` folds bare arrays, so these two kernels are wrapped but never
# called; the traced metrics built on them read 0.
NOT_CALLED = {"factors.combine_all", "factors.marginalize"}


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # keep perfbench/ clean
    monkeypatch.syspath_prepend(str(PERFBENCH))
    yield importlib.import_module("tracing")
    sys.modules.pop("tracing", None)


def test_one_traced_pass_fires_every_called_span(tracing):
    texts = [serialize(fixture("fig2")), serialize(fixture("fig3")),
             serialize(fixture("chain", 6)), serialize(random_id(8, 2, 3, 2, seed=0))]
    traced = tracing.TracedPasses()
    reports, counters = [], []
    traced.install()
    try:
        for text in texts:
            report, counter = traced.solve(text)
            reports.append(report)
            counters.append(counter)
    finally:
        traced.uninstall()
    assert solve.argmax_marginalize is factors.argmax_marginalize  # unwrapped again
    traced.end_pass(texts, reports, counters)
    spans = {span for _, _, span, _ in tracing.WRAPPED}
    assert "factors.argmax_marginalize" in spans
    silent = {span for span in spans if traced.calls[span] == 0}
    assert silent <= NOT_CALLED, sorted(silent - NOT_CALLED)
    metrics = traced.metrics(overhead_ratio=1.0, potential_ve_ms=0.0)
    assert metrics["factors.cells_per_s"][0] > 0
    events = metrics["rewrite.trace_events"][0]
    assert events == sum(r.trace_len for r in reports)
    assert events == sum(metrics[f"rewrite.rule.{r}"][0] for r in tracing.RULES)
