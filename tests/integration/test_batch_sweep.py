"""Integration sweep: the batch runtime is invisible except in the clock.

Every XMark benchmark query runs with the batch runtime off (the
per-tree path) and on, and must produce the *same trees in the same
order*.  On top of output equality, the batch run must never do more
metered work than the per-tree path: staying columnar only ever removes
tree builds and index walks, never adds them.
"""

import pytest

from repro.bench.harness import WORK_COUNTERS
from repro.columns.batch import use_batch
from repro.xmark import FIGURE15_ORDER, QUERIES


def _run(engine, name, batch, optimize=False):
    with use_batch(batch):
        engine.db.reset_metrics()
        result = engine.run(
            QUERIES[name].text, engine="tlc", optimize=optimize
        )
        counters = engine.db.metrics.snapshot()
    return [tree.to_xml() for tree in result], counters


@pytest.mark.parametrize("name", FIGURE15_ORDER)
def test_batch_configurations_match_per_tree(xmark_engine, name):
    per_tree, tree_counters = _run(xmark_engine, name, batch=False)
    batched, batch_counters = _run(xmark_engine, name, batch=True)
    assert batched == per_tree, f"{name}: batch runtime changed the result"
    grew = {
        key: (tree_counters.get(key, 0), batch_counters.get(key, 0))
        for key in WORK_COUNTERS
        if batch_counters.get(key, 0) > tree_counters.get(key, 0)
    }
    assert not grew, f"{name}: batch runtime increased work counters {grew}"


@pytest.mark.parametrize("name", ("x8", "x10", "x10a", "x14", "x20"))
def test_optimized_pipeline_equivalence(xmark_engine, name):
    """The -O pipeline (Shadow/Illuminate, Flatten) stays equivalent too."""
    per_tree, _ = _run(xmark_engine, name, batch=False, optimize=True)
    batched, _ = _run(xmark_engine, name, batch=True, optimize=True)
    assert batched == per_tree


def test_batch_counters_meter_columnar_execution(xmark_engine):
    """A batch run advances batch_ops/batch_rows; the per-tree run none."""
    with use_batch(True):
        xmark_engine.db.reset_metrics()
        xmark_engine.run(QUERIES["x5"].text, engine="tlc")
        on = xmark_engine.db.metrics.snapshot()
    assert on["batch_ops"] > 0
    assert on["batch_rows"] > 0
    with use_batch(False):
        xmark_engine.db.reset_metrics()
        xmark_engine.run(QUERIES["x5"].text, engine="tlc")
        off = xmark_engine.db.metrics.snapshot()
    assert off["batch_ops"] == 0
    assert off["batch_rows"] == 0
    assert off["batch_fallbacks"] == 0


def test_fallback_metered_for_operators_without_batch_form(xmark_engine):
    """A join query crosses the boundary and meters batch_fallbacks."""
    with use_batch(True):
        xmark_engine.db.reset_metrics()
        xmark_engine.run(QUERIES["Q1"].text, engine="tlc")
        counters = xmark_engine.db.metrics.snapshot()
    assert counters["batch_fallbacks"] > 0


def test_trace_marks_columnar_operators(xmark_engine):
    """EXPLAIN ANALYZE shows which plan region stayed batch-at-a-time."""
    from repro.trace.render import render_trace_json, trace_to_json

    with use_batch(True):
        report = xmark_engine.measure(
            QUERIES["x5"].text, engine="tlc", trace=True, label="x5"
        )
    trace = report.trace
    flags = {record.name: record.batch for record in trace.records}
    assert flags["Filter"] and flags["Aggregate"]
    # Construct consumes columns but emits trees: not marked columnar
    assert not flags["Construct"]
    rendered = trace.render()
    assert "batch" in rendered
    # the batch flag survives the JSON round trip
    assert render_trace_json(trace_to_json(trace)) == rendered
