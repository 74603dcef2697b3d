"""Integration sweep: cost-based planning changes the clock, not the answer.

Every XMark benchmark query runs planner-off (the translator's shape)
and planner-on (edge orders chosen by the cost model) and must produce
the *same trees in the same order* — the reordered structural-join
cascade is invisible because variants are built in source edge order
whatever order the edges were joined in.  The planned plan must also
survive strict LC-flow linting: annotations never break the analyzer's
view of the plan.
"""

import pytest

from repro.planner import use_planner
from repro.xmark import FIGURE15_ORDER, QUERIES


def _run(engine, name, planner, optimize=False):
    with use_planner(planner):
        engine.db.reset_metrics()
        result = engine.run(
            QUERIES[name].text, engine="tlc", optimize=optimize
        )
        counters = engine.db.metrics.snapshot()
    return [tree.to_xml() for tree in result], counters


@pytest.mark.parametrize("name", FIGURE15_ORDER)
def test_planned_results_match_static(xmark_engine, name):
    static, _ = _run(xmark_engine, name, planner=False)
    planned, counters = _run(xmark_engine, name, planner=True)
    assert planned == static, f"{name}: the planner changed the result"
    assert counters["planner_plans"] >= 1
    # the static side never pays for planning
    _, static_counters = _run(xmark_engine, name, planner=False)
    assert static_counters["planner_plans"] == 0


@pytest.mark.parametrize("name", ("x5", "x9", "x12", "Q2", "x10a"))
def test_reordering_queries_stay_identical_and_lint(xmark_engine, name):
    """The queries the planner reorders (EXPERIMENTS E15), strictly."""
    static, _ = _run(xmark_engine, name, planner=False)
    with use_planner(True):
        xmark_engine.db.reset_metrics()
        result = xmark_engine.run(
            QUERIES[name].text, engine="tlc", strict=True
        )
        counters = xmark_engine.db.metrics.snapshot()
    assert [tree.to_xml() for tree in result] == static
    if name == "x9":  # the documented walkthrough query reorders here
        assert counters["planner_reorders"] == 1


@pytest.mark.parametrize("name", ("x8", "x10", "x10a", "x14", "x20"))
def test_optimized_pipeline_equivalence(xmark_engine, name):
    """Planning composes with the -O rewrites without changing results."""
    static, _ = _run(xmark_engine, name, planner=False, optimize=True)
    planned, _ = _run(xmark_engine, name, planner=True, optimize=True)
    assert planned == static
