"""``plan_physical``: decisions, annotations, counters.

The walkthrough query is x9 — the same one docs/PLANNING.md narrates —
whose person-side pattern node joins ``//itemref`` and ``//buyer`` in an
order the statistics say is backwards.
"""

import pytest

from repro.core.select import SelectOp
from repro.patterns.apt import APT, pattern_node
from repro.planner import (
    CHOICE_KINDS,
    PlanDecision,
    plan_physical,
    post_order,
)
from repro.storage.stats import CardinalityStats
from repro.xmark import QUERIES

X9 = QUERIES["x9"].text


def _decision(engine, query):
    translation = engine.plan(query)
    return translation.plan, plan_physical(
        translation.plan, engine.cardinality_stats()
    )


def test_every_choice_kind_appears_once_for_a_join_query(xmark_engine):
    _, decision = _decision(xmark_engine, X9)
    kinds = {choice.kind for choice in decision.choices}
    assert kinds == set(CHOICE_KINDS)
    assert decision.total_cost > 0


def test_x9_reorders_its_join_site_and_annotates_the_node(xmark_engine):
    plan, decision = _decision(xmark_engine, X9)
    assert decision.reordered_sites == 1
    annotated = [
        node
        for op in post_order(plan)
        if isinstance(op, SelectOp)
        for node in op.apt.root.walk()
        if getattr(node, "planner_order", None) is not None
    ]
    assert len(annotated) == 1
    source = list(range(len(annotated[0].edges)))
    assert annotated[0].planner_order != source
    # the chosen-vs-rejected record says why, with both costs
    (choice,) = [c for c in decision.by_kind("edge-order") if c.changed]
    assert choice.chosen.cost < choice.rejected[0].cost
    assert "selective edges first" in choice.reason


def test_replanning_clears_a_stale_annotation():
    """Symmetric statistics: source order is minimal, annotation drops."""
    stats = CardinalityStats(
        tag_counts={"d": {"a": 10, "b": 10, "c": 10}}, totals={"d": 30}
    )
    root = pattern_node("a", 1)
    root.add_edge(pattern_node("b", 2))
    root.add_edge(pattern_node("c", 3))
    select = SelectOp(APT(root, doc="d"))
    root.planner_order = [1, 0]  # a stale annotation from another model
    decision = plan_physical(select, stats)
    assert decision.reordered_sites == 0
    assert root.planner_order is None
    (choice,) = decision.by_kind("edge-order")
    assert choice.chosen.label == "source order"
    assert not choice.changed


def test_decision_record_round_trips_through_json(xmark_engine):
    _, decision = _decision(xmark_engine, X9)
    payload = decision.to_dict()
    assert payload["version"] == 1
    again = PlanDecision.from_dict(payload)
    assert again.to_dict() == payload
    assert again.summary() == decision.summary()


def test_engine_plan_bumps_the_planner_counters(xmark_engine):
    xmark_engine.db.reset_metrics()
    xmark_engine.plan(X9, planner=True)
    counters = xmark_engine.db.metrics.snapshot()
    assert counters["planner_plans"] == 1
    assert counters["planner_reorders"] == 1
    xmark_engine.db.reset_metrics()
    xmark_engine.plan(X9, planner=False)
    counters = xmark_engine.db.metrics.snapshot()
    assert counters["planner_plans"] == 0


def test_planned_output_stays_byte_identical_and_lints(xmark_engine):
    """The planner's annotations survive strict LC-flow linting."""
    static = xmark_engine.run(X9, engine="tlc", planner=False)
    planned = xmark_engine.run(X9, engine="tlc", planner=True, strict=True)
    assert [t.to_xml() for t in planned] == [t.to_xml() for t in static]


@pytest.mark.parametrize("name", ("x1", "x5", "x9", "Q1", "Q2"))
def test_planning_is_idempotent(xmark_engine, name):
    """Planning an already-planned plan decides the same shape."""
    translation = xmark_engine.plan(QUERIES[name].text)
    stats = xmark_engine.cardinality_stats()
    first = plan_physical(translation.plan, stats)
    second = plan_physical(translation.plan, stats)
    assert second.to_dict() == first.to_dict()
