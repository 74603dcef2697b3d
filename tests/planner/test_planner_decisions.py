"""``plan_physical``: decisions, annotations, purity, counters.

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
from repro.planner.planner import currency_flow
from repro.storage.stats import CardinalityStats
from repro.xmark import QUERIES

X9 = QUERIES["x9"].text


def _decision(engine, query, **kwargs):
    translation = engine.plan(query)
    return translation.plan, plan_physical(
        translation.plan, engine.cardinality_stats(), **kwargs
    )


def test_every_choice_kind_appears_once_for_a_join_query(xmark_engine):
    _, decision = _decision(xmark_engine, X9)
    kinds = {choice.kind for choice in decision.choices}
    assert kinds == set(CHOICE_KINDS)
    # exactly one plan-level choice per plan-level kind
    assert len(decision.by_kind("currency")) == 1
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


def test_apply_false_never_mutates_the_plan(xmark_engine):
    plan, decision = _decision(xmark_engine, X9, apply=False)
    assert decision.reordered_sites == 1  # the decision still reports it
    for op in post_order(plan):
        assert getattr(op, "exec_mode", None) is None
        if isinstance(op, SelectOp):
            for node in op.apt.root.walk():
                assert getattr(node, "planner_order", None) is None
    assert getattr(plan, "exec_currency", None) is None
    assert getattr(plan, "planner_decision", None) is None


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
    _, decision = _decision(xmark_engine, X9, apply=False)
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


def test_observed_boundary_blowup_vetoes_the_batch_runtime(xmark_engine):
    """A measured boundary explosion flips the currency to per-tree."""
    translation = xmark_engine.plan(QUERIES["Q1"].text)
    plan = translation.plan
    stats = xmark_engine.cardinality_stats()
    baseline = plan_physical(plan, stats, apply=False)
    assert baseline.currency == "batch"
    from repro.planner.cost import CostModel

    model = CostModel(stats)
    ops = post_order(plan)
    native, consumers, _, _ = currency_flow(ops, model.plan_rows(plan))
    boundary_ops = [
        i
        for i, op in enumerate(ops)
        if native[id(op)]
        and any(not native[id(c)] for c in consumers[id(op)])
    ]
    assert boundary_ops, "Q1 should cross a tree<->column boundary"
    observed = {i: 10**9 for i in boundary_ops}
    flipped = plan_physical(plan, stats, observed=observed, apply=False)
    assert flipped.currency == "tree"
    (choice,) = flipped.by_kind("currency")
    assert choice.chosen.label == "tree"
    assert choice.rejected[0].label == "batch"


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
