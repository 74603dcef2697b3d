"""The physical planner: cost the alternatives, annotate the plan.

:func:`plan_physical` walks a translated TLC plan and makes one kind of
decision, each recorded as a :class:`~repro.planner.choice.PlanChoice`
(chosen shape, rejected shapes, costs, reason):

* **edge-order** — for every pattern node with two or more edges, the
  structural-join cascade order.  The candidate orders are costed with
  the interval-containment fan-out model (:mod:`repro.planner.cost`);
  when a cheaper order than the translator's source order exists, the
  node is annotated (``planner_order``) and the matcher processes its
  edges in that order — the witness trees are byte-identical because
  the order only decides how soon a mandatory edge prunes candidates:
  variants are always the per-edge alternatives multiplied in source
  edge order (see ``PatternMatcher._variants``).

Annotations are plain attributes on plan objects (``planner_order`` on
pattern nodes, ``planner_decision`` on the root), so a planned plan
pickles to workers and caches in the prepared-plan LRU unchanged.
"""

from __future__ import annotations

from typing import List, Union

from ..analysis.visitor import describe_op
from ..core.base import Operator
from ..core.select import SelectOp
from ..patterns.apt import APTNode
from ..storage.database import Database
from ..storage.stats import CardinalityStats
from .choice import Alternative, PlanChoice, PlanDecision
from .cost import CostModel, PatternEstimate, post_order

#: Fractional cost advantage a different shape must show before the
#: planner prefers it; absorbs model noise.
DECISION_MARGIN = 0.02


def _order_label(estimate: PatternEstimate, order: List[int]) -> str:
    return ", ".join(estimate.edges[i].describe() for i in order)


def _pattern_sites(op: SelectOp) -> List[APTNode]:
    """Pattern nodes of one Select with a join order to choose."""
    return [
        node for node in op.apt.root.walk() if len(node.edges) >= 2
    ]


def plan_physical(
    plan: Operator,
    database: Union[Database, CardinalityStats],
    metrics=None,
) -> PlanDecision:
    """Cost the physical alternatives of ``plan``; annotate the winners.

    ``database`` supplies the statistics (a loaded
    :class:`~repro.storage.database.Database` or a prebuilt
    :class:`~repro.storage.stats.CardinalityStats` snapshot).
    ``metrics`` is the :class:`~repro.storage.stats.Metrics` object
    whose planner counters the decision bumps; it defaults to the
    database's own and stays ``None`` (no counting) for a bare
    statistics snapshot.
    """
    if isinstance(database, CardinalityStats):
        stats = database
    else:
        stats = CardinalityStats.from_database(database)
        if metrics is None:
            metrics = database.metrics
    model = CostModel(stats)
    decision = PlanDecision()
    ops = post_order(plan)

    # ------------------------------------------------------------------
    # edge order, one choice per multi-edge pattern node
    # ------------------------------------------------------------------
    for op in ops:
        if not isinstance(op, SelectOp):
            continue
        doc = op.apt.doc
        for node in _pattern_sites(op):
            estimate = model.estimate_pattern(node, doc)
            source = list(range(len(node.edges)))
            source_cost = model.order_cost(estimate, source)
            best, best_cost = model.best_order(estimate)
            site = (
                f"{describe_op(op)} · pattern node "
                f"{node.test.tag or '*'} [lcl={node.lcl}]"
            )
            reorder = (
                best != source
                and best_cost < source_cost * (1.0 - DECISION_MARGIN)
            )
            if reorder:
                chosen = Alternative(
                    label=_order_label(estimate, best),
                    cost=round(best_cost, 1),
                    detail="planner order",
                )
                rejected = [
                    Alternative(
                        label="source order",
                        cost=round(source_cost, 1),
                        detail=_order_label(estimate, source),
                    )
                ]
                reason = (
                    "selective edges first: the reordered cascade "
                    f"carries {best_cost / max(source_cost, 1e-9):.0%} "
                    "of the source order's variant traffic"
                )
                decision.reordered_sites += 1
            else:
                best = source
                chosen = Alternative(
                    label="source order",
                    cost=round(source_cost, 1),
                    detail=_order_label(estimate, source),
                )
                worst_cost = source_cost
                worst: List[int] = source
                if len(node.edges) > 1:
                    for candidate in _order_extremes(model, estimate):
                        cost = model.order_cost(estimate, candidate)
                        if cost > worst_cost:
                            worst, worst_cost = candidate, cost
                rejected = (
                    [
                        Alternative(
                            label=_order_label(estimate, worst),
                            cost=round(worst_cost, 1),
                            detail="costliest order",
                        )
                    ]
                    if worst != source
                    else []
                )
                reason = "source order is already (near-)minimal"
            decision.choices.append(
                PlanChoice(
                    site=site,
                    kind="edge-order",
                    chosen=chosen,
                    rejected=rejected,
                    reason=reason,
                )
            )
            if best != source:
                node.planner_order = best
            elif getattr(node, "planner_order", None) is not None:
                node.planner_order = None

    rows = model.plan_rows(plan)
    decision.total_cost = sum(model.op_cost(op, rows) for op in ops)

    plan.planner_decision = decision
    if metrics is not None:
        metrics.planner_plans += 1
        metrics.planner_reorders += decision.reordered_sites
    return decision


def _order_extremes(
    model: CostModel, estimate: PatternEstimate
) -> List[List[int]]:
    """A small set of candidate orders to showcase as rejected shapes."""
    count = len(estimate.edges)
    source = list(range(count))
    reverse_greedy = sorted(
        source, key=lambda i: (-estimate.edges[i].fanout, i)
    )
    return [list(reversed(source)), reverse_greedy]
