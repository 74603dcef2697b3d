"""The physical planner: cost the alternatives, annotate the plan.

:func:`plan_physical` walks a translated TLC plan and makes two kinds
of decision, each recorded as a :class:`~repro.planner.choice.PlanChoice`
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
* **currency** — trees or columns.  Operators with a native columnar
  form save per row, crossing a tree<->column boundary costs per row;
  the planner sums both over the estimated row flow and keeps the batch
  runtime only when it pays.  Individual columnar operators stranded
  between per-tree neighbours ("islands") are vetoed back to per-tree
  execution even inside a batch plan.

Annotations are plain attributes on plan objects (``planner_order`` on
pattern nodes, ``exec_mode`` on operators, ``exec_currency``/
``planner_decision`` on the root), so a planned plan pickles to
workers and caches in the prepared-plan LRU unchanged.
Passing ``apply=False`` costs the alternatives without touching the
plan — the feedback loop's re-costing mode.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Union

from ..analysis.visitor import describe_op
from ..core.base import Operator
from ..core.select import SelectOp
from ..patterns.apt import APTNode
from ..storage.database import Database
from ..storage.stats import CardinalityStats
from .calibration import active as active_calibration
from .calibration import calibrated
from .choice import Alternative, PlanChoice, PlanDecision
from .cost import (
    TREE_VETO_MARGIN,
    CostModel,
    PatternEstimate,
    post_order,
)

#: Fractional cost advantage a different shape must show before the
#: planner (or the feedback re-coster) prefers it; absorbs model noise.
DECISION_MARGIN = 0.02


def _order_label(estimate: PatternEstimate, order: List[int]) -> str:
    return ", ".join(estimate.edges[i].describe() for i in order)


def _has_native_batch(op: Operator) -> bool:
    """Whether ``op`` overrides the materialising ``execute_batch``."""
    return type(op).execute_batch is not Operator.execute_batch


def _pattern_sites(op: SelectOp) -> List[APTNode]:
    """Pattern nodes of one Select with a join order to choose."""
    return [
        node for node in op.apt.root.walk() if len(node.edges) >= 2
    ]


def currency_flow(
    ops: List[Operator], rows: Dict[int, float]
) -> Tuple[Dict[int, bool], Dict[int, List[Operator]], float, float]:
    """Row flow of the currency decision, shared with the re-coster.

    Returns ``(native, consumers, columnar_rows, boundary_rows)``:
    which operators have a native columnar form, who consumes whom, how
    many estimated rows flow through native operators (the saving side)
    and how many cross a tree<->column boundary (the conversion side).
    """
    native = {id(op): _has_native_batch(op) for op in ops}
    consumers: Dict[int, List[Operator]] = {id(op): [] for op in ops}
    for op in ops:
        for child in op.inputs:
            consumers[id(child)].append(op)
    columnar_rows = sum(rows[id(op)] for op in ops if native[id(op)])
    boundary_rows = 0.0
    for op in ops:
        if native[id(op)]:
            # a per-tree (or absent) consumer materialises this output
            if any(not native[id(c)] for c in consumers[id(op)]):
                boundary_rows += rows[id(op)]
        else:
            # a fallback operator materialises its columnar inputs
            boundary_rows += sum(
                rows[id(child)]
                for child in op.inputs
                if native[id(child)]
            )
    return native, consumers, columnar_rows, boundary_rows


def plan_physical(
    plan: Operator,
    database: Union[Database, CardinalityStats],
    observed: Optional[Dict[int, int]] = None,
    apply: bool = True,
    metrics=None,
) -> PlanDecision:
    """Cost the physical alternatives of ``plan``; annotate the winners.

    ``database`` supplies the statistics (a loaded
    :class:`~repro.storage.database.Database` or a prebuilt
    :class:`~repro.storage.stats.CardinalityStats` snapshot).
    ``observed`` optionally maps tracer post-order operator indexes to
    measured output cardinalities (the feedback loop's corrections).
    With ``apply=False`` nothing is mutated — the decision reports what
    the planner *would* do.  ``metrics`` is the
    :class:`~repro.storage.stats.Metrics` object whose planner counters
    an applied decision bumps; it defaults to the database's own and
    stays ``None`` (no counting) for a bare statistics snapshot.
    """
    if isinstance(database, CardinalityStats):
        stats = database
    else:
        stats = CardinalityStats.from_database(database)
        if metrics is None:
            metrics = database.metrics
    model = CostModel(stats, observed=observed)
    if active_calibration() is not None:
        from ..telemetry.hooks import instrument

        instrument("calibration.applied")
    decision = PlanDecision()
    ops = post_order(plan)
    op_index = {id(op): i for i, op in enumerate(ops)}
    rows = model.plan_rows(plan)

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
                    op_index=op_index[id(op)],
                )
            )
            if apply:
                if best != source:
                    node.planner_order = best
                elif getattr(node, "planner_order", None) is not None:
                    node.planner_order = None

    # ------------------------------------------------------------------
    # operator currency: trees vs columns, plus per-operator vetoes
    # ------------------------------------------------------------------
    native, consumers, columnar_rows, boundary_rows = currency_flow(
        ops, rows
    )
    batch_saving = calibrated("batch_saving_per_row") * columnar_rows
    batch_price = calibrated("batch_convert_per_row") * boundary_rows
    # batch is the measured default (EXPERIMENTS E20); the veto to
    # per-tree execution needs the conversion price to *clearly* dominate
    batch_wins = batch_price <= batch_saving * TREE_VETO_MARGIN
    decision.currency = "batch" if batch_wins else "tree"
    vetoes: List[int] = []
    if batch_wins:
        for op in ops:
            if not native[id(op)] or not op.inputs:
                continue
            stranded = all(not native[id(c)] for c in op.inputs) and (
                consumers[id(op)]
                and all(not native[id(c)] for c in consumers[id(op)])
            )
            if stranded:
                vetoes.append(op_index[id(op)])
    decision.tree_vetoes = vetoes
    decision.choices.append(
        PlanChoice(
            site="plan",
            kind="currency",
            chosen=Alternative(
                label=decision.currency,
                cost=round(
                    batch_price - batch_saving if batch_wins else 0.0, 1
                ),
                detail=(
                    f"{len(vetoes)} stranded columnar operator(s) "
                    "vetoed to per-tree"
                    if vetoes
                    else "whole plan"
                ),
            ),
            rejected=[
                Alternative(
                    label="tree" if batch_wins else "batch",
                    cost=round(
                        0.0 if batch_wins else batch_price - batch_saving,
                        1,
                    ),
                    detail=(
                        f"columnar rows {columnar_rows:,.0f}, "
                        f"boundary rows {boundary_rows:,.0f}"
                    ),
                )
            ],
            reason=(
                f"columnar saving {batch_saving:,.0f} vs conversion "
                f"price {batch_price:,.0f} work units "
                f"(veto margin {TREE_VETO_MARGIN:g}x)"
            ),
        )
    )

    decision.total_cost = sum(model.op_cost(op, rows) for op in ops)

    if apply:
        veto_set = set(vetoes)
        for index, op in enumerate(ops):
            wants_tree = index in veto_set or not batch_wins
            if wants_tree and native[id(op)]:
                op.exec_mode = "tree"
            elif getattr(op, "exec_mode", None) is not None:
                op.exec_mode = None
        plan.exec_currency = decision.currency
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
