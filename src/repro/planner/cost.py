"""The cost model: selectivity estimates over index statistics.

Everything here is arithmetic over :class:`~repro.storage.stats.CardinalityStats`
(exact per-tag node counts snapshotted from the tag indexes) — no query
is executed to produce an estimate.  Costs are abstract *work units*
(items touched), not seconds: the skip-aware merge cursor reads each
side of a structural join once and writes its output, so one unit is
"one posting/variant handled".  Absolute units do not matter — every
choice the planner makes compares alternatives under the same model, so
only ratios count.

Pattern-match cost (the join-order decision)
--------------------------------------------

Matching one annotated pattern node cascades one structural join per
edge, carrying the surviving *variants* forward.  For a node with raw
candidate count ``C`` and edges processed in some order::

    variants = C * sel(node)          # value predicates filter candidates
    cost     = C                      # the index scan
    for edge in order:
        cost     += variants + child_variants(edge)   # merge passes
        variants *= fanout(edge)                      # survivors
        cost     += variants                          # write output

``fanout`` is the expected alternatives each surviving parent variant
gains from the edge — the interval-containment fan-out: the child
subtree's estimated embeddings spread over the parent tag's node count
(every node has exactly one parent, so ``child_variants / parent_tag_count``
children land under each candidate on average).  The matching
specification then shapes it:

* ``-``  fanout = children-per-parent (a parent without children dies);
* ``?``  fanout = children-per-parent + 1 (the absent alternative);
* ``+``  fanout = P(>=1 child) — matches cluster into one witness;
* ``*``  fanout = 1 — every parent survives with one (possibly empty)
  cluster.

The scan and child-subtree costs are order-independent; only the
``variants`` trajectory depends on the order, which is exactly why
running selective edges first wins: they shrink the variant list every
later join has to carry.

Value predicates multiply a node's candidate count by
:data:`PREDICATE_SELECTIVITY` per comparison (a fixed guess — the
telemetry feedback loop exists precisely because such guesses are
sometimes wrong).  A tag the statistics cannot bound (a document that is
not loaded) estimates at :data:`UNKNOWN_COUNT`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import permutations
from typing import Dict, List, Optional, Sequence, Tuple

from ..analysis.cardinality import Interval, bound_plan
from ..core.base import Operator
from ..core.join import JoinOp
from ..core.select import SelectOp
from ..patterns.apt import APTNode
from ..storage.stats import CardinalityStats

#: Estimated fraction of a tag's nodes that survive one value comparison.
PREDICATE_SELECTIVITY = 0.25

#: Candidate-count guess for a tag the statistics cannot bound.
UNKNOWN_COUNT = 64.0

#: Node orders with this many edges or fewer are costed exhaustively;
#: larger ones fall back to a greedy fanout-ascending sort.  23-query
#: XMark plans top out at 4 edges per node, so the exhaustive search is
#: the common case and stays trivially cheap (<= 120 orders).
MAX_EXHAUSTIVE_EDGES = 5

#: Per-row saving of a columnar operator over its per-tree twin and the
#: per-row price of crossing a tree<->column boundary, both relative to
#: one work unit.  Calibrated against the batch on/off sweep recorded in
#: EXPERIMENTS E20: fully-columnar plans win ~1.2x, plans that convert
#: at every other operator do not.
BATCH_SAVING_PER_ROW = 0.15
BATCH_CONVERT_PER_ROW = 0.5

#: How decisively the estimated conversion price must beat the estimated
#: columnar saving before the planner abandons the batch runtime for
#: per-tree execution.  Batch is the *measured* default: the batch
#: on/off sweep (EXPERIMENTS E20) shows it winning on 22 of 23 queries,
#: including plans where this model prices conversion up to ~1.8x the
#: saving (x9), while the one genuine batch loser (x12, 0.93x) sits at
#: ~1.1x — inside the winners' range, so no price/saving threshold can
#: single it out.  The margin therefore errs on the side of the measured
#: default and only vetoes plans whose boundary traffic clearly
#: dominates.
TREE_VETO_MARGIN = 2.0

#: Estimated rows for an unbounded interval: the cardinality pass says
#: "anything"; the planner needs a number and uses a small multiple of
#: the database size (a query rarely outproduces the data it reads).
UNBOUNDED_ROWS_FACTOR = 4


@dataclass(frozen=True)
class EdgeEstimate:
    """One pattern edge's order-independent statistics."""

    index: int              #: position in ``node.edges``
    axis: str
    mspec: str
    tag: Optional[str]
    child_variants: float   #: estimated embeddings of the child subtree
    fanout: float           #: expected alternatives per parent variant
    child_cost: float       #: cost of producing the child matches

    def describe(self) -> str:
        arrow = "//" if self.axis == "ad" else "/"
        return f"{arrow}{self.mspec}{self.tag or '*'}"


@dataclass
class PatternEstimate:
    """A pattern node's candidates, per-edge stats and variant product."""

    tag: Optional[str]
    candidates: float       #: raw tag count after predicate selectivity
    raw_count: float        #: raw tag count (fan-out denominator)
    edges: List[EdgeEstimate] = field(default_factory=list)

    @property
    def variants(self) -> float:
        """Estimated match variants (order-independent product)."""
        total = self.candidates
        for edge in self.edges:
            total *= edge.fanout
        return total

    def subtree_cost(self) -> float:
        """Order-independent child-production cost below this node."""
        return sum(edge.child_cost for edge in self.edges)


class CostModel:
    """Estimates over one statistics snapshot, with optional overrides.

    ``observed`` maps a plan operator's post-order index (the tracer's
    record index) to its *measured* output cardinality; when present it
    replaces the static interval estimate for that operator — the
    telemetry feedback loop's way of correcting a wrong guess.
    """

    def __init__(
        self,
        stats: CardinalityStats,
        observed: Optional[Dict[int, int]] = None,
    ) -> None:
        self.stats = stats
        self.observed = observed or {}
        #: estimated rows for an interval the analysis left unbounded
        self.row_cap = float(
            max(stats.database_nodes, 1) * UNBOUNDED_ROWS_FACTOR
        )

    # ------------------------------------------------------------------
    # pattern-level estimates (the join-order decision)
    # ------------------------------------------------------------------
    def node_count(self, doc: Optional[str], node: APTNode) -> float:
        """Raw candidate count of one pattern node against ``doc``."""
        count = self.stats.tag_count(doc, node.test.tag)
        if count is None:
            return UNKNOWN_COUNT
        return float(count)

    def estimate_pattern(
        self, node: APTNode, doc: Optional[str]
    ) -> PatternEstimate:
        """Recursive :class:`PatternEstimate` for the subtree at ``node``."""
        raw = self.node_count(doc, node)
        selectivity = PREDICATE_SELECTIVITY ** len(node.test.comparisons)
        estimate = PatternEstimate(
            tag=node.test.tag,
            candidates=raw * selectivity,
            raw_count=raw,
        )
        for index, edge in enumerate(node.edges):
            child = self.estimate_pattern(edge.child, doc)
            spread = child.variants / max(raw, 1.0)
            if edge.mspec == "-":
                fanout = spread
            elif edge.mspec == "?":
                fanout = spread + 1.0
            elif edge.mspec == "+":
                fanout = min(1.0, spread)
            else:  # '*': every parent survives with one cluster
                fanout = 1.0
            estimate.edges.append(
                EdgeEstimate(
                    index=index,
                    axis=edge.axis,
                    mspec=edge.mspec,
                    tag=edge.child.test.tag,
                    child_variants=child.variants,
                    fanout=fanout,
                    child_cost=self.order_cost(
                        child, list(range(len(child.edges)))
                    )
                    + child.subtree_cost(),
                )
            )
        return estimate

    def order_cost(
        self, estimate: PatternEstimate, order: Sequence[int]
    ) -> float:
        """Join-cascade cost of processing the node's edges in ``order``.

        Excludes the order-independent child-production costs
        (:meth:`PatternEstimate.subtree_cost`); include them when
        comparing whole patterns rather than orders of one node.
        """
        variants = estimate.candidates
        cost = estimate.raw_count  # the index scan
        for position in order:
            edge = estimate.edges[position]
            cost += variants + edge.child_variants
            variants *= edge.fanout
            cost += variants
        return cost

    def best_order(
        self, estimate: PatternEstimate
    ) -> Tuple[List[int], float]:
        """The cheapest edge order of one node, with its cost.

        Exhaustive for small nodes, greedy (fanout ascending) past
        :data:`MAX_EXHAUSTIVE_EDGES`.  Ties break toward source order,
        so the planner never reorders without a reason.
        """
        count = len(estimate.edges)
        source = list(range(count))
        if count < 2:
            return source, self.order_cost(estimate, source)
        if count <= MAX_EXHAUSTIVE_EDGES:
            best, best_cost = source, self.order_cost(estimate, source)
            for candidate in permutations(range(count)):
                candidate = list(candidate)
                cost = self.order_cost(estimate, candidate)
                if cost < best_cost:
                    best, best_cost = candidate, cost
            return best, best_cost
        greedy = sorted(
            source, key=lambda i: (estimate.edges[i].fanout, i)
        )
        return greedy, self.order_cost(estimate, greedy)

    # ------------------------------------------------------------------
    # operator-level estimates (the currency and engine decisions)
    # ------------------------------------------------------------------
    def interval_rows(self, interval: Interval) -> float:
        """A single row estimate from a ``[lo, hi]`` interval."""
        if interval.hi is None:
            return max(self.row_cap, float(interval.lo))
        return float(max(interval.hi, interval.lo))

    def plan_rows(self, plan: Operator) -> Dict[int, float]:
        """Estimated output rows per operator (keyed by ``id(op)``).

        Static interval bounds capped at :attr:`row_cap`, then overridden
        with observed cardinalities where the feedback loop supplied
        them.
        """
        analysis = bound_plan(plan, self.stats)
        rows: Dict[int, float] = {}
        for index, op in enumerate(post_order(plan)):
            interval = analysis.bounds[id(op)]
            estimate = min(self.interval_rows(interval), self.row_cap)
            if index in self.observed:
                estimate = float(self.observed[index])
            rows[id(op)] = estimate
        return rows

    def op_cost(self, op: Operator, rows: Dict[int, float]) -> float:
        """One operator's work estimate given per-operator row counts."""
        out = rows[id(op)]
        ins = sum(rows[id(child)] for child in op.inputs)
        if isinstance(op, SelectOp) and not op.inputs:
            estimate = self.estimate_pattern(op.apt.root, op.apt.doc)
            order, cost = self.best_order(estimate)
            return cost + estimate.subtree_cost()
        if isinstance(op, JoinOp):
            # merge or nested pairing: read both sides, write the output
            return ins + out
        # linear operators: one pass over the input, one over the output
        return ins + out


def post_order(plan: Operator) -> List[Operator]:
    """Operators in first-completion order, shared sub-plans once.

    This is exactly the order the runtime tracer assigns record indexes
    in (children before parents, left to right, memoised by identity),
    so observed cardinalities from a trace align positionally.
    """
    seen: Dict[int, bool] = {}
    out: List[Operator] = []
    stack: List[Tuple[Operator, bool]] = [(plan, False)]
    while stack:
        op, ready = stack.pop()
        if id(op) in seen and not ready:
            continue
        if ready:
            out.append(op)
            continue
        seen[id(op)] = True
        stack.append((op, True))
        for child in reversed(op.inputs):
            if id(child) not in seen:
                stack.append((child, False))
    return out
