"""The telemetry feedback loop: observed cardinalities correct the model.

The static cost model guesses (predicate selectivity, unbounded
intervals, unloaded documents).  The runtime tracer *measures*: every
slow-query capture carries each operator's actual output cardinality.
This module closes the loop:

1. :func:`observed_from_trace` lifts a ``trace_to_json`` payload into an
   ``{operator post-order index: output cardinality}`` map — the exact
   shape :class:`~repro.planner.cost.CostModel` accepts as overrides
   (the tracer and :func:`~repro.planner.cost.post_order` assign indexes
   identically, so alignment is positional and total).
2. :func:`recost` re-costs a prepared plan under the corrected model and
   compares its *current annotated shape* against the shape the planner
   would pick knowing the observed row counts.
3. When a cheaper shape exists, the service bumps the plan out of the
   prepared-plan LRU (``PlanCache.invalidate``) and parks the observed
   map in a :class:`FeedbackStore`; the recompile that serves the next
   request plans with the overrides and adopts the cheaper shape.

A uniform miss (every estimate off by the same factor) scales every
alternative's cost equally and flips nothing — by design.  The loop
fires on *differential* misses: a pattern whose statistics were unknown
at plan time (document loaded after the plan was cached), so a
different edge order is now cheaper.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from ..core.base import Operator
from ..core.select import SelectOp
from ..patterns.apt import APTNode
from ..storage.stats import CardinalityStats
from .choice import PlanDecision
from .cost import CostModel, post_order
from .planner import DECISION_MARGIN, plan_physical

#: Fractional cost advantage the planner-best shape must show over the
#: cached shape before the feedback loop evicts a prepared plan.  Wider
#: than :data:`~repro.planner.planner.DECISION_MARGIN` because an
#: eviction forces a recompile on the next request — flapping between
#: two near-equal shapes would cost more than either shape saves.
RECOST_MARGIN = 0.10

#: Observed-cardinality maps kept for recompiles (bounded, LRU).
FEEDBACK_CAPACITY = 128


def observed_from_trace(payload: Dict[str, Any]) -> Dict[int, int]:
    """Tracer payload -> ``{post-order op index: measured output rows}``.

    Accepts the ``trace_to_json`` schema (version 1); unknown versions
    return an empty map rather than guessing at alignment.
    """
    if not payload or payload.get("version") != 1:
        return {}
    return {
        int(record["index"]): int(record["output_card"])
        for record in payload.get("records", ())
    }


@dataclass
class RecostResult:
    """Outcome of re-costing one cached plan against observations."""

    current_cost: float       #: cached shape, observation-corrected model
    best_cost: float          #: planner-best shape, same model
    reorder_flips: int        #: pattern nodes whose best order changed
    changed: bool             #: cheaper shape exists beyond the margin
    decision: PlanDecision    #: the shape the planner would pick now
    reason: str = ""

    @property
    def improvement(self) -> float:
        """Fractional saving of the best shape over the current one."""
        if self.current_cost <= 0:
            return 0.0
        return 1.0 - self.best_cost / self.current_cost


def _annotated_order(node: APTNode) -> List[int]:
    order = getattr(node, "planner_order", None)
    if order is not None:
        return list(order)
    return list(range(len(node.edges)))


def _select_cost(
    model: CostModel,
    node: APTNode,
    doc: Optional[str],
    choose: Callable[[APTNode, Any], List[int]],
) -> float:
    """Recursive pattern cost with per-node order chosen by ``choose``."""
    estimate = model.estimate_pattern(node, doc)
    total = model.order_cost(estimate, choose(node, estimate))
    for edge in node.edges:
        total += _select_cost(model, edge.child, doc, choose)
    return total


def shape_cost(
    plan: Operator,
    model: CostModel,
    annotated: bool,
) -> float:
    """Whole-plan work estimate for one physical shape.

    ``annotated=True`` costs the shape the plan currently carries (the
    ``planner_order`` annotations, or source order where absent);
    ``annotated=False`` costs the planner-best orders.
    """

    def choose(node: APTNode, estimate: Any) -> List[int]:
        if annotated:
            return _annotated_order(node)
        best, best_cost = model.best_order(estimate)
        source = list(range(len(node.edges)))
        source_cost = model.order_cost(estimate, source)
        if best_cost < source_cost * (1.0 - DECISION_MARGIN):
            return best
        return source

    ops = post_order(plan)
    rows = model.plan_rows(plan)
    total = 0.0
    for op in ops:
        if isinstance(op, SelectOp) and not op.inputs:
            total += _select_cost(model, op.apt.root, op.apt.doc, choose)
        else:
            total += rows[id(op)] + sum(
                rows[id(child)] for child in op.inputs
            )
    return total


def recost(
    plan: Operator,
    stats: CardinalityStats,
    observed: Dict[int, int],
    margin: float = RECOST_MARGIN,
) -> RecostResult:
    """Re-cost ``plan`` under observed cardinalities; report the verdict.

    Pure: the plan is never mutated (the fresh decision is computed with
    ``apply=False``).  ``changed`` is True only when the planner-best
    shape *differs* from the annotated one — at least one different
    edge order — *and* its cost beats the annotated shape by more than
    ``margin``.
    """
    model = CostModel(stats, observed=observed)
    fresh = plan_physical(plan, stats, observed=observed, apply=False)

    reorder_flips = 0
    for op in post_order(plan):
        if not (isinstance(op, SelectOp)):
            continue
        for node in op.apt.root.walk():
            if len(node.edges) < 2:
                continue
            estimate = model.estimate_pattern(node, op.apt.doc)
            best, best_cost = model.best_order(estimate)
            source = list(range(len(node.edges)))
            source_cost = model.order_cost(estimate, source)
            wants = (
                best
                if best_cost < source_cost * (1.0 - DECISION_MARGIN)
                else source
            )
            if wants != _annotated_order(node):
                reorder_flips += 1

    current_cost = shape_cost(plan, model, annotated=True)
    best_cost = shape_cost(plan, model, annotated=False)
    differs = reorder_flips > 0
    cheaper = best_cost < current_cost * (1.0 - margin)
    changed = differs and cheaper
    if changed:
        reason = (
            f"observed cardinalities favour {reorder_flips} join-order "
            f"flip(s): {best_cost:,.0f} vs {current_cost:,.0f} work units"
        )
    elif differs:
        reason = (
            "a different shape exists but saves less than "
            f"{margin:.0%} — keeping the cached plan"
        )
    else:
        reason = "the cached shape is what the planner would pick now"
    return RecostResult(
        current_cost=current_cost,
        best_cost=best_cost,
        reorder_flips=reorder_flips,
        changed=changed,
        decision=fresh,
        reason=reason,
    )


class FeedbackStore:
    """Observed-cardinality maps awaiting the recompile that uses them.

    Keyed by the prepared-plan cache key; bounded LRU so an adversarial
    query stream cannot grow it without limit.  Thread-safe: the service
    records from worker threads and reads from whichever thread compiles
    the replacement plan.
    """

    def __init__(self, capacity: int = FEEDBACK_CAPACITY) -> None:
        if capacity <= 0:
            raise ValueError("feedback capacity must be positive")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Any, Dict[int, int]]" = OrderedDict()

    def remember(self, key: Any, observed: Dict[int, int]) -> None:
        """Park ``observed`` for the next compile of ``key``."""
        with self._lock:
            self._entries[key] = dict(observed)
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    def overrides_for(self, key: Any) -> Optional[Dict[int, int]]:
        """The observed map for ``key``, or None when none was recorded."""
        with self._lock:
            observed = self._entries.get(key)
            return dict(observed) if observed is not None else None

    def forget(self, key: Any) -> None:
        with self._lock:
            self._entries.pop(key, None)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    # -- persistence (serve --feedback-file) ---------------------------
    def save(self, path: str) -> int:
        """Write the store as JSON; returns the entry count written.

        Entries whose key is not a
        :class:`~repro.service.cache.PlanCacheKey` (tests park ad-hoc
        keys) are skipped — the file format only promises plan-cache
        keys.  Oldest-first, so a load replays insertion order and the
        LRU ends up in the same recency order it was saved in.

        The JSON lands in ``path + ".tmp"``, which replaces ``path``
        only after an ``fsync``: a writer that dies part-way leaves the
        previous file loadable (:meth:`load` treats a truncated file as
        empty, so writing in place would silently lose every verdict).
        """
        import contextlib
        import json
        import os

        from ..service.cache import PlanCacheKey

        with self._lock:
            entries = [
                {
                    "text": key.text,
                    "engine": key.engine,
                    "optimize": key.optimize,
                    "observed": {
                        str(index): card
                        for index, card in observed.items()
                    },
                }
                for key, observed in self._entries.items()
                if isinstance(key, PlanCacheKey)
            ]
        payload = {"version": 1, "entries": entries}
        tmp = f"{path}.tmp"
        try:
            with open(tmp, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, indent=2, sort_keys=True)
                handle.write("\n")
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise
        return len(entries)

    def load(self, path: str) -> int:
        """Merge entries from ``path``; returns how many were loaded.

        A missing file is fine (fresh service, nothing observed yet);
        an unknown version or malformed payload loads nothing rather
        than guessing.
        """
        import json
        import os

        from ..service.cache import PlanCacheKey

        if not os.path.exists(path):
            return 0
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, ValueError):
            return 0
        if not isinstance(payload, dict) or payload.get("version") != 1:
            return 0
        loaded = 0
        for entry in payload.get("entries", ()):
            try:
                key = PlanCacheKey(
                    text=str(entry["text"]),
                    engine=str(entry["engine"]),
                    optimize=bool(entry["optimize"]),
                )
                observed = {
                    int(index): int(card)
                    for index, card in entry["observed"].items()
                }
            except (KeyError, TypeError, ValueError):
                continue
            self.remember(key, observed)
            loaded += 1
        return loaded
