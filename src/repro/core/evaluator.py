"""Bottom-up, set-at-a-time evaluation of TLC plans.

Plans are operator trees (occasionally hand-built DAGs that share a
sub-plan); evaluation memoises by operator identity so shared sub-plans
run exactly once — the executable counterpart of pattern-tree reuse.

The walk is an explicit-stack post-order traversal rather than a
recursive one: fuzzer-generated or deeply nested FLWOR plans can be
thousands of operators deep, far past Python's recursion limit.  Each
operator is pushed twice — once to expand its inputs, once (``ready``)
to execute after they are all memoised; LIFO ordering guarantees a
shared operator's first expansion finishes before any later reference
pops, so every later reference is a memo hit, exactly as in the
recursive formulation.

Every operator runs through ``execute_batch``: column batches flow
between operators with a columnar form, and the base-class fallback
materialises trees for the rest (DESIGN §15).  The per-tree ``execute``
bodies serve those tree inputs and the operator differential tests.

Passing a :class:`~repro.trace.record.Tracer` records per-operator wall
time, cardinalities and counter deltas; the default ``tracer=None`` path
is a separate loop that does no trace bookkeeping at all.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from ..columns.batch import as_tree_sequence
from ..model.sequence import TreeSequence
from ..storage.database import Database
from .base import Context, Operator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..trace.record import Tracer


def evaluate(
    plan: Operator, ctx: Context, tracer: Optional["Tracer"] = None
) -> TreeSequence:
    """Evaluate ``plan`` bottom-up and return its output sequence.

    When the context carries :class:`~repro.core.limits.ExecutionLimits`
    the walk is cooperative: the limits are checked before every operator
    execution (deadline, cancellation) and every operator output is
    checked against the cardinality budget, so a runaway query aborts
    with a structured :class:`~repro.errors.ExecutionLimitError` at the
    next operator boundary instead of hanging.  The explicit stack makes
    this cheap — one ``None`` test per operator on the unbudgeted path.

    The context's scan cache is entered for the duration of the walk
    (see :meth:`~repro.patterns.scan_cache.ScanCache.begin_query`):
    concurrently sharing one cache between two executions raises
    :class:`~repro.errors.ScanCacheLifetimeError` rather than mixing the
    two queries' scans.
    """
    memo: Dict[int, TreeSequence] = {}
    stack: List[Tuple[Operator, bool]] = [(plan, False)]
    limits = ctx.limits
    if limits is not None:
        limits.start()
    cache = ctx.scan_cache
    if cache is not None:
        cache.begin_query(ctx.db)
    try:
        if tracer is None:
            while stack:
                op, ready = stack.pop()
                key = id(op)
                if key in memo:
                    continue
                if ready:
                    inputs = [memo[id(child)] for child in op.inputs]
                    if limits is not None:
                        limits.check(op.name)
                    result = op.execute_batch(ctx, inputs)
                    if limits is not None:
                        limits.check_output(op.name, len(result))
                    memo[key] = result
                else:
                    stack.append((op, True))
                    for child in reversed(op.inputs):
                        stack.append((child, False))
        else:
            while stack:
                op, ready = stack.pop()
                key = id(op)
                if key in memo:
                    tracer.memo_hit(op)
                    continue
                if ready:
                    inputs = [memo[id(child)] for child in op.inputs]
                    if limits is not None:
                        limits.check(op.name)
                    before = tracer.counters_before()
                    started = time.perf_counter()
                    result = op.execute_batch(ctx, inputs)
                    elapsed = time.perf_counter() - started
                    tracer.record(op, inputs, result, elapsed, before)
                    if limits is not None:
                        limits.check_output(op.name, len(result))
                    memo[key] = result
                else:
                    stack.append((op, True))
                    for child in reversed(op.inputs):
                        stack.append((child, False))
    finally:
        if cache is not None:
            cache.end_query()
    # the plan's consumer expects trees; the final conversion is the
    # inherent boundary of the batch runtime, not a fallback
    return as_tree_sequence(memo[id(plan)], ctx.metrics)


def evaluate_on(plan: Operator, db: Database) -> TreeSequence:
    """Convenience wrapper: evaluate against a database directly."""
    return evaluate(plan, Context(db))
