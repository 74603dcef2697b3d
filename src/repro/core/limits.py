"""Cooperative execution limits: deadlines, output budgets, cancellation.

A query run under the service layer (or any caller that passes ``limits``
to :meth:`Engine.run`) must never hang: past its wall-clock deadline or
output-cardinality budget it aborts with a structured error instead.
Python threads cannot be interrupted from outside, so the abort is
*cooperative* — the explicit-stack evaluator loop checks the limits
before every operator execution (cheap: one attribute test plus, every
check, one ``time.monotonic`` call), and the pattern matcher ticks the
same limits between candidate batches so a single long Select cannot
blow the budget unnoticed.

The three aborts are structured exceptions under
:class:`~repro.errors.ExecutionLimitError`:

* :class:`~repro.errors.QueryTimeoutError` — past the deadline;
* :class:`~repro.errors.ResourceLimitError` — an operator produced more
  trees than the budget allows (checked on every intermediate output,
  so a mid-plan Join explosion aborts at the Join);
* :class:`~repro.errors.QueryCancelledError` — the limits' cancel event
  was set (e.g. by :meth:`repro.service.QueryHandle.cancel`).
"""

from __future__ import annotations

import threading
import time
from typing import Optional

from ..errors import (
    QueryCancelledError,
    QueryTimeoutError,
    ResourceLimitError,
)

#: How many matcher ticks pass between deadline checks.  Candidate loops
#: run millions of iterations; reading the clock on each would dominate.
TICK_INTERVAL = 1024


class ExecutionLimits:
    """Budgets one query execution and raises when they are exceeded.

    ``deadline`` is a wall-clock budget in seconds measured from
    :meth:`start` (the evaluator calls it as execution begins, so the
    budget covers execution, not compile or queue time).  ``max_trees``
    bounds the cardinality of every operator output.  ``cancel_event``
    is an optional externally owned :class:`threading.Event`; one is
    created on demand so :meth:`cancel` always works.

    A limits object belongs to one execution: it carries the started
    clock anchor of that run.
    """

    __slots__ = ("deadline", "max_trees", "_cancel", "_started", "_ticks")

    def __init__(
        self,
        deadline: Optional[float] = None,
        max_trees: Optional[int] = None,
        cancel_event: Optional[threading.Event] = None,
    ) -> None:
        if deadline is not None and deadline <= 0:
            raise ValueError("deadline must be positive (seconds)")
        if max_trees is not None and max_trees <= 0:
            raise ValueError("max_trees must be positive")
        self.deadline = deadline
        self.max_trees = max_trees
        self._cancel = cancel_event
        self._started: Optional[float] = None
        self._ticks = 0

    # ------------------------------------------------------------------
    # clock anchoring
    # ------------------------------------------------------------------
    def start(self) -> "ExecutionLimits":
        """Anchor the deadline clock at *now*, once.

        Idempotent: the first call (from the evaluator as execution
        begins, or from an early :meth:`check`) anchors the budget;
        later calls keep the original anchor.  A limits object is
        single-use; budget a fresh run with a fresh object.
        """
        if self._started is None:
            self._started = time.monotonic()
        return self

    def elapsed(self) -> float:
        """Seconds since :meth:`start` (0.0 before the first start)."""
        if self._started is None:
            return 0.0
        return time.monotonic() - self._started

    def remaining(self) -> Optional[float]:
        """Seconds left in the deadline budget (None when unlimited)."""
        if self.deadline is None:
            return None
        return max(0.0, self.deadline - self.elapsed())

    # ------------------------------------------------------------------
    # cancellation
    # ------------------------------------------------------------------
    @property
    def cancel_event(self) -> threading.Event:
        """The cancel event, created on first use."""
        if self._cancel is None:
            self._cancel = threading.Event()
        return self._cancel

    def cancel(self) -> None:
        """Request a cooperative abort of the execution using these limits."""
        self.cancel_event.set()

    @property
    def cancelled(self) -> bool:
        """Whether cancellation has been requested."""
        return self._cancel is not None and self._cancel.is_set()

    # ------------------------------------------------------------------
    # the checks the evaluator and matcher call
    # ------------------------------------------------------------------
    def check(self, operator: str = "plan") -> None:
        """Raise if cancelled or past the deadline (pre-execute check)."""
        if self.cancelled:
            raise QueryCancelledError()
        if self.deadline is not None:
            if self._started is None:
                self.start()
            elapsed = time.monotonic() - self._started
            if elapsed > self.deadline:
                raise QueryTimeoutError(self.deadline, elapsed)

    def check_output(self, operator: str, produced: int) -> None:
        """Raise if an operator output exceeds the cardinality budget."""
        if self.max_trees is not None and produced > self.max_trees:
            raise ResourceLimitError(self.max_trees, produced, operator)

    def tick(self) -> None:
        """Cheap per-iteration hook for tight loops (matcher candidates).

        Reads the clock only every :data:`TICK_INTERVAL` calls; the other
        calls cost one integer increment and compare.
        """
        self._ticks += 1
        if self._ticks >= TICK_INTERVAL:
            self._ticks = 0
            self.check()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        parts = []
        if self.deadline is not None:
            parts.append(f"deadline={self.deadline}s")
        if self.max_trees is not None:
            parts.append(f"max_trees={self.max_trees}")
        if self.cancelled:
            parts.append("cancelled")
        return f"<ExecutionLimits {' '.join(parts) or 'unlimited'}>"
