"""Structured query log and the slow-query capture ring.

One :class:`QueryLogEvent` is emitted per service request: a JSON-ready
record carrying the trace id, the query hash and excerpt, the engine
and cache outcome, how the request ended (``ok`` / ``timeout`` /
``resource`` / ``cancelled`` / ``error``), its latency, and the
:class:`~repro.storage.stats.Metrics` counter deltas the request
accumulated.  Events land in a bounded in-memory ring (the ``/stats``
and ``repro tail`` views) and, when configured, as one JSON line per
event in a sink file — the format ``repro tail -f`` and ``repro stats
-f`` read back.

Slow requests additionally capture a full EXPLAIN ANALYZE
:class:`~repro.trace.PlanTrace` (serialised with
:func:`~repro.trace.render.trace_to_json`); those captures live in the
:class:`SlowQueryLog`, a second, smaller ring, so memory stays bounded
no matter how many queries cross the threshold.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
import uuid
from collections import deque
from dataclasses import dataclass, field
from typing import IO, Deque, Dict, List, Optional, Set

#: Longest query excerpt stored in an event (full text is recoverable
#: from the query hash by whoever issued it; the log stays compact).
EXCERPT_CHARS = 120

#: Default event-ring capacity.
DEFAULT_CAPACITY = 1024

#: Default slow-capture ring capacity.
DEFAULT_SLOW_CAPACITY = 32


def new_trace_id() -> str:
    """A fresh 16-hex-digit request correlation id."""
    return uuid.uuid4().hex[:16]


def newest(items: list, count: int) -> list:
    """The last ``count`` items, oldest first; none for ``count <= 0``
    (a bare ``items[-count:]`` returns *all* of them for 0)."""
    return items[-count:] if count > 0 else []


def query_hash(normalized_text: str) -> str:
    """Stable 12-hex-digit identity of a normalized query text."""
    digest = hashlib.sha256(normalized_text.encode("utf-8"))
    return digest.hexdigest()[:12]


def excerpt(text: str) -> str:
    """Whitespace-flattened query excerpt bounded to EXCERPT_CHARS."""
    flat = " ".join(text.split())
    if len(flat) <= EXCERPT_CHARS:
        return flat
    return flat[: EXCERPT_CHARS - 1] + "…"


@dataclass
class QueryLogEvent:
    """One request's structured log record (JSON-ready via to_dict)."""

    trace_id: str
    query_hash: str
    query: str                    #: excerpt, whitespace-flattened
    engine: str
    optimize: bool
    cache_hit: bool
    status: str              #: ok | timeout | resource | cancelled | error
    seconds: float
    result_trees: int
    slow: bool = False
    error: Optional[str] = None
    #: Metrics counter deltas over the request (non-zero entries only;
    #: exact — the worker thread's own window covers this request alone)
    counters: Dict[str, int] = field(default_factory=dict)
    #: EXPLAIN ANALYZE capture (trace_to_json payload) for slow requests
    trace: Optional[dict] = None
    ts: float = field(default_factory=time.time)

    def to_dict(self) -> dict:
        payload = {
            "ts": round(self.ts, 6),
            "trace_id": self.trace_id,
            "query_hash": self.query_hash,
            "query": self.query,
            "engine": self.engine,
            "optimize": self.optimize,
            "cache_hit": self.cache_hit,
            "status": self.status,
            "ms": round(self.seconds * 1000, 3),
            "result_trees": self.result_trees,
            "slow": self.slow,
            "counters": self.counters,
        }
        if self.error is not None:
            payload["error"] = self.error
        if self.trace is not None:
            payload["trace"] = self.trace
        return payload


class QueryLog:
    """Bounded ring of request events with an optional JSONL sink.

    The ring keeps the newest ``capacity`` events for in-process views;
    the sink file (when given) receives *every* event as one JSON line,
    flushed per event so ``tail -f`` style consumers see it promptly.
    Thread-safe: emits take one lock (events are built outside it).
    """

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        sink: Optional[IO[str]] = None,
        sink_path: Optional[str] = None,
    ) -> None:
        if capacity <= 0:
            raise ValueError("query log capacity must be positive")
        self.capacity = capacity
        self._events: Deque[QueryLogEvent] = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self._sink = sink
        self._owns_sink = False
        self._emitted = 0
        if sink_path is not None:
            if sink is not None:
                raise ValueError("give either sink or sink_path, not both")
            self._sink = open(sink_path, "a", encoding="utf-8")
            self._owns_sink = True

    def emit(self, event: QueryLogEvent) -> None:
        line = None
        if self._sink is not None:
            line = json.dumps(event.to_dict(), sort_keys=True)
        with self._lock:
            self._events.append(event)
            self._emitted += 1
            if self._sink is not None and line is not None:
                self._sink.write(line + "\n")
                self._sink.flush()

    def tail(self, count: int = 20) -> List[QueryLogEvent]:
        """The newest ``count`` events, oldest first."""
        with self._lock:
            events = list(self._events)
        return newest(events, count)

    @property
    def emitted(self) -> int:
        """Total events ever emitted (ring evictions included)."""
        with self._lock:
            return self._emitted

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)

    def close(self) -> None:
        # under the lock: an emit racing close must either write to the
        # still-open sink or observe None, never a closed file
        with self._lock:
            if self._owns_sink and self._sink is not None:
                self._sink.close()
                self._sink = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<QueryLog {len(self)}/{self.capacity} "
            f"emitted={self.emitted}>"
        )


class SlowQueryLog:
    """Bounded ring of slow-request captures (event + full trace).

    Separate from the event ring so a burst of slow queries cannot push
    ordinary events out, and so the (much larger) trace payloads are
    capped at ``capacity`` regardless of traffic.  ``seen`` answers
    "was this query hash captured recently?" so the service re-captures
    a recurring slow query only after its old capture was evicted.
    """

    def __init__(self, capacity: int = DEFAULT_SLOW_CAPACITY) -> None:
        if capacity <= 0:
            raise ValueError("slow log capacity must be positive")
        self.capacity = capacity
        self._records: Deque[QueryLogEvent] = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self._captured = 0
        self._pending: Set[str] = set()

    def record(self, event: QueryLogEvent) -> None:
        with self._lock:
            self._records.append(event)
            self._captured += 1
            self._pending.discard(event.query_hash)

    def seen(self, query_hash: str) -> bool:
        """Whether a capture for this query hash is still in the ring."""
        with self._lock:
            return any(r.query_hash == query_hash for r in self._records)

    def should_capture(self, query_hash: str) -> bool:
        """Atomically claim the one trace capture for this query hash.

        True at most once per ring residency: while an event for the
        hash is resident — or another thread claimed the capture and
        has not recorded it yet — further claims return False.  Without
        the claim set, two concurrent slow occurrences of one query
        would both pass a ``seen()`` check and both pay the traced
        re-run.
        """
        with self._lock:
            if query_hash in self._pending:
                return False
            if any(r.query_hash == query_hash for r in self._records):
                return False
            self._pending.add(query_hash)
            return True

    def tail(self, count: int = 20) -> List[QueryLogEvent]:
        """The newest ``count`` captures, oldest first."""
        with self._lock:
            records = list(self._records)
        return newest(records, count)

    @property
    def captured(self) -> int:
        """Total captures ever recorded (ring evictions included)."""
        with self._lock:
            return self._captured

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<SlowQueryLog {len(self)}/{self.capacity} "
            f"captured={self.captured}>"
        )
