"""Request spans: one trace per request, across the worker boundary.

The query log answers *what* happened to a request; a span tree answers
*where its time went*: parse → plan-cache lookup → queue wait →
dispatch (payload serialize, IPC, worker-side deserialize, execute,
result serialize) → merge.  Each service request gets a 16-hex trace id
(the same id its :class:`~repro.telemetry.querylog.QueryLogEvent`
carries, so log lines join against exported span files), a
:class:`SpanRecorder` builds the tree, and finished captures land in a
bounded :class:`SpanStore` served by ``/trace/<id>`` and exported as
Chrome-trace-event JSON (Perfetto-loadable) by :func:`to_chrome_trace`.

**Clock model.**  Spans are recorded against ``time.perf_counter`` —
monotonic, high-resolution, but *process-relative*: a worker process's
perf clock shares no epoch with the dispatcher's.  Every recorder (and
every worker-side capture in :mod:`repro.service.pool`) therefore
anchors one ``(perf_counter, time.time())`` pair at birth; remote spans
ship wall-clock endpoints and :meth:`SpanRecorder.add_remote` maps them
onto the dispatcher's timeline through the shared wall clock (same
host), clamping into the enclosing dispatch span's window so bounded
wall-clock skew can reorder nothing.  The reconciliation is identical
under ``fork`` and ``spawn`` — neither start method shares a monotonic
epoch with the parent.

**Overhead model.**  Spans sit behind one process-wide flag: with
spans disabled the service's per-request cost is a single boolean test
(no recorder is allocated); what armed spans cost is the
``telemetry.spans_overhead_ratio`` row of ``benchmarks/layers``
(workload ``serve_thread``).
"""

from __future__ import annotations

import os
import threading
import time
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from .querylog import new_trace_id, newest

#: Finished captures the store keeps (FIFO ring; slow ones ride a
#: second, smaller ring so a burst of fast requests cannot evict them).
DEFAULT_SPAN_CAPACITY = 256
DEFAULT_SLOW_SPAN_CAPACITY = 32

#: Environment toggle: ``REPRO_SPANS=1`` arms span recording without
#: touching call sites.
_ENV_FLAG = "REPRO_SPANS"

_enabled = os.environ.get(_ENV_FLAG, "0").lower() in ("1", "true", "yes")
#: Guards rebinds of the flag (readers stay lock-free).
_state_lock = threading.Lock()

_tls = threading.local()


def spans_enabled() -> bool:
    """Whether services record span trees for their requests."""
    return _enabled


def set_spans(flag: bool) -> bool:
    """Flip the process-wide spans switch; returns the previous value."""
    global _enabled
    with _state_lock:
        previous = _enabled
        _enabled = bool(flag)
    return previous


@contextmanager
def use_spans(flag: bool = True) -> Iterator[None]:
    """Scoped spans toggle (tests and benchmarks sweep with this)."""
    previous = set_spans(flag)
    try:
        yield
    finally:
        set_spans(previous)


@dataclass
class Span:
    """One timed phase of a request, on the trace's shared timeline.

    ``start``/``end`` are seconds since the capture's wall anchor
    (``SpanCapture.wall0``); ``pid`` distinguishes dispatcher-side
    spans from worker-side ones in the Chrome export.
    """

    sid: int
    name: str
    start: float
    end: Optional[float] = None
    parent: Optional[int] = None
    pid: int = 0
    tags: Dict[str, Any] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return (self.end if self.end is not None else self.start) - self.start

    def to_dict(self) -> dict:
        payload: Dict[str, Any] = {
            "sid": self.sid,
            "name": self.name,
            "start_ms": round(self.start * 1000, 4),
            "ms": round(self.seconds * 1000, 4),
            "pid": self.pid,
        }
        if self.parent is not None:
            payload["parent"] = self.parent
        if self.tags:
            payload["tags"] = dict(self.tags)
        return payload


@dataclass
class SpanCapture:
    """A finished request's span tree (immutable once stored)."""

    trace_id: str
    wall0: float                 #: wall-clock epoch of timeline zero
    spans: List[Span]
    status: str = "ok"
    slow: bool = False

    @property
    def seconds(self) -> float:
        return max((s.end or s.start) for s in self.spans) if self.spans else 0.0

    def to_dict(self) -> dict:
        return {
            "trace_id": self.trace_id,
            "ts": round(self.wall0, 6),
            "status": self.status,
            "slow": self.slow,
            "ms": round(self.seconds * 1000, 4),
            "spans": [span.to_dict() for span in self.spans],
        }


class SpanRecorder:
    """Builds one request's span tree; thread-safe by construction.

    A request's phases run on more than one thread (the submitting
    thread prepares, a pool thread executes), but never concurrently —
    the lock serialises the hand-off points, and the parent stack lives
    on the recorder (not per-thread) because the phases form one
    sequential chain.
    """

    def __init__(self, trace_id: Optional[str] = None) -> None:
        self.trace_id = trace_id or new_trace_id()
        self.wall0 = time.time()
        self._perf0 = time.perf_counter()
        self._lock = threading.Lock()
        self._spans: List[Span] = []
        self._stack: List[int] = []
        root = self._begin_locked("request", parent=None)
        self._root = root

    # -- timeline ------------------------------------------------------
    def _now(self) -> float:
        return time.perf_counter() - self._perf0

    def now(self) -> float:
        """The current instant on this recorder's timeline (seconds)."""
        return self._now()

    def start_of(self, sid: int) -> float:
        """Timeline start of span ``sid`` (the dispatch clamp window)."""
        with self._lock:
            return self._spans[sid].start

    def _begin_locked(
        self,
        name: str,
        parent: Optional[int],
        tags: Optional[Dict[str, Any]] = None,
    ) -> int:
        with self._lock:
            sid = len(self._spans)
            if parent is None and self._stack:
                parent = self._stack[-1]
            self._spans.append(
                Span(
                    sid=sid,
                    name=name,
                    start=self._now(),
                    parent=parent,
                    pid=os.getpid(),
                    tags=dict(tags) if tags else {},
                )
            )
            self._stack.append(sid)
            return sid

    def begin(
        self, name: str, tags: Optional[Dict[str, Any]] = None
    ) -> int:
        """Open a span under the current innermost open span."""
        return self._begin_locked(name, parent=None, tags=tags)

    def end(self, sid: int, tags: Optional[Dict[str, Any]] = None) -> None:
        """Close span ``sid`` (idempotent; later closes are ignored)."""
        now = self._now()
        with self._lock:
            span = self._spans[sid]
            if span.end is None:
                span.end = now
                if tags:
                    span.tags.update(tags)
            if sid in self._stack:
                # pop through it: abandoned children close with it
                while self._stack and self._stack[-1] != sid:
                    dangling = self._spans[self._stack.pop()]
                    if dangling.end is None:
                        dangling.end = now
                if self._stack:
                    self._stack.pop()

    @contextmanager
    def span(
        self, name: str, tags: Optional[Dict[str, Any]] = None
    ) -> Iterator[int]:
        sid = self.begin(name, tags=tags)
        try:
            yield sid
        finally:
            self.end(sid)

    def annotate(self, sid: int, **tags: Any) -> None:
        with self._lock:
            self._spans[sid].tags.update(tags)

    def record(
        self,
        name: str,
        start: float,
        end: float,
        parent: Optional[int] = None,
        pid: int = 0,
        tags: Optional[Dict[str, Any]] = None,
    ) -> int:
        """Append a pre-measured span (timeline-relative endpoints)."""
        with self._lock:
            sid = len(self._spans)
            self._spans.append(
                Span(
                    sid=sid,
                    name=name,
                    start=start,
                    end=max(end, start),
                    parent=parent,
                    pid=pid or os.getpid(),
                    tags=dict(tags) if tags else {},
                )
            )
            return sid

    # -- cross-process reconciliation ----------------------------------
    def wall_to_timeline(self, wall: float) -> float:
        """Map a shared-host wall-clock instant onto this timeline."""
        return wall - self.wall0

    def add_remote(
        self,
        records: Sequence[Dict[str, Any]],
        parent: int,
        pid: int,
        window: Optional[Tuple[float, float]] = None,
    ) -> List[int]:
        """Merge a worker's span records under ``parent``.

        ``records`` carry wall-clock ``start``/``end`` endpoints (the
        worker anchored its perf clock to the wall once per request);
        they are mapped through the shared wall clock and clamped into
        ``window`` — the enclosing dispatch span's timeline interval —
        so bounded wall-clock skew cannot push a worker span outside
        the phase that contains it.
        """
        sids: List[int] = []
        by_name: Dict[str, int] = {}
        for rec in records:
            start = self.wall_to_timeline(float(rec["start"]))
            end = self.wall_to_timeline(float(rec["end"]))
            if window is not None:
                lo, hi = window
                start = min(max(start, lo), hi)
                end = min(max(end, start), hi)
            rec_parent = parent
            remote_parent = rec.get("parent")
            if remote_parent is not None and remote_parent in by_name:
                rec_parent = by_name[remote_parent]
            sid = self.record(
                str(rec["name"]),
                start,
                end,
                parent=rec_parent,
                pid=pid,
                tags=rec.get("tags"),
            )
            by_name[str(rec["name"])] = sid
            sids.append(sid)
        return sids

    # -- lifecycle ------------------------------------------------------
    def finish(self, status: str = "ok", slow: bool = False) -> SpanCapture:
        """Close every open span and freeze the capture."""
        now = self._now()
        with self._lock:
            self._stack.clear()
            for span in self._spans:
                if span.end is None:
                    span.end = now
            self._spans[self._root].tags.setdefault("status", status)
            return SpanCapture(
                trace_id=self.trace_id,
                wall0=self.wall0,
                spans=list(self._spans),
                status=status,
                slow=slow,
            )


# ---------------------------------------------------------------------------
# thread-current recorder: lets deep layers (Engine.plan) add spans
# without threading a recorder through every signature
# ---------------------------------------------------------------------------
def current_recorder() -> Optional[SpanRecorder]:
    """The recorder bound to this thread, if a request is being traced."""
    return getattr(_tls, "recorder", None)


@contextmanager
def bind_recorder(recorder: Optional[SpanRecorder]) -> Iterator[None]:
    """Bind ``recorder`` as this thread's current one for the scope."""
    previous = getattr(_tls, "recorder", None)
    _tls.recorder = recorder
    try:
        yield
    finally:
        _tls.recorder = previous


@contextmanager
def span(name: str, **tags: Any) -> Iterator[None]:
    """Record a span on the thread-current recorder; no-op untraced.

    This is the hook deep layers call: when the thread is not serving
    a traced request it costs one thread-local read.
    """
    recorder = getattr(_tls, "recorder", None)
    if recorder is None:
        yield
        return
    sid = recorder.begin(name, tags=tags or None)
    try:
        yield
    finally:
        recorder.end(sid)


# ---------------------------------------------------------------------------
# the store behind /trace/<id>
# ---------------------------------------------------------------------------
class SpanStore:
    """Bounded ring of finished captures, keyed by trace id.

    Two rings: every capture enters the main FIFO; slow captures are
    *also* retained in a smaller dedicated ring (the auto-capture
    surface), so a flood of fast requests cannot evict the slow trace
    an operator is about to ask for.  ``get`` checks both.
    """

    def __init__(
        self,
        capacity: int = DEFAULT_SPAN_CAPACITY,
        slow_capacity: int = DEFAULT_SLOW_SPAN_CAPACITY,
    ) -> None:
        if capacity <= 0 or slow_capacity <= 0:
            raise ValueError("span store capacities must be positive")
        self.capacity = capacity
        self.slow_capacity = slow_capacity
        self._lock = threading.Lock()
        self._captures: "OrderedDict[str, SpanCapture]" = OrderedDict()
        self._slow: "OrderedDict[str, SpanCapture]" = OrderedDict()
        self._stored = 0
        self._slow_stored = 0
        self._dropped = 0

    def put(self, capture: SpanCapture) -> None:
        with self._lock:
            self._captures[capture.trace_id] = capture
            self._stored += 1
            while len(self._captures) > self.capacity:
                self._captures.popitem(last=False)
                self._dropped += 1
            if capture.slow:
                self._slow_stored += 1
                self._slow[capture.trace_id] = capture
                while len(self._slow) > self.slow_capacity:
                    self._slow.popitem(last=False)

    def get(self, trace_id: str) -> Optional[SpanCapture]:
        with self._lock:
            capture = self._captures.get(trace_id)
            if capture is None:
                capture = self._slow.get(trace_id)
            return capture

    def ids(self) -> List[str]:
        """Resident trace ids, oldest first (slow-only ones last)."""
        with self._lock:
            ids = list(self._captures)
            ids.extend(t for t in self._slow if t not in self._captures)
            return ids

    def tail(self, count: int = 50) -> List[SpanCapture]:
        with self._lock:
            captures = list(self._captures.values())
        return newest(captures, count)

    @property
    def stored(self) -> int:
        with self._lock:
            return self._stored

    @property
    def slow_stored(self) -> int:
        """Captures ever retained by the slow-query threshold."""
        with self._lock:
            return self._slow_stored

    @property
    def dropped(self) -> int:
        with self._lock:
            return self._dropped

    def __len__(self) -> int:
        with self._lock:
            return len(self._captures)


# ---------------------------------------------------------------------------
# Chrome trace-event export (Perfetto-loadable)
# ---------------------------------------------------------------------------
def _depth(span: Span, spans: List[Span]) -> int:
    depth = 0
    parent = span.parent
    seen = 0
    while parent is not None and seen <= len(spans):
        depth += 1
        parent = spans[parent].parent
        seen += 1
    return depth


def to_chrome_trace(captures: Sequence[SpanCapture]) -> dict:
    """Captures → Chrome trace-event JSON (``B``/``E`` duration pairs).

    Contract (the CI round-trip check pins it): event ``ts`` values are
    non-decreasing over the whole list, and within every ``(pid, tid)``
    track the ``B``/``E`` events form a properly nested matching —
    walk the list with a stack and every ``E`` closes the ``B`` on top.
    Timestamps are microseconds on each capture's own timeline, offset
    so concurrent captures do not interleave tracks (one request = one
    dispatcher track + one track per worker pid it touched).
    """
    events: List[Tuple[float, int, int, dict]] = []
    names: Dict[Tuple[int, str], None] = {}
    offset_us = 0.0
    for capture in captures:
        spans = capture.spans
        for span_obj in spans:
            start_us = offset_us + span_obj.start * 1e6
            end_span = span_obj.end if span_obj.end is not None else span_obj.start
            # a strictly positive duration keeps E sorted after B
            end_us = max(offset_us + end_span * 1e6, start_us + 0.001)
            depth = _depth(span_obj, spans)
            tid = 0
            args: Dict[str, Any] = {"trace_id": capture.trace_id}
            args.update(span_obj.tags)
            common = {
                "name": span_obj.name,
                "cat": "repro",
                "pid": span_obj.pid,
                "tid": tid,
            }
            names.setdefault((span_obj.pid, capture.trace_id), None)
            # sort keys: ts, then E(0) before B(1); among same-ts B's the
            # shallower (parent) first, among same-ts E's the deeper first
            events.append(
                (round(start_us, 3), 1, depth, {**common, "ph": "B", "args": args})
            )
            events.append((round(end_us, 3), 0, -depth, {**common, "ph": "E"}))
        if spans:
            offset_us += (
                max((s.end or s.start) for s in spans) * 1e6 + 1000.0
            )
    events.sort(key=lambda e: (e[0], e[1], e[2]))
    trace_events: List[dict] = []
    for pid, trace_id in names:
        trace_events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": f"repro pid {pid} ({trace_id})"},
            }
        )
    for ts, _, _, payload in events:
        payload = dict(payload)
        payload["ts"] = ts
        trace_events.append(payload)
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


def check_chrome_trace(payload: dict) -> List[str]:
    """Schema sanity of a Chrome trace export; returns problem strings.

    The contract :func:`to_chrome_trace` promises: non-decreasing
    ``ts`` over the event list, and per-``(pid, tid)`` ``B``/``E``
    events that match up as a properly nested stack.  Used by the CI
    telemetry-smoke round-trip and the unit tests; an empty list means
    the export is well-formed.
    """
    problems: List[str] = []
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents missing or not a list"]
    last_ts: Optional[float] = None
    stacks: Dict[Tuple[int, int], List[str]] = {}
    for i, event in enumerate(events):
        ph = event.get("ph")
        if ph == "M":
            continue
        ts = event.get("ts")
        if not isinstance(ts, (int, float)):
            problems.append(f"event {i}: non-numeric ts {ts!r}")
            continue
        if last_ts is not None and ts < last_ts:
            problems.append(f"event {i}: ts {ts} < previous {last_ts}")
        last_ts = float(ts)
        track = (event.get("pid"), event.get("tid"))
        stack = stacks.setdefault(track, [])
        if ph == "B":
            stack.append(event.get("name", "?"))
        elif ph == "E":
            if not stack:
                problems.append(f"event {i}: E with empty stack on {track}")
            elif stack[-1] != event.get("name", stack[-1]):
                problems.append(
                    f"event {i}: E {event.get('name')!r} does not close "
                    f"B {stack[-1]!r} on {track}"
                )
                stack.pop()
            else:
                stack.pop()
        else:
            problems.append(f"event {i}: unknown phase {ph!r}")
    for track, stack in stacks.items():
        if stack:
            problems.append(f"track {track}: unclosed spans {stack}")
    return problems
