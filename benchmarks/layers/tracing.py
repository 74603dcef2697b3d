"""Benchmark-owned spans: who called what, for how long, under which op.

The program's own telemetry is *read* by the benchmark (``PlanTrace``,
``db.metrics``, ``span_store`` captures) but never extended by it: the
spans here are recorded from the benchmark's side of each call into a
layer, kept in memory, and written out once when the traced run ends.

A span is a dict ``{sid, name, op, parent, start, end}`` on the
``time.perf_counter`` timeline.  Every measured operation opens one root
span through :meth:`SpanLog.op`; spans opened inside it (on the same
thread) become its descendants and share its ``op`` id.
"""

from __future__ import annotations

import itertools
import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional


class SpanLog:
    """In-memory span recorder; safe for the two client threads."""

    def __init__(self) -> None:
        self.spans: List[dict] = []
        self._sids = itertools.count()
        self._ops = itertools.count()
        self._local = threading.local()

    def _stack(self) -> List[dict]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def op(self, name: str, **tags) -> Iterator[dict]:
        """Root span of one operation; allocates the op id."""
        with self.span(name, op=next(self._ops), **tags) as span:
            yield span

    @contextmanager
    def span(self, name: str, op: Optional[int] = None, **tags) -> Iterator[dict]:
        stack = self._stack()
        parent = stack[-1] if stack else None
        span = {
            "sid": next(self._sids),
            "name": name,
            "op": op if parent is None else parent["op"],
            "parent": None if parent is None else parent["sid"],
            "start": time.perf_counter(),
            "end": None,
        }
        if tags:
            span["tags"] = tags
        self.spans.append(span)
        stack.append(span)
        try:
            yield span
        finally:
            span["end"] = time.perf_counter()
            stack.pop()

    def add(self, name: str, parent: dict, start: float, end: float) -> dict:
        """Record a span measured by the program itself under ``parent``
        (the caller places it on the timeline; see ``place_operators``)."""
        span = {
            "sid": next(self._sids),
            "name": name,
            "op": parent["op"],
            "parent": parent["sid"],
            "start": start,
            "end": end,
            "tags": {"source": "program"},
        }
        self.spans.append(span)
        return span

    def place_operators(self, parent: dict, plan_trace) -> None:
        """Lay a ``PlanTrace``'s operator records under ``parent``.

        ``PlanTrace`` reports disjoint per-operator self times in
        execution (post) order but no start instants, so the records
        are laid end to end from the parent's start: durations are the
        program's, positions are nominal.
        """
        cursor = parent["start"]
        for record in plan_trace.records:
            end = min(cursor + record.self_seconds, parent["end"])
            self.add("core." + record.name, parent, cursor, end)
            cursor = end


def self_seconds(spans: List[dict]) -> Dict[int, float]:
    """Per span: its duration minus the part its children cover."""
    out = {s["sid"]: s["end"] - s["start"] for s in spans}
    for span in spans:
        if span["parent"] is not None:
            out[span["parent"]] -= span["end"] - span["start"]
    return out


def self_seconds_by_name(spans: List[dict]) -> Dict[str, List[float]]:
    """Self times grouped by span name (one entry per span)."""
    own = self_seconds(spans)
    out: Dict[str, List[float]] = {}
    for span in spans:
        out.setdefault(span["name"], []).append(own[span["sid"]])
    return out


def check_nesting(spans: List[dict], slack: float = 1e-6) -> List[str]:
    """Structural problems of a span list (empty when well formed):
    a child outside its parent's interval or under another op id, an
    unfinished span, or an op id with more than one root."""
    problems: List[str] = []
    by_sid = {s["sid"]: s for s in spans}
    roots: Dict[int, int] = {}
    for span in spans:
        label = f"span {span['sid']} ({span['name']})"
        if span["end"] is None or span["end"] < span["start"]:
            problems.append(f"{label}: unfinished or negative duration")
            continue
        if span["parent"] is None:
            roots[span["op"]] = roots.get(span["op"], 0) + 1
            continue
        parent = by_sid.get(span["parent"])
        if parent is None:
            problems.append(f"{label}: unknown parent {span['parent']}")
        elif parent["op"] != span["op"]:
            problems.append(f"{label}: op id differs from its parent's")
        elif (
            span["start"] < parent["start"] - slack
            or span["end"] > parent["end"] + slack
        ):
            problems.append(f"{label}: outside its parent's interval")
    for op, count in roots.items():
        if op is None or count != 1:
            problems.append(f"op {op}: {count} root spans")
    return problems
