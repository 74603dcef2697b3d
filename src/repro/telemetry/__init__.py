"""Unified telemetry: query log, slow-query capture, spans, exposition.

The observability layer of the reproduction (DESIGN.md §12), all
stdlib-only.  It keeps no counter system of its own: the work the
paper measures is counted exactly in
:class:`~repro.storage.stats.Metrics`, and the query service counts its
requests, outcomes and latencies.  On top of that:

* a structured :class:`QueryLog` — one JSON event per service request
  (trace id, query hash, engine, cache outcome, status, latency,
  ``Metrics`` counter deltas) — ring-buffered with an optional JSONL
  sink file;
* a :class:`SlowQueryLog` that holds full EXPLAIN ANALYZE captures of
  requests over the slow threshold, bounded to a small ring;
* request spans (:class:`SpanRecorder`, :class:`SpanStore`), exported
  as Chrome-trace JSON;
* log2-bucketed :class:`Histogram` distributions (p50/p95/p99) behind
  the service's latency figures.

Exposition: Prometheus text via :func:`render_prometheus`, built at
scrape time by the embedded :class:`TelemetryServer` (``/metrics``,
``/stats``, ``/healthz``, ``/slow``, ``/trace``, ``/workers`` on the
``serve`` subcommand), and the ``repro stats`` / ``repro tail`` CLI.
"""

from .exposition import CONTENT_TYPE, render_prometheus
from .histogram import Histogram, HistogramSnapshot
from .http import TelemetryServer
from .querylog import (
    QueryLog,
    QueryLogEvent,
    SlowQueryLog,
    excerpt,
    new_trace_id,
    query_hash,
)
from .spans import (
    Span,
    SpanCapture,
    SpanRecorder,
    SpanStore,
    bind_recorder,
    check_chrome_trace,
    current_recorder,
    set_spans,
    span,
    spans_enabled,
    to_chrome_trace,
    use_spans,
)

__all__ = [
    "CONTENT_TYPE",
    "Histogram",
    "HistogramSnapshot",
    "QueryLog",
    "QueryLogEvent",
    "SlowQueryLog",
    "Span",
    "SpanCapture",
    "SpanRecorder",
    "SpanStore",
    "TelemetryServer",
    "bind_recorder",
    "check_chrome_trace",
    "current_recorder",
    "excerpt",
    "new_trace_id",
    "query_hash",
    "render_prometheus",
    "set_spans",
    "span",
    "spans_enabled",
    "to_chrome_trace",
    "use_spans",
]
