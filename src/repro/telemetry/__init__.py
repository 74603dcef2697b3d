"""Unified telemetry: metrics registry, query log, slow-query capture.

The observability layer of the reproduction (DESIGN.md §12).  Three
pieces, all stdlib-only:

* a process-wide :class:`MetricsRegistry` of counters, gauges and
  log2-bucketed :class:`Histogram` distributions (p50/p95/p99),
  updated through the :func:`instrument` hook layer that the
  evaluator, pattern matcher, scan cache, prepared-plan cache and
  service request path call;
* a structured :class:`QueryLog` — one JSON event per service request
  (trace id, query hash, engine, cache outcome, status, latency,
  ``Metrics`` counter deltas) — ring-buffered with an optional JSONL
  sink file;
* a :class:`SlowQueryLog` that holds full EXPLAIN ANALYZE captures of
  requests over the slow threshold, bounded to a small ring.

Exposition: Prometheus text via :func:`render_prometheus` and the
embedded :class:`TelemetryServer` (``/metrics``, ``/stats``,
``/healthz``, ``/slow`` on the ``serve`` subcommand), JSON via
``MetricsRegistry.snapshot`` and the ``repro stats`` / ``repro tail``
CLI.
"""

from .exposition import CONTENT_TYPE, render_prometheus
from .http import TelemetryServer
from .hooks import (
    SITES,
    disabled,
    enabled,
    get_registry,
    instrument,
    set_enabled,
    set_registry,
    use_registry,
)
from .querylog import (
    QueryLog,
    QueryLogEvent,
    SlowQueryLog,
    excerpt,
    new_trace_id,
    query_hash,
)
from .registry import (
    Counter,
    Gauge,
    Histogram,
    HistogramSnapshot,
    MetricsRegistry,
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
    "Counter",
    "Gauge",
    "Histogram",
    "HistogramSnapshot",
    "MetricsRegistry",
    "QueryLog",
    "QueryLogEvent",
    "SITES",
    "SlowQueryLog",
    "Span",
    "SpanCapture",
    "SpanRecorder",
    "SpanStore",
    "TelemetryServer",
    "bind_recorder",
    "check_chrome_trace",
    "current_recorder",
    "disabled",
    "enabled",
    "excerpt",
    "get_registry",
    "instrument",
    "new_trace_id",
    "query_hash",
    "render_prometheus",
    "set_enabled",
    "set_registry",
    "set_spans",
    "span",
    "spans_enabled",
    "to_chrome_trace",
    "use_registry",
    "use_spans",
]
