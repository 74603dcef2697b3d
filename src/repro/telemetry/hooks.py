"""The single hook layer every instrumented subsystem calls.

The evaluator, pattern matcher, scan cache, prepared-plan cache and
the service request path do not talk to the
:class:`~repro.telemetry.registry.MetricsRegistry` directly — they call
:func:`instrument` with a *site* name, and this module maps sites to
metrics.  That keeps three properties in one place:

* **one off-switch** — :func:`set_enabled` (or the scoped
  :func:`disabled` context manager) turns every hook into a single
  boolean test; the telemetry-off overhead budget (< 5 %) is
  enforced by keeping that test first in every hook;
* **one catalog** — the site → metric mapping below *is* the metric
  name catalog documented in ``docs/OBSERVABILITY.md``; adding a site
  means adding one line here;
* **one registry** — :func:`get_registry` returns the process-wide
  registry; tests swap in a fresh one with :func:`use_registry` so
  their totals are isolated.

Suppression is thread-local on top of the global flag: the slow-query
capture re-runs a query with the tracer attached, and suppressing its
hooks on just that thread keeps registry totals equal to the number of
*client-visible* executions (which the concurrency-equivalence test
pins down).
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Dict, Iterator, Optional, Tuple

from .registry import Histogram, MetricsRegistry

_registry = MetricsRegistry()
_enabled = True
_tls = threading.local()
#: Guards rebinds of the module state above.  Readers stay lock-free —
#: a hook observes either the old or the new binding, both consistent —
#: but two racing writers must not interleave their read-swap-return.
_state_lock = threading.Lock()

#: Histograms whose observations are cardinalities, not seconds: the
#: first bucket's upper bound is 1 tree rather than 100 µs.
_CARDINALITY_BASE = 1.0

#: site -> (kind, metric name, help text).  Counter sites increment by
#: ``value``; histogram sites observe ``value``.
SITES: Dict[str, Tuple[str, str, str]] = {
    "evaluator.run": (
        "counter",
        "repro_plan_executions_total",
        "Plan executions through the bottom-up evaluator",
    ),
    "evaluator.seconds": (
        "histogram",
        "repro_eval_seconds",
        "Wall time of one evaluate() call over a plan",
    ),
    "evaluator.trees": (
        "histogram",
        "repro_result_trees",
        "Output cardinality (trees) of one plan execution",
    ),
    "matcher.match": (
        "counter",
        "repro_pattern_matches_total",
        "Pattern-tree match calls (Select / anchored extension)",
    ),
    "matcher.trees": (
        "histogram",
        "repro_pattern_match_trees",
        "Witness trees produced by one pattern-match call",
    ),
    "scan_cache.hit": (
        "counter",
        "repro_scan_cache_hits_total",
        "Index scans answered from the query-scoped scan cache",
    ),
    "scan_cache.miss": (
        "counter",
        "repro_scan_cache_misses_total",
        "Index scans that built a fresh candidate list",
    ),
    "plan_cache.hit": (
        "counter",
        "repro_plan_cache_hits_total",
        "Prepared-plan lookups answered from the LRU",
    ),
    "plan_cache.miss": (
        "counter",
        "repro_plan_cache_misses_total",
        "Prepared-plan lookups that paid the full compile",
    ),
    "plan_cache.eviction": (
        "counter",
        "repro_plan_cache_evictions_total",
        "Prepared plans dropped by capacity or generation",
    ),
    "service.request": (
        "counter",
        "repro_requests_total",
        "Service requests by engine and outcome",
    ),
    "service.seconds": (
        "histogram",
        "repro_request_seconds",
        "End-to-end service request latency",
    ),
    "service.slow": (
        "counter",
        "repro_slow_queries_total",
        "Requests over the slow-query threshold",
    ),
    "planner.bump": (
        "counter",
        "repro_planner_bumps_total",
        "Cached plans evicted by the feedback re-coster",
    ),
    "spans.request": (
        "counter",
        "repro_span_requests_total",
        "Requests recorded as full span trees",
    ),
    "spans.slow": (
        "counter",
        "repro_span_slow_captures_total",
        "Span captures auto-retained by the slow-query threshold",
    ),
    "spans.export": (
        "counter",
        "repro_span_exports_total",
        "Chrome-trace exports rendered (/trace and profile --spans)",
    ),
    "calibration.loaded": (
        "gauge",
        "repro_calibration_loaded",
        "Whether a measured cost-model calibration table is active",
    ),
    "calibration.applied": (
        "counter",
        "repro_calibration_applied_total",
        "Plans costed with calibrated (measured) constants",
    ),
}

_CARDINALITY_SITES = frozenset({"evaluator.trees", "matcher.trees"})


def enabled() -> bool:
    """Whether hooks record anything on this thread right now."""
    return _enabled and not getattr(_tls, "suppress", 0)


def set_enabled(flag: bool) -> bool:
    """Flip the process-wide switch; returns the previous setting."""
    global _enabled
    with _state_lock:
        previous = _enabled
        _enabled = bool(flag)
    return previous


@contextmanager
def disabled() -> Iterator[None]:
    """Suppress hooks on the *calling thread* for the duration.

    Thread-local on purpose: the slow-query capture uses this around
    its traced re-run without blinding concurrent requests' telemetry.
    """
    _tls.suppress = getattr(_tls, "suppress", 0) + 1
    try:
        yield
    finally:
        _tls.suppress -= 1


def get_registry() -> MetricsRegistry:
    """The process-wide registry every hook records into."""
    return _registry


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Replace the process-wide registry; returns the previous one."""
    global _registry
    with _state_lock:
        previous = _registry
        _registry = registry
    return previous


@contextmanager
def use_registry(registry: MetricsRegistry) -> Iterator[MetricsRegistry]:
    """Scoped registry swap (tests isolate their totals with this)."""
    previous = set_registry(registry)
    try:
        yield registry
    finally:
        set_registry(previous)


def instrument(
    site: str,
    value: float = 1.0,
    labels: Optional[Dict[str, str]] = None,
) -> None:
    """Record one observation at ``site`` (see :data:`SITES`).

    Counter sites add ``value``; histogram sites observe it; gauge
    sites set it.  Unknown sites raise ``KeyError`` — a typo in an
    instrumented layer should fail tests, not silently drop data.
    A disabled hook is one boolean test and a thread-local read.
    """
    if not _enabled or getattr(_tls, "suppress", 0):
        return
    kind, name, help = SITES[site]
    if kind == "counter":
        _registry.counter(name, labels, help).inc(value)
    elif kind == "histogram":
        base = (
            _CARDINALITY_BASE if site in _CARDINALITY_SITES else 1e-4
        )
        _registry.histogram(name, labels, help, base=base).observe(value)
    else:
        _registry.gauge(name, labels, help).set(value)


def new_latency_histogram() -> Histogram:
    """A free-standing latency histogram (service-local percentiles)."""
    return Histogram(base=1e-4, buckets=28)
