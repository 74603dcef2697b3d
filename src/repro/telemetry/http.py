"""Embedded HTTP exposition: metrics, stats, traces and workers.

A tiny stdlib ``ThreadingHTTPServer`` running on a daemon thread next
to a :class:`~repro.service.QueryService`.  It serves:

* ``GET /metrics`` — Prometheus text format (scrape this): the
  service's request counts and latencies, the ``Metrics`` work
  counters and the span counts, all read when scraped;
* ``GET /stats``   — JSON: service lifetime counters, plan-cache
  snapshot, per-query-class latency percentiles;
* ``GET /healthz`` — liveness: ``{"status": "ok", ...}``;
* ``GET /slow``    — JSON: the slow-query ring, newest last, each
  entry carrying its captured per-operator trace;
* ``GET /trace``   — JSON: resident span captures (trace ids + spans);
* ``GET /trace/<id>`` — one capture as Chrome-trace-event JSON — save
  the body and load it in Perfetto / ``chrome://tracing``;
* ``GET /workers`` — JSON: per-worker-process introspection (requests
  served, plans cached by plan hash, snapshot load ms, heartbeat).

The server binds ``127.0.0.1`` by default — telemetry is an operator
surface, not a public one — and ``port=0`` picks an ephemeral port
(the bound address is reported by :meth:`TelemetryServer.start`).
"""

from __future__ import annotations

import gc
import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import TYPE_CHECKING, List, Optional, Tuple

from .exposition import (
    CONTENT_TYPE,
    Family,
    render_prometheus,
    work_counter_families,
)
from .spans import to_chrome_trace

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..service.service import QueryService


class TelemetryServer:
    """HTTP exposition for one query service (start / address / close)."""

    def __init__(
        self,
        service: "QueryService",
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.service = service
        self.host = host
        self.port = port
        self._lock = threading.Lock()
        self._httpd: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None
        self._started = time.time()
        self._exports = 0

    # ------------------------------------------------------------------
    # payload builders (also used by tests without a socket)
    # ------------------------------------------------------------------
    def metrics_text(self) -> str:
        service = self.service
        stats = service.stats()
        store = service.span_store
        with self._lock:
            exports = self._exports
        runtime = _runtime_payload()
        workers = service.workers()

        def single(name: str, help: str, kind: str, value: float) -> Family:
            return (name, help, kind, [(None, float(value))])

        families: List[Family] = [
            (
                "repro_requests_total",
                "Service requests by engine and outcome",
                "counter",
                [
                    ({"engine": engine, "status": status}, float(count))
                    for engine, by_status in stats.requests.items()
                    for status, count in by_status.items()
                ],
            ),
            (
                "repro_request_seconds",
                "End-to-end service request latency",
                "histogram",
                [
                    ({"engine": engine}, snapshot)
                    for engine, snapshot in sorted(
                        service.engine_latency().items()
                    )
                ],
            ),
            single(
                "repro_plan_executions_total",
                "Requests the service evaluated to a result",
                "counter",
                sum(s.get("ok", 0) for s in stats.requests.values()),
            ),
            single(
                "repro_slow_queries_total",
                "Requests over the slow-query threshold",
                "counter",
                stats.slow_queries,
            ),
            single(
                "repro_span_requests_total",
                "Requests recorded as full span trees",
                "counter",
                store.stored,
            ),
            single(
                "repro_span_slow_captures_total",
                "Span captures auto-retained by the slow-query threshold",
                "counter",
                store.slow_stored,
            ),
            single(
                "repro_span_exports_total",
                "Chrome-trace exports rendered by /trace/<id>",
                "counter",
                exports,
            ),
            *work_counter_families(stats.counters),
            single(
                "repro_service_threads",
                "Worker threads of the query service pool",
                "gauge",
                service.threads,
            ),
            single(
                "repro_plan_cache_size",
                "Prepared plans currently resident in the LRU",
                "gauge",
                len(service.cache),
            ),
            single(
                "repro_slow_log_size",
                "Captures currently held by the slow-query ring",
                "gauge",
                len(service.slow_log),
            ),
            single(
                "repro_span_store_size",
                "Span captures currently resident behind /trace",
                "gauge",
                len(store),
            ),
            single(
                "repro_store_sealed_objects",
                "Objects in the collector's permanent generation "
                "(the sealed store)",
                "gauge",
                runtime["store_sealed_objects"],
            ),
            single(
                "repro_gc_gen2_collections_total",
                "Full (generation-2) collections run by this process",
                "counter",
                runtime["gc_gen2_collections"],
            ),
            single(
                "repro_workers_in_flight",
                "Requests currently dispatched to worker processes",
                "gauge",
                workers["in_flight"],
            ),
        ]
        if workers["workers"]:
            families.append(
                (
                    "repro_worker_requests",
                    "Requests served, per worker process",
                    "gauge",
                    [
                        (
                            {"pid": str(entry["pid"])},
                            float(entry["requests"]),
                        )
                        for entry in workers["workers"]
                    ],
                )
            )
            families.append(
                (
                    "repro_worker_snapshot_load_ms",
                    "Database materialization time per worker process",
                    "gauge",
                    [
                        (
                            {"pid": str(entry["pid"])},
                            float(entry["snapshot_load_ms"] or 0.0),
                        )
                        for entry in workers["workers"]
                    ],
                )
            )
        return render_prometheus(families)

    def stats_payload(self) -> dict:
        return {
            "service": self.service.stats().to_dict(),
            "runtime": _runtime_payload(),
            "uptime_seconds": round(time.time() - self._started, 3),
        }

    def health_payload(self) -> dict:
        return {
            "status": "ok",
            "uptime_seconds": round(time.time() - self._started, 3),
            "threads": self.service.threads,
        }

    def slow_payload(self) -> dict:
        records = self.service.slow_log.tail(self.service.slow_log.capacity)
        return {
            "captured": self.service.slow_log.captured,
            "slow": [record.to_dict() for record in records],
        }

    def trace_index_payload(self) -> dict:
        store = self.service.span_store
        return {
            "spans_enabled": self.service.spans,
            "stored": store.stored,
            "dropped": store.dropped,
            "traces": [cap.to_dict() for cap in store.tail()],
        }

    def trace_payload(self, trace_id: str) -> Optional[dict]:
        """One capture as Chrome-trace JSON; None when not resident."""
        capture = self.service.span_store.get(trace_id)
        if capture is None:
            return None
        with self._lock:
            self._exports += 1
        return to_chrome_trace([capture])

    def workers_payload(self) -> dict:
        return self.service.workers()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> Tuple[str, int]:
        """Bind and serve on a daemon thread; returns (host, port)."""
        server = self

        class Handler(BaseHTTPRequestHandler):
            def _send(
                self, body: bytes, content_type: str, status: int = 200
            ) -> None:
                self.send_response(status)
                self.send_header("Content-Type", content_type)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def do_GET(self) -> None:  # noqa: N802 - stdlib contract
                path = self.path.split("?", 1)[0]
                try:
                    if path == "/metrics":
                        self._send(
                            server.metrics_text().encode("utf-8"),
                            CONTENT_TYPE,
                        )
                    elif path == "/stats":
                        self._send(
                            _json_bytes(server.stats_payload()),
                            "application/json",
                        )
                    elif path == "/healthz":
                        self._send(
                            _json_bytes(server.health_payload()),
                            "application/json",
                        )
                    elif path == "/slow":
                        self._send(
                            _json_bytes(server.slow_payload()),
                            "application/json",
                        )
                    elif path == "/trace":
                        self._send(
                            _json_bytes(server.trace_index_payload()),
                            "application/json",
                        )
                    elif path.startswith("/trace/"):
                        trace_id = path[len("/trace/"):]
                        payload = server.trace_payload(trace_id)
                        if payload is None:
                            self._send(
                                _json_bytes(
                                    {
                                        "error": "unknown trace id",
                                        "trace_id": trace_id,
                                        "resident": (
                                            server.service.span_store.ids()
                                        ),
                                    }
                                ),
                                "application/json",
                                status=404,
                            )
                        else:
                            self._send(
                                _json_bytes(payload),
                                "application/json",
                            )
                    elif path == "/workers":
                        self._send(
                            _json_bytes(server.workers_payload()),
                            "application/json",
                        )
                    else:
                        self._send(
                            _json_bytes(
                                {
                                    "error": "not found",
                                    "endpoints": ENDPOINTS,
                                }
                            ),
                            "application/json",
                            status=404,
                        )
                except Exception as error:  # pragma: no cover - defensive
                    self._send(
                        _json_bytes({"error": str(error)}),
                        "application/json",
                        status=500,
                    )

            def log_message(self, *args) -> None:  # silence stderr
                pass

        with self._lock:
            if self._httpd is not None:
                raise RuntimeError("telemetry server already started")
            self._httpd = ThreadingHTTPServer(
                (self.host, self.port), Handler
            )
            self._httpd.daemon_threads = True
            self.port = self._httpd.server_address[1]
            self._thread = threading.Thread(
                target=self._httpd.serve_forever,
                name="repro-telemetry",
                daemon=True,
            )
            self._thread.start()
            return (self.host, self.port)

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def close(self) -> None:
        # detach under the lock so two racing closers cannot both
        # shut the same server down; the blocking shutdown/join happen
        # outside it
        with self._lock:
            httpd, self._httpd = self._httpd, None
            thread, self._thread = self._thread, None
        if httpd is not None:
            httpd.shutdown()
            httpd.server_close()
        if thread is not None:
            thread.join(timeout=5)

    def __enter__(self) -> "TelemetryServer":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


#: Paths the server answers (listed in 404 responses and the docs).
ENDPOINTS: List[str] = [
    "/metrics",
    "/stats",
    "/healthz",
    "/slow",
    "/trace",
    "/trace/<id>",
    "/workers",
]


def _runtime_payload() -> dict:
    """Collector state, read when asked (no ``gc.callbacks`` hook).

    ``gc.get_freeze_count()`` walks the permanent generation — tens of
    milliseconds over a large sealed store — so this belongs to scrape
    time, never to a request.
    """
    return {
        "store_sealed_objects": gc.get_freeze_count(),
        "gc_gen2_collections": gc.get_stats()[2]["collections"],
    }


def _json_bytes(payload: dict) -> bytes:
    return json.dumps(payload, indent=2, sort_keys=True).encode("utf-8")
