"""Race tests for the lock-guarded write paths of the telemetry layer.

Each test pins one write path that shared state reaches from several
threads and that runs under a lock: racing it must neither raise nor
corrupt state.
"""

import io
import json
import threading
import urllib.request

from repro.telemetry.hooks import set_enabled, set_registry, use_registry
from repro.telemetry.http import TelemetryServer
from repro.telemetry.querylog import QueryLog, QueryLogEvent
from repro.telemetry.registry import MetricsRegistry


def event(index=0):
    return QueryLogEvent(
        trace_id=f"t{index}",
        query_hash="h",
        query="Q",
        engine="tlc",
        optimize=False,
        cache_hit=False,
        status="ok",
        seconds=0.0,
        result_trees=0,
    )


def hammer(workers):
    """Run the worker callables concurrently; re-raise any exception."""
    errors = []

    def wrap(fn):
        try:
            fn()
        except Exception as error:  # pragma: no cover - failure path
            errors.append(error)

    threads = [
        threading.Thread(target=wrap, args=(fn,)) for fn in workers
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert errors == []


class TestQueryLogCloseRace:
    def test_emit_racing_close_never_hits_a_closed_sink(self):
        for _ in range(20):
            log = QueryLog(capacity=8, sink=io.StringIO())
            log._owns_sink = True  # close() should tear the sink down
            start = threading.Barrier(3)

            def emit():
                start.wait()
                for index in range(50):
                    log.emit(event(index))

            def close():
                start.wait()
                log.close()

            hammer([emit, emit, close])

    def test_double_close_is_idempotent(self):
        log = QueryLog(capacity=4, sink=io.StringIO())
        log._owns_sink = True
        hammer([log.close, log.close, log.close])


class TestTelemetryServerLifecycle:
    def test_double_start_is_rejected(self, tiny_engine):
        from repro.service import QueryService

        with QueryService(tiny_engine) as service:
            server = TelemetryServer(service, port=0)
            try:
                server.start()
                try:
                    server.start()
                    raise AssertionError("second start must fail")
                except RuntimeError:
                    pass
            finally:
                server.close()

    def test_racing_closers_shut_down_exactly_once(self, tiny_engine):
        from repro.service import QueryService

        with QueryService(tiny_engine) as service:
            server = TelemetryServer(service, port=0)
            host, port = server.start()
            body = urllib.request.urlopen(
                f"http://{host}:{port}/healthz", timeout=5
            ).read()
            assert json.loads(body)["status"] == "ok"
            hammer([server.close] * 4)
            assert server._httpd is None and server._thread is None


class TestHookSetterRaces:
    def test_racing_registry_swaps_settle_on_one_registry(self):
        original = set_registry(MetricsRegistry())
        try:
            registries = [MetricsRegistry() for _ in range(8)]
            hammer([lambda r=r: set_registry(r) for r in registries])
            from repro.telemetry import hooks

            assert hooks._registry in registries
        finally:
            set_registry(original)

    def test_racing_enable_toggles_leave_a_boolean(self):
        previous = set_enabled(True)
        try:
            hammer(
                [lambda f=f: set_enabled(f) for f in (True, False) * 8]
            )
            from repro.telemetry import hooks

            assert hooks._enabled in (True, False)
        finally:
            set_enabled(previous)

    def test_use_registry_restores_on_exit(self):
        fresh = MetricsRegistry()
        from repro.telemetry import hooks

        before = hooks._registry
        with use_registry(fresh) as active:
            assert active is fresh
        assert hooks._registry is before


class TestDescribeUnderLock:
    def test_help_text_registration_is_lock_guarded(self):
        registry = MetricsRegistry()

        def register(i):
            counter = registry.counter(f"c_{i % 4}", help="help text")
            counter.inc()

        hammer([lambda i=i: register(i) for i in range(16)])
        assert registry.help_for("c_0") == "help text"
        assert len(registry.counters()) == 4

