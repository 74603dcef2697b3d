"""Service-level telemetry: slow capture, query log, exact sweep totals."""

import pytest

from repro import Engine
from repro.service import QueryService
from repro.xmark import FIGURE15_ORDER, QUERIES
from tests.conftest import TINY_AUCTION

QUERY = (
    'FOR $p IN document("auction.xml")//person '
    "WHERE $p//age > 25 RETURN <o>{$p/name/text()}</o>"
)


@pytest.fixture
def engine():
    e = Engine()
    e.load_xml("auction.xml", TINY_AUCTION)
    return e


class TestSlowQueryCapture:
    def test_threshold_zero_marks_everything_slow(self, engine):
        with QueryService(engine, threads=2, slow_threshold=0.0) as svc:
            svc.execute(QUERY)
            stats = svc.stats()
        assert stats.slow_queries == 1
        assert svc.slow_log.captured == 1

    def test_high_threshold_marks_nothing_slow(self, engine):
        with QueryService(
            engine, threads=2, slow_threshold=3600.0
        ) as svc:
            svc.execute(QUERY)
            stats = svc.stats()
        assert stats.slow_queries == 0
        assert len(svc.slow_log) == 0
        assert len(svc.query_log) == 1, "fast requests are still logged"

    def test_boundary_is_inclusive(self, engine):
        """elapsed == threshold counts as slow (>=, not >)."""
        svc = QueryService(engine, threads=1, slow_threshold=0.5)
        prepared = svc.prepare(QUERY)
        svc._observe(prepared, "ok", None, 0.5, 3, {})
        svc._observe(prepared, "ok", None, 0.4999, 3, {})
        assert svc.stats().slow_queries == 1
        events = svc.query_log.tail(2)
        assert [event.slow for event in events] == [True, False]
        svc.close()

    def test_first_slow_request_captures_trace(self, engine):
        with QueryService(engine, threads=2, slow_threshold=0.0) as svc:
            svc.execute(QUERY)
            svc.execute(QUERY)
        first, second = svc.slow_log.tail(2)
        assert first.trace is not None, "first slow execution is traced"
        assert second.trace is None, "resident hash suppresses re-capture"
        records = first.trace["records"]
        assert records, "capture carries per-operator records"
        assert all("self_seconds" in record for record in records)
        assert first.trace["total_seconds"] >= 0

    def test_capture_rerun_does_not_inflate_metrics(self):
        """The traced re-run's work is taken back out of ``Metrics``:
        the totals count the client-visible executions only."""

        def counters(threshold):
            engine = Engine()
            engine.load_xml("auction.xml", TINY_AUCTION)
            with QueryService(
                engine, threads=1, slow_threshold=threshold
            ) as svc:
                svc.execute(QUERY)
                svc.execute(QUERY)
                return svc.stats().counters

        captured, plain = counters(0.0), counters(None)
        assert captured["pattern_matches"] > 0
        assert captured == plain

    def test_failed_query_is_logged_with_status(self, engine):
        from repro.errors import QueryTimeoutError

        with QueryService(engine, threads=1) as svc:
            with pytest.raises(QueryTimeoutError):
                svc.execute(QUERY, deadline=1e-9)
        event = svc.query_log.tail(1)[0]
        assert event.status == "timeout"
        assert event.error is not None

    def test_failing_sink_write_skips_no_statistic(self, engine):
        """A full disk under the query log loses one line, nothing else."""
        import errno

        from repro.telemetry.querylog import QueryLog

        class FullOnce:
            """A sink whose first write finds the disk full."""

            def __init__(self):
                self.failed = False
                self.lines = []

            def write(self, line):
                if not self.failed:
                    self.failed = True
                    raise OSError(errno.ENOSPC, "No space left on device")
                self.lines.append(line)

            def flush(self):
                pass

        sink = FullOnce()
        with QueryService(
            engine,
            threads=1,
            slow_threshold=0.0,
            query_log=QueryLog(sink=sink),
        ) as svc:
            for _ in range(3):
                svc.execute(QUERY)
            stats = svc.stats()
        assert stats.executed == 3
        assert stats.latency["all"]["count"] == 3
        assert len(svc.slow_log) == 3
        assert svc.slow_log.tail(3)[0].trace is not None
        assert len(sink.lines) == 2, "later writes still reach the sink"

    def test_negative_threshold_rejected(self, engine):
        from repro.errors import ServiceError

        with pytest.raises(ServiceError):
            QueryService(engine, slow_threshold=-1.0)


class TestServiceStats:
    def test_latency_percentiles_per_query_class(self, engine):
        with QueryService(engine, threads=2) as svc:
            for _ in range(3):
                svc.execute(QUERY)
            stats = svc.stats()
        assert stats.latency["all"]["count"] == 3
        class_keys = [k for k in stats.latency if k != "all"]
        assert len(class_keys) == 1 and class_keys[0].startswith("tlc:")
        entry = stats.latency[class_keys[0]]
        assert entry["count"] == 3
        for key in ("p50_ms", "p95_ms", "p99_ms"):
            assert entry[key] >= 0
        assert "FOR $p IN" in entry["query"]

    def test_counters_snapshot_exposes_work_metrics(self, engine):
        with QueryService(engine, threads=2) as svc:
            svc.execute(QUERY)
            svc.execute(QUERY)
            stats = svc.stats()
        assert stats.counters["plan_cache_hits"] == 1
        assert stats.counters["plan_cache_misses"] == 1
        assert stats.counters["pages_read"] > 0

    def test_to_dict_is_json_ready(self, engine):
        import json

        with QueryService(engine, threads=2) as svc:
            svc.execute(QUERY)
            payload = svc.stats().to_dict()
        json.dumps(payload)
        assert payload["cache"]["hit_rate"] == 0.0
        assert payload["latency"]["all"]["count"] == 1

    def test_query_log_event_fields(self, engine):
        with QueryService(engine, threads=1) as svc:
            svc.execute(QUERY)
            svc.execute(QUERY)
        first, second = svc.query_log.tail(2)
        assert first.cache_hit is False and second.cache_hit is True
        assert first.status == "ok" and first.result_trees > 0
        assert first.query_hash == second.query_hash
        assert first.trace_id != second.trace_id
        assert first.counters.get("pages_read", 0) > 0


class TestConcurrencyEquivalence:
    """Service totals are exact: 8-thread sweep == serial sweep."""

    @staticmethod
    def _sweep(engine, threads):
        before = engine.db.metrics.snapshot()
        with QueryService(engine, threads=threads) as svc:
            svc.execute_many(QUERIES[name].text for name in FIGURE15_ORDER)
            stats = svc.stats()
        return engine.db.metrics.diff(before), stats.requests

    def test_sweep_totals_match_serial(self, xmark_engine):
        # warm the buffer pool first: pages_read / buffer_hits depend on
        # what an earlier sweep left resident
        self._sweep(xmark_engine, threads=1)
        serial, serial_requests = self._sweep(xmark_engine, threads=1)
        pooled, pooled_requests = self._sweep(xmark_engine, threads=8)
        assert serial["pattern_matches"] > 0
        assert pooled == serial, (
            "striped counters must not drop under 8-thread contention"
        )
        assert pooled_requests == serial_requests == {
            "tlc": {"ok": len(FIGURE15_ORDER)}
        }
