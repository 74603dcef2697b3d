"""Service span integration: traced requests across the worker boundary.

The span layer's unit semantics are pinned in
``tests/telemetry/test_spans.py``; here real requests run through
:class:`~repro.service.QueryService` — thread mode and process mode
under every available start method — and the captures must carry the
documented phase tree, export cleanly to Chrome trace JSON, and change
no result bytes.  The concurrency tests double as the cross-process
accounting regression: per-request and merged counters stay exact with
two or more requests in flight on a spawn pool.
"""

import multiprocessing

import pytest

from repro import Engine
from repro.service import START_METHODS, QueryService
from repro.service.cache import normalize_query
from repro.telemetry.querylog import query_hash
from repro.telemetry.spans import check_chrome_trace, to_chrome_trace
from tests.conftest import TINY_AUCTION

QUERY = (
    'FOR $p IN document("auction.xml")//person '
    "WHERE $p//age > 25 RETURN <o>{$p/name/text()}</o>"
)
HEAVY = (
    'FOR $o IN document("auction.xml")//open_auction, '
    '$p IN document("auction.xml")//person '
    "WHERE $o/bidder/personref/@person = $p/@id "
    "RETURN <w>{$p/name/text()}</w>"
)
LIGHT = 'FOR $q IN document("auction.xml")//quantity RETURN $q'

AVAILABLE = [
    m for m in START_METHODS
    if m in multiprocessing.get_all_start_methods()
]

#: Span names every traced request must carry, whatever the backend.
DISPATCHER_PHASES = {
    "request", "prepare", "plan_cache", "queue", "execute",
}
#: Extra phases a process-mode dispatch adds, including the worker's.
PROCESS_PHASES = {
    "dispatch", "serialize", "ipc_send", "worker", "worker.deserialize",
    "worker.execute", "worker.result_serialize", "ipc_recv",
    "result_deserialize", "merge",
}


def fresh_engine():
    engine = Engine()
    engine.load_xml("auction.xml", TINY_AUCTION)
    return engine


def _xml(result):
    return [tree.to_xml() for tree in result]


class TestThreadModeSpans:
    def test_disabled_by_default_and_costs_no_capture(self):
        with QueryService(fresh_engine(), threads=1) as svc:
            assert svc.spans is False
            svc.execute(QUERY)
            assert len(svc.span_store) == 0
            assert svc.stats().spans is False

    def test_traced_request_carries_the_phase_tree(self):
        with QueryService(fresh_engine(), threads=1, spans=True) as svc:
            assert svc.stats().spans is True
            svc.execute(QUERY)
            (capture,) = svc.span_store.tail(1)
        names = {span.name for span in capture.spans}
        assert DISPATCHER_PHASES <= names
        assert {"parse", "translate", "compile"} <= names
        assert capture.status == "ok"

    def test_trace_id_joins_the_query_log(self):
        with QueryService(fresh_engine(), threads=1, spans=True) as svc:
            svc.execute(QUERY)
            (event,) = svc.query_log.tail(1)
            capture = svc.span_store.get(event.trace_id)
        assert capture is not None
        assert capture.trace_id == event.trace_id

    def test_spans_change_no_result_bytes(self):
        expected = _xml(fresh_engine().run(QUERY))
        with QueryService(fresh_engine(), threads=1, spans=True) as svc:
            assert _xml(svc.execute(QUERY)) == expected

    def test_failed_request_is_captured_with_its_status(self):
        with QueryService(fresh_engine(), threads=1, spans=True) as svc:
            with pytest.raises(Exception):
                svc.execute("FOR $x IN !!! RETURN $x")
            (capture,) = svc.span_store.tail(1)
        assert capture.status == "error"


@pytest.mark.parametrize("start_method", AVAILABLE)
class TestProcessModeSpans:
    def test_worker_phases_ride_the_request_timeline(self, start_method):
        expected = _xml(fresh_engine().run(QUERY))
        with QueryService(
            fresh_engine(),
            threads=2,
            mode="process",
            start_method=start_method,
            spans=True,
        ) as svc:
            assert _xml(svc.execute(QUERY)) == expected
            (capture,) = svc.span_store.tail(1)
        names = {span.name for span in capture.spans}
        assert DISPATCHER_PHASES <= names
        assert PROCESS_PHASES <= names
        by_name = {span.name: span for span in capture.spans}
        dispatch = by_name["dispatch"]
        worker = by_name["worker"]
        # worker spans live on the worker's pid track, inside dispatch
        assert worker.pid != dispatch.pid
        assert dispatch.start <= worker.start <= worker.end <= dispatch.end
        execute = by_name["worker.execute"]
        assert worker.start <= execute.start <= execute.end <= worker.end

    def test_chrome_export_is_well_formed(self, start_method):
        with QueryService(
            fresh_engine(),
            threads=2,
            mode="process",
            start_method=start_method,
            spans=True,
        ) as svc:
            svc.execute_many([QUERY, LIGHT, QUERY])
            captures = svc.span_store.tail(3)
        assert len(captures) == 3
        payload = to_chrome_trace(captures)
        assert check_chrome_trace(payload) == []

    def test_workers_introspection_counts_served_requests(
        self, start_method
    ):
        with QueryService(
            fresh_engine(),
            threads=2,
            mode="process",
            start_method=start_method,
            spans=True,
        ) as svc:
            svc.prime()
            svc.execute_many([QUERY, LIGHT, QUERY, LIGHT])
            workers = svc.workers()
        assert workers["mode"] == "process"
        assert workers["start_method"] == start_method
        assert workers["in_flight"] == 0
        assert workers["dispatched"] >= 4
        assert len(workers["workers"]) == 2
        assert (
            sum(entry["requests"] for entry in workers["workers"]) >= 4
        )
        for entry in workers["workers"]:
            assert entry["pid"] > 0
            assert entry["last_heartbeat"] is not None
            plan_runs = sum(entry["plans"].values())
            assert plan_runs == entry["requests"]

    def test_untraced_service_keeps_the_plain_wire_path(
        self, start_method
    ):
        """Spans off: the same wire and bytes, and no capture kept."""
        expected = _xml(fresh_engine().run(QUERY))
        with QueryService(
            fresh_engine(),
            threads=1,
            mode="process",
            start_method=start_method,
            spans=False,
        ) as svc:
            assert _xml(svc.execute(QUERY)) == expected
            assert len(svc.span_store) == 0


def _serial_stable_counters(query):
    """One query's warm-independent counter delta, measured alone."""
    stable = (
        "pattern_matches", "structural_joins", "navigation_steps",
        "groupby_ops",
    )
    with QueryService(fresh_engine(), threads=1) as svc:
        svc.execute(query)
        (event,) = svc.query_log.tail(1)
    return {k: event.counters.get(k, 0) for k in stable}


@pytest.mark.skipif(
    "spawn" not in AVAILABLE, reason="platform offers no spawn"
)
class TestSpawnConcurrencyAccounting:
    """≥2 requests in flight on a spawn pool: nothing bleeds, nothing
    is lost — per-event counters match the serial baselines and the
    worker telemetry deltas merge to exact dispatcher totals."""

    def test_concurrent_requests_attribute_only_their_own_work(self):
        expected = {
            query: _serial_stable_counters(query)
            for query in (HEAVY, LIGHT)
        }
        assert expected[HEAVY] != expected[LIGHT]
        with QueryService(
            fresh_engine(),
            threads=2,
            mode="process",
            start_method="spawn",
            spans=True,
        ) as svc:
            svc.prime()
            handles = [
                svc.submit(query)
                for query in (HEAVY, LIGHT, HEAVY, LIGHT)
            ]
            for handle in handles:
                handle.result(timeout=60)
            events = svc.query_log.tail(4)
        assert len(events) == 4
        for event in events:
            query = (
                HEAVY
                if event.query_hash == query_hash(normalize_query(HEAVY))
                else LIGHT
            )
            got = {k: event.counters.get(k, 0) for k in expected[query]}
            assert got == expected[query], (
                f"cross-worker counter bleed for {query!r}"
            )

    def test_worker_counter_deltas_merge_to_exact_totals(self):
        spawned = fresh_engine()
        with QueryService(
            spawned,
            threads=2,
            mode="process",
            start_method="spawn",
            spans=True,
        ) as svc:
            svc.prime()
            handles = [svc.submit(HEAVY) for _ in range(4)]
            for handle in handles:
                handle.result(timeout=60)
        serial = fresh_engine()
        with QueryService(serial, threads=1) as svc:
            for _ in range(4):
                svc.execute(HEAVY)
        # the matches happen in the workers and reach the dispatcher
        # only through each WorkerResult's counter delta; four
        # concurrent requests merge to exactly four requests' worth —
        # no loss, no bleed
        merged = spawned.db.metrics.snapshot()["pattern_matches"]
        assert merged == serial.db.metrics.snapshot()["pattern_matches"] > 0
