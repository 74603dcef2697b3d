"""End-to-end tests for the process-pool execution backend.

Every test that runs real worker processes is parametrized over the
start methods the platform offers, so the fork token handoff and the
digest-verified snapshot handshake are both exercised where available.
"""

import multiprocessing
import tempfile
import time
from pathlib import Path

import pytest

from repro import Engine
from repro.errors import (
    QueryTimeoutError,
    ResourceLimitError,
    ServiceError,
    WorkerError,
)
from repro.service import (
    SERVICE_MODES,
    START_METHODS,
    QueryService,
    WorkerPool,
    default_start_method,
)
from tests.conftest import TINY_AUCTION

QUERY = (
    'FOR $p IN document("auction.xml")//person '
    "WHERE $p//age > 25 RETURN <o>{$p/name/text()}</o>"
)
AUCTIONS = (
    'FOR $o IN document("auction.xml")//open_auction '
    "RETURN <i>{$o/initial/text()}</i>"
)
MISSING_DOCUMENT = 'FOR $p IN document("nope.xml")//person RETURN $p/name'

AVAILABLE = [
    m for m in START_METHODS
    if m in multiprocessing.get_all_start_methods()
]


@pytest.fixture
def engine():
    e = Engine()
    e.load_xml("auction.xml", TINY_AUCTION)
    return e


def _xml(result):
    return [tree.to_xml() for tree in result]


@pytest.mark.parametrize("start_method", AVAILABLE)
class TestProcessExecution:
    def test_results_byte_identical_to_serial(self, engine, start_method):
        expected = _xml(engine.run(QUERY))
        with QueryService(
            engine, threads=2, mode="process", start_method=start_method
        ) as svc:
            assert _xml(svc.execute(QUERY)) == expected

    def test_execute_many_preserves_order(self, engine, start_method):
        queries = [QUERY, AUCTIONS] * 3
        expected = [_xml(engine.run(q)) for q in queries]
        with QueryService(
            engine, threads=2, mode="process", start_method=start_method
        ) as svc:
            results = svc.execute_many(queries)
        assert [_xml(r) for r in results] == expected

    def test_prime_starts_the_fleet(self, engine, start_method):
        with QueryService(
            engine, threads=2, mode="process", start_method=start_method
        ) as svc:
            pids = svc.prime(timeout=60)
            assert 1 <= len(pids) <= 2
            assert all(isinstance(pid, int) for pid in pids)
            assert svc.start_method == start_method

    def test_worker_counters_merge_into_dispatcher(
        self, engine, start_method
    ):
        before = engine.db.metrics.snapshot()
        with QueryService(
            engine, threads=2, mode="process", start_method=start_method
        ) as svc:
            svc.execute_many([QUERY] * 3)
            stats = svc.stats()
        delta = engine.db.metrics.diff(before)
        assert stats.executed == 3
        assert stats.failed == 0
        assert stats.mode == "process"
        # the evaluation work happened in the workers; the dispatcher's
        # totals must still carry it (merged per-request deltas)
        assert delta["pattern_matches"] > 0
        assert delta["trees_built"] > 0

    def test_timeout_crosses_the_process_boundary(
        self, engine, start_method
    ):
        with QueryService(
            engine, threads=1, mode="process", start_method=start_method
        ) as svc:
            svc.prime(timeout=60)
            with pytest.raises(QueryTimeoutError):
                svc.execute(QUERY, deadline=1e-9)
            assert svc.stats().timeouts == 1

    def test_resource_limit_crosses_the_process_boundary(
        self, engine, start_method
    ):
        with QueryService(
            engine, threads=1, mode="process", start_method=start_method
        ) as svc:
            with pytest.raises(ResourceLimitError):
                svc.execute(QUERY, max_trees=1)

    def test_missing_document_is_evaluated_once(self, engine, start_method):
        """An evaluation error is raised once, as itself — no retry."""
        with QueryService(
            engine, threads=2, mode="process", start_method=start_method
        ) as svc:
            with pytest.raises(WorkerError, match="nope.xml") as caught:
                svc.execute(MISSING_DOCUMENT)
            assert caught.value.worker_error_type == "StorageError"
            # counted in the worker: its exact per-request counter window
            # rides back on the result, and every evaluation attempt
            # enters the pattern matcher exactly once before the lookup
            # of the missing document fails
            event = svc.query_log.tail(1)[0]
            assert event.counters["pattern_matches"] == 1
            stats = svc.stats()
            assert stats.failed == 1
            assert stats.executed == 1
            # the untrack callback may trail the result by a moment
            deadline = time.monotonic() + 5.0
            while svc.workers()["in_flight"] and time.monotonic() < deadline:
                time.sleep(0.01)
            assert svc.workers()["in_flight"] == 0


class TestConfiguration:
    def test_modes_and_methods_are_exported(self):
        assert SERVICE_MODES == ("thread", "process")
        assert default_start_method() in START_METHODS

    def test_thread_mode_has_no_pool(self, engine):
        with QueryService(engine, threads=2) as svc:
            assert svc.start_method is None
            assert svc.prime() == []
            assert svc.stats().mode == "thread"

    def test_rejects_unknown_mode(self, engine):
        with pytest.raises(ServiceError):
            QueryService(engine, mode="fiber")

    def test_rejects_unknown_start_method(self, engine):
        with pytest.raises(ServiceError):
            QueryService(engine, mode="process", start_method="bogus")

    @pytest.mark.parametrize("start_method", AVAILABLE)
    @pytest.mark.parametrize("option", ("cache_size", "slow_log_capacity"))
    def test_zero_capacities_are_rejected_before_the_pool_exists(
        self, engine, start_method, option
    ):
        """A rejected service leaks no fork handoff and no snapshot."""
        from repro.service import pool

        def snapshots():
            return set(
                Path(tempfile.gettempdir()).glob("repro-snapshot-*.tlcdb")
            )

        fork_dbs = set(pool._FORK_DBS)
        files = snapshots()
        with pytest.raises(ServiceError):
            QueryService(
                engine,
                mode="process",
                start_method=start_method,
                **{option: 0},
            )
        assert set(pool._FORK_DBS) == fork_dbs
        assert snapshots() <= files

    def test_pool_rejects_nonpositive_workers(self, engine):
        with pytest.raises(ServiceError):
            WorkerPool(engine.db, workers=0)

    def test_closed_service_rejects_queries(self, engine):
        svc = QueryService(engine, threads=1, mode="process")
        svc.close()
        with pytest.raises(ServiceError):
            svc.execute(QUERY)
        svc.close()  # idempotent
