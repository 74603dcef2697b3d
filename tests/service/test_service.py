"""Unit tests for the QueryService: caching, budgets, error surfacing."""

import threading
import time

import pytest

from repro import Engine
from repro.errors import (
    QueryCancelledError,
    QueryTimeoutError,
    ServiceError,
    StorageError,
)
from repro.service import PreparedQuery, QueryService
from tests.conftest import TINY_AUCTION

QUERY = (
    'FOR $p IN document("auction.xml")//person '
    "WHERE $p//age > 25 RETURN <o>{$p/name/text()}</o>"
)
MISSING_DOCUMENT = 'FOR $p IN document("nope.xml")//person RETURN $p/name'


@pytest.fixture
def engine():
    e = Engine()
    e.load_xml("auction.xml", TINY_AUCTION)
    return e


@pytest.fixture
def service(engine):
    with QueryService(engine, threads=4) as svc:
        yield svc


def _xml(result):
    return [tree.to_xml() for tree in result]


class TestPreparedQueries:
    def test_results_match_engine_run(self, engine, service):
        assert _xml(service.execute(QUERY)) == _xml(engine.run(QUERY))

    def test_second_execution_skips_compilation(self, engine, service,
                                                monkeypatch):
        compiles = []
        original = Engine.plan

        def counting_plan(self, *args, **kwargs):
            compiles.append(args)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(Engine, "plan", counting_plan)
        service.execute(QUERY)
        service.execute(QUERY)
        service.execute("  " + QUERY.replace(" WHERE", "\n   WHERE"))
        assert len(compiles) == 1, "repeat executions must not recompile"
        metrics = engine.db.metrics
        assert metrics.plan_cache_misses == 1
        assert metrics.plan_cache_hits == 2

    def test_prepare_returns_reusable_handle(self, service):
        prepared = service.prepare(QUERY)
        assert isinstance(prepared, PreparedQuery)
        assert not prepared.cache_hit
        assert service.prepare(QUERY).cache_hit
        assert _xml(service.execute(prepared)) == _xml(service.execute(QUERY))
        assert "Select" in prepared.explain()

    def test_document_reload_invalidates(self, engine, service):
        service.execute(QUERY)
        engine.load_xml("auction.xml", TINY_AUCTION)  # bumps generation
        assert not service.prepare(QUERY).cache_hit
        assert service.cache.stats().evictions == 1

    def test_rewrite_config_is_part_of_the_key(self, service):
        service.prepare(QUERY)
        assert not service.prepare(QUERY, optimize=True).cache_hit

    def test_nav_engine_rejected(self, service):
        with pytest.raises(ServiceError):
            service.prepare(QUERY, engine="nav")

    def test_strict_service_validates_at_prepare(self, engine):
        with QueryService(engine, strict=True) as svc:
            prepared = svc.prepare(QUERY)
            assert prepared.plan is not None


class TestConcurrentExecution:
    def test_execute_many_preserves_order(self, engine, service):
        queries = [
            QUERY,
            'FOR $o IN document("auction.xml")//open_auction '
            "RETURN <i>{$o/initial/text()}</i>",
        ] * 8
        expected = [_xml(engine.run(q)) for q in queries]
        results = service.execute_many(queries)
        assert [_xml(r) for r in results] == expected

    def test_submit_returns_live_handle(self, service):
        handle = service.submit(QUERY)
        result = handle.result(timeout=10)
        assert handle.done()
        assert handle.exception() is None
        assert len(result) == 2

    def test_stats_accumulate(self, service):
        service.execute_many([QUERY] * 5)
        stats = service.stats()
        assert stats.executed == 5
        assert stats.failed == 0
        assert stats.threads == 4
        assert stats.cache.hits == 4
        assert stats.cache.misses == 1


class TestBudgets:
    def test_default_deadline_applies(self, engine):
        with QueryService(engine, default_deadline=1e-9) as svc:
            with pytest.raises(QueryTimeoutError):
                svc.execute(QUERY)
            assert svc.stats().timeouts == 1

    def test_per_query_deadline_overrides_default(self, engine):
        with QueryService(engine, default_deadline=60.0) as svc:
            with pytest.raises(QueryTimeoutError):
                svc.execute(QUERY, deadline=1e-9)

    def test_cancel_running_query(self, engine, monkeypatch):
        from repro.core import evaluator as evaluator_module

        gate = threading.Event()
        original = evaluator_module.evaluate

        def slow_evaluate(plan, ctx, tracer=None):
            gate.set()
            # hold the query inside execution until cancel lands
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                ctx.limits.check()
                time.sleep(0.005)
            return original(plan, ctx, tracer)

        monkeypatch.setattr(
            "repro.service.service.evaluate", slow_evaluate
        )
        with QueryService(engine, threads=2) as svc:
            handle = svc.submit(QUERY)
            assert gate.wait(timeout=5.0)
            assert handle.cancel()
            with pytest.raises(QueryCancelledError):
                handle.result(timeout=10)
            assert svc.stats().cancelled == 1

    def test_cancel_finished_query_is_a_noop(self, service):
        handle = service.submit(QUERY)
        handle.result(timeout=10)
        assert not handle.cancel()


class TestEvaluationErrors:
    def test_missing_document_is_evaluated_once(self, engine, monkeypatch):
        """An evaluation error is raised once, as itself — no retry."""
        from repro.core.evaluator import evaluate as real_evaluate

        calls = []

        def counting_evaluate(plan, ctx, tracer=None):
            calls.append(plan)
            return real_evaluate(plan, ctx, tracer)

        monkeypatch.setattr(
            "repro.service.service.evaluate", counting_evaluate
        )
        with QueryService(engine, threads=1) as svc:
            with pytest.raises(StorageError, match="nope.xml"):
                svc.execute(MISSING_DOCUMENT)
            assert len(calls) == 1
            stats = svc.stats()
            assert stats.failed == 1
            assert stats.executed == 1

    def test_evaluator_defect_surfaces_unchanged(self, engine, monkeypatch):
        calls = []

        def broken_evaluate(plan, ctx, tracer=None):
            calls.append(plan)
            raise RuntimeError("boom")

        monkeypatch.setattr(
            "repro.service.service.evaluate", broken_evaluate
        )
        with QueryService(engine, threads=1) as svc:
            with pytest.raises(RuntimeError, match="boom"):
                svc.execute(QUERY)
            assert len(calls) == 1
            assert svc.stats().failed == 1


class TestLifecycle:
    def test_closed_service_rejects_queries(self, engine):
        svc = QueryService(engine)
        svc.close()
        with pytest.raises(ServiceError):
            svc.execute(QUERY)
        with pytest.raises(ServiceError):
            svc.prepare(QUERY)

    def test_engine_service_helper(self, engine):
        with engine.service(threads=2) as svc:
            assert len(svc.execute(QUERY)) == 2

    def test_database_can_be_wrapped_directly(self, engine):
        with QueryService(engine.db, threads=1) as svc:
            assert len(svc.execute(QUERY)) == 2

    def test_rejects_nonpositive_threads(self, engine):
        with pytest.raises(ServiceError):
            QueryService(engine, threads=0)
