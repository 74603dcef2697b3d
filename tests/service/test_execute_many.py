"""Regression tests: execute_many must drain the whole batch.

The original implementation re-raised the first failed handle's error
immediately, abandoning the later handles mid-flight — a retry of the
batch then raced the previous batch's stragglers on the pool.  The
fixed contract: every handle finishes before the first failure (in
submission order) is re-raised.
"""

import threading
import time

import pytest

from repro import Engine
from repro.service import QueryService
from tests.conftest import TINY_AUCTION

QUERY = (
    'FOR $p IN document("auction.xml")//person '
    "WHERE $p//age > 25 RETURN <o>{$p/name/text()}</o>"
)
AUCTIONS = (
    'FOR $o IN document("auction.xml")//open_auction '
    "RETURN <i>{$o/initial/text()}</i>"
)


@pytest.fixture
def engine():
    e = Engine()
    e.load_xml("auction.xml", TINY_AUCTION)
    return e


def test_batch_failure_does_not_orphan_siblings(engine, monkeypatch):
    from repro.core.evaluator import evaluate as real_evaluate

    finished = []
    lock = threading.Lock()
    with QueryService(engine, threads=2) as svc:
        bad = svc.prepare(QUERY)
        good = svc.prepare(AUCTIONS)

        def evaluate(plan, ctx, tracer=None):
            if plan is bad.plan:
                time.sleep(0.05)  # let siblings overtake it on the pool
                raise RuntimeError("batch head failure")
            result = real_evaluate(plan, ctx, tracer)
            with lock:
                finished.append(len(result))
            return result

        monkeypatch.setattr("repro.service.service.evaluate", evaluate)
        with pytest.raises(RuntimeError, match="batch head failure"):
            svc.execute_many([bad, good, good, good])
        # every sibling ran to completion before the error surfaced
        assert len(finished) == 3
        stats = svc.stats()
        assert stats.executed == 4
        assert stats.failed == 1


def test_first_failure_in_submission_order_wins(engine, monkeypatch):
    with QueryService(engine, threads=2) as svc:
        slow = svc.prepare(QUERY)
        fast = svc.prepare(AUCTIONS)

        def evaluate(plan, ctx, tracer=None):
            if plan is slow.plan:
                time.sleep(0.1)  # first submitted, last to fail
                raise RuntimeError("first submitted")
            raise RuntimeError("second submitted")

        monkeypatch.setattr("repro.service.service.evaluate", evaluate)
        # both fail; completion order is reversed, submission order must
        # decide which error the caller sees
        with pytest.raises(RuntimeError, match="first submitted"):
            svc.execute_many([slow, fast])
        assert svc.stats().failed == 2


def test_clean_batch_returns_results_in_order(engine):
    expected = [
        [t.to_xml() for t in engine.run(q)] for q in (QUERY, AUCTIONS)
    ]
    with QueryService(engine, threads=2) as svc:
        results = svc.execute_many([QUERY, AUCTIONS])
    assert [[t.to_xml() for t in r] for r in results] == expected
