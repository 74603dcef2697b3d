"""A process-mode request cancelled while its plan runs on a worker.

The caller is unblocked at once with :class:`QueryCancelledError`; the
worker cannot be interrupted, so its reply arrives later and is
absorbed: the pool's gauges settle and the work it did still reaches
the dispatcher's counters.  The worker is held by a file gate — a plan
operator that waits for a path to exist — so the cancel lands while
the request is in flight under every start method.
"""

import dataclasses
import multiprocessing
import os
import time

import pytest

from repro import Engine
from repro.core.base import Context, Operator
from repro.core.evaluator import evaluate
from repro.errors import QueryCancelledError
from repro.service import START_METHODS, QueryService
from tests.conftest import TINY_AUCTION

QUERY = (
    'FOR $p IN document("auction.xml")//person '
    "WHERE $p//age > 25 RETURN <o>{$p/name/text()}</o>"
)

AVAILABLE = [
    m for m in START_METHODS
    if m in multiprocessing.get_all_start_methods()
]


class Gate(Operator):
    """Passes its input through once ``path`` exists."""

    name = "Gate"

    def __init__(self, plan, path):
        super().__init__([plan])
        self.path = path

    def execute(self, ctx, inputs):
        return self.execute_batch(ctx, inputs)

    def execute_batch(self, ctx, inputs):
        deadline = time.monotonic() + 60
        while not os.path.exists(self.path):
            assert time.monotonic() < deadline, "the gate never opened"
            time.sleep(0.01)
        return inputs[0]


def fresh_engine():
    engine = Engine()
    engine.load_xml("auction.xml", TINY_AUCTION)
    return engine


def _delta(engine, before):
    return {k: v for k, v in engine.db.metrics.diff(before).items() if v}


def _evaluation_counters():
    """What one evaluation of QUERY adds to a fresh database's counters."""
    engine = fresh_engine()
    plan = engine.plan(QUERY, "tlc", False).plan
    before = engine.db.metrics.snapshot()
    evaluate(plan, Context(engine.db, scan_cache=True))
    return _delta(engine, before)


def _wait_for(condition, seconds=10.0):
    deadline = time.monotonic() + seconds
    while not condition() and time.monotonic() < deadline:
        time.sleep(0.01)
    return condition()


@pytest.mark.parametrize("spans", [False, True], ids=["plain", "spans"])
@pytest.mark.parametrize("start_method", AVAILABLE)
def test_cancel_in_flight_abandons_the_reply(tmp_path, start_method, spans):
    expected = _evaluation_counters()
    engine = fresh_engine()
    gate = tmp_path / "open"
    with QueryService(
        engine,
        threads=1,
        mode="process",
        start_method=start_method,
        spans=spans,
    ) as svc:
        svc.prime(timeout=60)
        prepared = svc.prepare(QUERY)
        gated = dataclasses.replace(
            prepared,
            translation=dataclasses.replace(
                prepared.translation, plan=Gate(prepared.plan, str(gate))
            ),
        )
        before = engine.db.metrics.snapshot()
        handle = svc.submit(gated)
        assert _wait_for(lambda: svc.workers()["in_flight"] == 1)

        cancelled_at = time.monotonic()
        assert handle.cancel()
        with pytest.raises(QueryCancelledError):
            handle.result(timeout=10)
        assert time.monotonic() - cancelled_at < 2.0
        # the caller is free while the worker still holds the request
        assert svc.workers()["in_flight"] == 1
        stats = svc.stats()
        assert (stats.executed, stats.cancelled) == (1, 1)

        gate.touch()
        assert _wait_for(lambda: svc.workers()["in_flight"] == 0)
        assert svc.workers()["dispatched"] == 1
        # the abandoned reply's counters merge into the dispatcher's
        assert _wait_for(lambda: _delta(engine, before) == expected), (
            _delta(engine, before),
            expected,
        )
