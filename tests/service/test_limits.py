"""Deadline, cardinality and cancellation limits on the evaluator."""

import threading
import time

import pytest

from repro.core.base import Context, Operator
from repro.core.evaluator import evaluate
from repro.core.limits import ExecutionLimits
from repro.errors import (
    ExecutionLimitError,
    QueryCancelledError,
    QueryTimeoutError,
    ResourceLimitError,
)
from repro.model.sequence import TreeSequence
from repro.storage.database import Database


class NapOp(Operator):
    """Synthetic operator: sleeps, then forwards its input unchanged."""

    name = "Nap"

    def __init__(self, inputs=(), naptime=0.0, gate=None):
        super().__init__(inputs)
        self.naptime = naptime
        self.gate = gate

    def execute(self, ctx, inputs):
        if self.gate is not None:
            self.gate.set()
        if self.naptime:
            time.sleep(self.naptime)
        return inputs[0] if inputs else TreeSequence()


def _chain(length, naptime=0.0, gate=None):
    plan = NapOp(naptime=naptime, gate=gate)
    for _ in range(length - 1):
        plan = NapOp([plan], naptime=naptime)
    return plan


def _ctx(limits):
    return Context(Database(), scan_cache=False, limits=limits)


class TestDeadline:
    def test_timeout_fires_within_twice_the_budget(self):
        # 100 operators x 10ms dwarf the 50ms budget; the cooperative
        # check fires between operators, so the abort lands within one
        # operator's sleep past the deadline - well inside 2x the budget
        budget = 0.05
        plan = _chain(100, naptime=0.01)
        limits = ExecutionLimits(deadline=budget)
        started = time.monotonic()
        with pytest.raises(QueryTimeoutError) as excinfo:
            evaluate(plan, _ctx(limits))
        elapsed = time.monotonic() - started
        assert elapsed < 2 * budget
        assert excinfo.value.budget_seconds == budget
        assert excinfo.value.elapsed_seconds >= budget

    def test_timeout_is_an_execution_limit_error(self):
        with pytest.raises(ExecutionLimitError):
            evaluate(
                _chain(10, naptime=0.01),
                _ctx(ExecutionLimits(deadline=0.001)),
            )

    def test_no_deadline_runs_to_completion(self):
        result = evaluate(_chain(5), _ctx(ExecutionLimits(max_trees=10)))
        assert len(result) == 0

    def test_start_is_idempotent(self):
        # the evaluator re-anchors limits the service already started;
        # the deadline must keep counting from the first anchor
        limits = ExecutionLimits(deadline=10.0)
        limits.start()
        anchor = limits.elapsed()
        time.sleep(0.02)
        limits.start()
        assert limits.elapsed() > anchor
        assert limits.elapsed() >= 0.02

    def test_rejects_nonpositive_budgets(self):
        with pytest.raises(ValueError):
            ExecutionLimits(deadline=0)
        with pytest.raises(ValueError):
            ExecutionLimits(max_trees=0)


class TestCardinality:
    def test_resource_limit_names_the_operator(self, tiny_engine):
        with pytest.raises(ResourceLimitError) as excinfo:
            tiny_engine.run(
                'FOR $p IN document("auction.xml")//person '
                "RETURN $p/name",
                max_trees=1,
            )
        assert excinfo.value.limit == 1
        assert excinfo.value.produced > 1
        assert excinfo.value.operator

    def test_limit_checked_on_intermediate_outputs(self, tiny_engine):
        # the final result is 1 tree (only a1 has 3 bidders), but the
        # Select binds all 3 auctions before the aggregate Filter prunes:
        # the budget applies mid-plan, catching explosions before the root
        query = (
            'FOR $o IN document("auction.xml")//open_auction '
            "WHERE count($o/bidder) > 2 RETURN $o/initial"
        )
        assert len(tiny_engine.run(query)) == 1
        with pytest.raises(ResourceLimitError):
            tiny_engine.run(query, max_trees=2)

    def test_under_budget_passes(self, tiny_engine):
        result = tiny_engine.run(
            'FOR $p IN document("auction.xml")//person RETURN $p/name',
            max_trees=1000,
        )
        assert len(result) == 3


class TestCancellation:
    def test_cancel_aborts_a_running_query(self):
        gate = threading.Event()
        limits = ExecutionLimits()
        plan = _chain(200, naptime=0.005, gate=gate)
        errors = []

        def run():
            try:
                evaluate(plan, _ctx(limits))
            except Exception as error:  # noqa: BLE001 - captured for assert
                errors.append(error)

        worker = threading.Thread(target=run)
        worker.start()
        assert gate.wait(timeout=5.0)  # the query is inside an operator
        limits.cancel()
        worker.join(timeout=5.0)
        assert not worker.is_alive()
        assert len(errors) == 1
        assert isinstance(errors[0], QueryCancelledError)

    def test_cancelled_flag(self):
        limits = ExecutionLimits()
        assert not limits.cancelled
        limits.cancel()
        assert limits.cancelled
        with pytest.raises(QueryCancelledError):
            limits.check()


class TestEnginePlumbing:
    def test_deadline_shorthand_raises_timeout(self, xmark_engine):
        with pytest.raises(QueryTimeoutError):
            xmark_engine.run(
                'FOR $p IN document("auction.xml")//person '
                'FOR $o IN document("auction.xml")//open_auction '
                "WHERE $p/@id = $o/bidder//@person "
                "RETURN <b>{$p/name/text()}</b>",
                deadline=1e-9,
            )

    def test_limits_rejected_for_nav(self, tiny_engine):
        from repro.errors import ReproError

        with pytest.raises(ReproError):
            tiny_engine.run("FOR $p IN doc RETURN $p", engine="nav", deadline=1.0)

    def test_matcher_ticks_respect_deadline(self, xmark_engine):
        # drive the per-tree matcher tick: a deadline so small that the
        # first Select's extension loop must be what notices it
        from repro.core.limits import TICK_INTERVAL

        assert TICK_INTERVAL > 0
        with pytest.raises(QueryTimeoutError):
            xmark_engine.run(
                'FOR $p IN document("auction.xml")//person '
                "RETURN <o>{$p/name/text()}</o>",
                deadline=1e-9,
            )
