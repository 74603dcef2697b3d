"""The telemetry feedback loop: traces in, cheaper shapes out."""

import pytest

from repro.planner import (
    FEEDBACK_CAPACITY,
    FeedbackStore,
    observed_from_trace,
    post_order,
    recost,
)
from repro.xmark import QUERIES


def test_observed_from_trace_reads_the_version_1_schema():
    payload = {
        "version": 1,
        "records": [
            {"index": 0, "output_card": 51, "name": "Select"},
            {"index": 1, "output_card": 7, "name": "Filter"},
        ],
    }
    assert observed_from_trace(payload) == {0: 51, 1: 7}


def test_observed_from_trace_refuses_unknown_versions():
    """Alignment is positional: guessing at a new schema would corrupt."""
    assert observed_from_trace({}) == {}
    assert observed_from_trace(None) == {}
    assert observed_from_trace({"version": 2, "records": []}) == {}


def test_feedback_store_is_a_bounded_lru():
    store = FeedbackStore(capacity=2)
    store.remember("a", {0: 1})
    store.remember("b", {0: 2})
    store.remember("a", {0: 3})  # refresh: "a" becomes most recent
    store.remember("c", {0: 4})  # evicts "b", the least recent
    assert store.overrides_for("b") is None
    assert store.overrides_for("a") == {0: 3}
    assert store.overrides_for("c") == {0: 4}
    assert len(store) == 2
    store.forget("a")
    assert store.overrides_for("a") is None
    assert len(store) == 1


def test_feedback_store_hands_out_copies():
    store = FeedbackStore()
    observed = {0: 10}
    store.remember("k", observed)
    observed[0] = 99  # caller mutates its own dict afterwards
    first = store.overrides_for("k")
    assert first == {0: 10}
    first[0] = 77  # ...and the handed-out copy is not shared either
    assert store.overrides_for("k") == {0: 10}
    assert store.capacity == FEEDBACK_CAPACITY


def test_feedback_store_rejects_nonpositive_capacity():
    with pytest.raises(ValueError):
        FeedbackStore(capacity=0)


def test_recost_keeps_a_plan_the_planner_would_pick_again(xmark_engine):
    translation = xmark_engine.plan(QUERIES["x9"].text, planner=True)
    verdict = recost(
        translation.plan, xmark_engine.cardinality_stats(), {}
    )
    assert not verdict.changed
    assert verdict.reorder_flips == 0
    assert "what the planner would pick now" in verdict.reason


def test_recost_reports_a_differing_shape_without_flapping(xmark_engine):
    """An unplanned x9 differs (1 reorder) but not beyond the margin."""
    translation = xmark_engine.plan(QUERIES["x9"].text, planner=False)
    verdict = recost(
        translation.plan, xmark_engine.cardinality_stats(), {}
    )
    assert verdict.reorder_flips == 1
    assert not verdict.changed  # saving < RECOST_MARGIN: keep the plan
    assert "saves less than" in verdict.reason


def test_uniform_misses_flip_nothing(xmark_engine):
    """Every estimate off by the same factor scales all shapes equally."""
    stats = xmark_engine.cardinality_stats()
    translation = xmark_engine.plan(QUERIES["x9"].text, planner=True)
    plan = translation.plan
    from repro.planner.cost import CostModel

    rows = CostModel(stats).plan_rows(plan)
    uniform = {
        i: int(rows[id(op)] * 3) + 1
        for i, op in enumerate(post_order(plan))
    }
    verdict = recost(plan, stats, uniform)
    assert verdict.reorder_flips == 0
    assert not verdict.changed


def test_service_bumps_an_evicted_plan_and_counts_it(
    xmark_engine, monkeypatch
):
    """The service plumbing: slow capture -> recost -> LRU bump."""
    import repro.planner.feedback as feedback_mod

    real_recost = feedback_mod.recost

    def eager_recost(plan, stats, observed, margin=None):
        verdict = real_recost(plan, stats, observed, margin=0.0)
        verdict.changed = True  # force the bump regardless of margin
        return verdict

    monkeypatch.setattr(feedback_mod, "recost", eager_recost)
    query = QUERIES["x9"].text
    with xmark_engine.service(threads=1, slow_threshold=0.0,
                              planner=True) as svc:
        xmark_engine.db.reset_metrics()
        svc.execute(query)
        stats = svc.stats()
        assert stats.slow_queries >= 1
        assert stats.plan_bumps == 1
        assert stats.planner
        assert (
            xmark_engine.db.metrics.snapshot()["planner_evictions"] == 1
        )
        assert svc.feedback.overrides_for(svc.prepare(query).key)
        # the recompile after the bump plans with the parked overrides
        result = svc.execute(query)
        assert len(result) > 0


class TestFeedbackPersistence:
    """save()/load(): the JSON round-trip behind serve --feedback-file."""

    def _key(self, text):
        from repro.service.cache import PlanCacheKey

        return PlanCacheKey(text=text, engine="tlc", optimize=True)

    def test_round_trip_preserves_entries_and_order(self, tmp_path):
        store = FeedbackStore()
        store.remember(self._key("Q1"), {0: 10, 3: 250})
        store.remember(self._key("Q2"), {1: 7})
        path = tmp_path / "feedback.json"
        assert store.save(str(path)) == 2

        fresh = FeedbackStore()
        assert fresh.load(str(path)) == 2
        assert fresh.overrides_for(self._key("Q1")) == {0: 10, 3: 250}
        assert fresh.overrides_for(self._key("Q2")) == {1: 7}
        assert len(fresh) == 2

    def test_non_cache_keys_are_skipped_on_save(self, tmp_path):
        store = FeedbackStore()
        store.remember("ad-hoc test key", {0: 1})
        store.remember(self._key("Q1"), {0: 2})
        path = tmp_path / "feedback.json"
        assert store.save(str(path)) == 1
        fresh = FeedbackStore()
        assert fresh.load(str(path)) == 1
        assert fresh.overrides_for(self._key("Q1")) == {0: 2}

    def test_failed_save_keeps_the_previous_file(
        self, tmp_path, monkeypatch
    ):
        """A write that dies half-way must not truncate the live file."""
        import json

        path = tmp_path / "feedback.json"
        store = FeedbackStore()
        store.remember(self._key("Q1"), {0: 10})
        assert store.save(str(path)) == 1

        def dump_half_then_die(payload, handle, **kwargs):
            handle.write('{"version": 1, "entr')
            raise OSError("disk full")

        monkeypatch.setattr(json, "dump", dump_half_then_die)
        store.remember(self._key("Q2"), {1: 7})
        with pytest.raises(OSError, match="disk full"):
            store.save(str(path))
        monkeypatch.undo()

        fresh = FeedbackStore()
        assert fresh.load(str(path)) == 1
        assert fresh.overrides_for(self._key("Q1")) == {0: 10}
        assert [p.name for p in tmp_path.iterdir()] == ["feedback.json"]

    def test_load_tolerates_missing_and_malformed_files(self, tmp_path):
        store = FeedbackStore()
        assert store.load(str(tmp_path / "nope.json")) == 0
        broken = tmp_path / "broken.json"
        broken.write_text("{not json")
        assert store.load(str(broken)) == 0
        wrong = tmp_path / "wrong.json"
        wrong.write_text('{"version": 99, "entries": []}')
        assert store.load(str(wrong)) == 0
        assert len(store) == 0

    def test_service_round_trips_through_feedback_path(
        self, xmark_engine, tmp_path
    ):
        """serve --feedback-file: saved on close, loaded on start."""
        path = tmp_path / "feedback.json"
        key = self._key("Q_persist")
        with xmark_engine.service(threads=1, feedback_path=str(path)) as svc:
            svc.feedback.remember(key, {2: 99})
        assert path.exists()
        with xmark_engine.service(threads=1, feedback_path=str(path)) as svc:
            assert svc.feedback.overrides_for(key) == {2: 99}
