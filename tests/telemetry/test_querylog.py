"""Query-log ring semantics: eviction, sinks, slow-capture dedup."""

import json

import pytest

from repro.telemetry.querylog import (
    QueryLog,
    QueryLogEvent,
    SlowQueryLog,
    excerpt,
    new_trace_id,
    query_hash,
)
from repro.telemetry.spans import SpanCapture, SpanStore


def _event(number: int, slow: bool = False, qhash: str = None):
    return QueryLogEvent(
        trace_id=new_trace_id(),
        query_hash=qhash if qhash is not None else f"hash{number:04d}",
        query=f"query {number}",
        engine="tlc",
        optimize=False,
        cache_hit=False,
        status="ok",
        seconds=number / 1000.0,
        result_trees=number,
        slow=slow,
    )


class TestQueryLogRing:
    def test_ring_keeps_newest_capacity_events(self):
        log = QueryLog(capacity=4)
        for number in range(10):
            log.emit(_event(number))
        assert len(log) == 4
        assert log.emitted == 10, "evicted events still count as emitted"
        assert [e.result_trees for e in log.tail(100)] == [6, 7, 8, 9]

    def test_tail_returns_newest_oldest_first(self):
        log = QueryLog(capacity=8)
        for number in range(5):
            log.emit(_event(number))
        assert [e.result_trees for e in log.tail(2)] == [3, 4]

    def test_tail_of_zero_is_empty(self):
        log, slow, store = QueryLog(), SlowQueryLog(), SpanStore()
        for number in range(3):
            log.emit(_event(number))
            slow.record(_event(number, slow=True))
            store.put(SpanCapture(f"t{number}", 0.0, []))
        for ring in (log, slow, store):
            assert ring.tail(0) == []
            assert len(ring.tail(2)) == 2

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            QueryLog(capacity=0)

    def test_sink_receives_every_event_as_jsonl(self, tmp_path):
        path = tmp_path / "qlog.jsonl"
        log = QueryLog(capacity=2, sink_path=str(path))
        for number in range(5):
            log.emit(_event(number))
        log.close()
        lines = path.read_text().splitlines()
        assert len(lines) == 5, "the sink outlives the ring"
        parsed = [json.loads(line) for line in lines]
        assert [p["result_trees"] for p in parsed] == [0, 1, 2, 3, 4]
        assert all("trace_id" in p and "ms" in p for p in parsed)

    def test_sink_and_sink_path_are_exclusive(self, tmp_path):
        with pytest.raises(ValueError):
            QueryLog(sink=object(), sink_path=str(tmp_path / "x"))


class TestSlowQueryLog:
    def test_ring_eviction_bounds_captures(self):
        slow = SlowQueryLog(capacity=2)
        for number in range(3):
            slow.record(_event(number, slow=True))
        assert len(slow) == 2
        assert slow.captured == 3
        assert [e.result_trees for e in slow.tail(10)] == [1, 2]

    def test_seen_tracks_only_resident_hashes(self):
        """An evicted capture's hash is forgotten -> re-capture allowed."""
        slow = SlowQueryLog(capacity=2)
        slow.record(_event(0, slow=True, qhash="aaa"))
        slow.record(_event(1, slow=True, qhash="bbb"))
        assert slow.seen("aaa") and slow.seen("bbb")
        slow.record(_event(2, slow=True, qhash="ccc"))  # evicts aaa
        assert not slow.seen("aaa")
        assert slow.seen("bbb") and slow.seen("ccc")

    def test_should_capture_claims_exactly_once(self):
        """Concurrent slow twins must not both pay the traced re-run."""
        slow = SlowQueryLog(capacity=2)
        assert slow.should_capture("aaa")
        assert not slow.should_capture("aaa")  # claimed, not yet recorded
        slow.record(_event(0, slow=True, qhash="aaa"))
        assert not slow.should_capture("aaa")  # now resident
        slow.record(_event(1, slow=True, qhash="bbb"))
        slow.record(_event(2, slow=True, qhash="ccc"))  # evicts aaa
        assert slow.should_capture("aaa")  # evicted -> claimable again

    def test_should_capture_claims_race_free(self):
        import threading

        slow = SlowQueryLog(capacity=4)
        claims = []
        barrier = threading.Barrier(8)

        def worker():
            barrier.wait()
            for _ in range(100):
                if slow.should_capture("hot"):
                    claims.append(1)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert sum(claims) == 1


class TestEventHelpers:
    def test_query_hash_is_stable_and_short(self):
        assert query_hash("FOR $x ...") == query_hash("FOR $x ...")
        assert len(query_hash("FOR $x ...")) == 12
        assert query_hash("a") != query_hash("b")

    def test_excerpt_flattens_and_bounds(self):
        assert excerpt("FOR  $x\n  IN y") == "FOR $x IN y"
        long = "x" * 500
        assert len(excerpt(long)) <= 120

    def test_to_dict_omits_absent_error_and_trace(self):
        payload = _event(1).to_dict()
        assert "error" not in payload and "trace" not in payload
        event = _event(2)
        event.error = "boom"
        event.trace = {"records": []}
        payload = event.to_dict()
        assert payload["error"] == "boom"
        assert payload["trace"] == {"records": []}
