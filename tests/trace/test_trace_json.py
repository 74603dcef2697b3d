"""trace_to_json / render_trace_json: the offline EXPLAIN ANALYZE view."""

import json

from repro.trace import render_trace, render_trace_json, trace_to_json

QUERY = (
    'FOR $p IN document("auction.xml")//person '
    "WHERE $p//age > 25 RETURN <o>{$p/name/text()}</o>"
)


def _trace(engine):
    return engine.run(QUERY, trace=True).trace


class TestTraceToJson:
    def test_payload_is_json_serialisable(self, tiny_engine):
        payload = trace_to_json(_trace(tiny_engine))
        json.loads(json.dumps(payload))

    def test_schema_fields(self, tiny_engine):
        trace = _trace(tiny_engine)
        payload = trace_to_json(trace)
        assert payload["version"] == 1
        assert payload["operators"] == len(trace.records)
        assert payload["root"] == trace.root.index
        assert payload["total_seconds"] == trace.total_seconds
        assert payload["counters_total"] == trace.counters_total()
        record = payload["records"][0]
        for key in (
            "index",
            "name",
            "params",
            "input_cards",
            "output_card",
            "self_seconds",
            "cumulative_seconds",
            "counters",
            "memo_hits",
            "children",
        ):
            assert key in record

    def test_children_are_record_indexes(self, tiny_engine):
        payload = trace_to_json(_trace(tiny_engine))
        count = payload["operators"]
        for record in payload["records"]:
            for child in record["children"]:
                assert 0 <= child < count

    def test_render_round_trip_matches_live_render(self, tiny_engine):
        """The offline renderer and the live one can never drift."""
        trace = _trace(tiny_engine)
        payload = json.loads(json.dumps(trace_to_json(trace)))
        assert render_trace_json(payload) == render_trace(trace)

    def test_render_survives_missing_memo_hits(self, tiny_engine):
        """Older payloads without memo_hits still render."""
        payload = trace_to_json(_trace(tiny_engine))
        for record in payload["records"]:
            record.pop("memo_hits")
        assert "-- total" in render_trace_json(payload)

    def test_trace_marks_columnar_operators(self, xmark_engine):
        """EXPLAIN ANALYZE shows which plan region stayed batch-at-a-time."""
        from repro.xmark import QUERIES

        trace = xmark_engine.measure(
            QUERIES["x5"].text, engine="tlc", trace=True, label="x5"
        ).trace
        flags = {record.name: record.batch for record in trace.records}
        assert flags["Filter"] and flags["Aggregate"]
        # Construct consumes columns but emits trees: not marked columnar
        assert not flags["Construct"]
        rendered = trace.render()
        assert "batch" in rendered
        # the batch flag survives the JSON round trip
        assert render_trace_json(trace_to_json(trace)) == rendered
