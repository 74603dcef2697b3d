"""Unit tests for the Engine facade."""

import pytest

from repro import Engine, ReproError
from tests.conftest import TINY_AUCTION, canonical_sorted

QUERY = (
    'FOR $p IN document("auction.xml")//person '
    "WHERE $p//age > 25 RETURN <o>{$p/name/text()}</o>"
)


@pytest.fixture
def engine():
    instance = Engine()
    instance.load_xml("auction.xml", TINY_AUCTION)
    return instance


class TestRun:
    def test_default_engine_is_tlc(self, engine):
        result = engine.run(QUERY)
        assert sorted(t.to_xml() for t in result) == [
            "<o>Alice</o>", "<o>Carol</o>",
        ]

    def test_all_engines_accepted(self, engine):
        reference = canonical_sorted(engine.run(QUERY))
        for name in ("tax", "gtp", "nav"):
            assert canonical_sorted(engine.run(QUERY, engine=name)) == (
                reference
            )

    def test_unknown_engine_rejected(self, engine):
        with pytest.raises(ReproError):
            engine.run(QUERY, engine="quantum")

    def test_optimize_flag(self, engine):
        result = engine.run(QUERY, optimize=True)
        assert len(result) == 2

    def test_optimize_rejected_for_baselines(self, engine):
        with pytest.raises(ReproError):
            engine.run(QUERY, engine="gtp", optimize=True)
        with pytest.raises(ReproError):
            engine.run(QUERY, engine="nav", optimize=True)

    def test_run_plan(self, engine):
        translation = engine.plan(QUERY)
        result = engine.run_plan(translation.plan)
        assert len(result) == 2


class TestPlan:
    def test_plan_explain(self, engine):
        text = engine.plan(QUERY).explain()
        assert "Construct" in text
        assert "Select" in text

    def test_plan_for_baselines(self, engine):
        assert engine.plan(QUERY, engine="tax").plan is not None
        assert engine.plan(QUERY, engine="gtp").plan is not None

    def test_nav_has_no_plan(self, engine):
        with pytest.raises(ReproError):
            engine.plan(QUERY, engine="nav")

    def test_var_lcls_exposed(self, engine):
        translation = engine.plan(QUERY)
        assert "p" in translation.var_lcls


class TestEmptyQuery:
    def test_measure_blank_query_raises_repro_error(self, engine):
        # regression: the benchmark label fallback used to hit an
        # IndexError on query.strip().splitlines()[0]
        for blank in ("", "   ", " \n \n\t"):
            with pytest.raises(ReproError, match="empty"):
                engine.measure(blank)

    def test_run_and_plan_reject_blank_query(self, engine):
        for entry in (engine.run, engine.plan):
            with pytest.raises(ReproError, match="empty"):
                entry("  \n ")

    def test_nav_rejects_blank_query(self, engine):
        with pytest.raises(ReproError, match="empty"):
            engine.run("", engine="nav")

    def test_default_label_is_first_nonempty_line(self, engine):
        report = engine.measure("\n\n   \n" + QUERY)
        assert report.query == QUERY


class TestMeasurePlumbing:
    def test_measure_forwards_strict_and_trace(self, engine):
        seen = {}
        original = engine.run

        def spy(query, **kwargs):
            seen.update(kwargs)
            return original(query, **kwargs)

        engine.run = spy
        report = engine.measure(QUERY, strict=True, trace=True)
        assert seen["strict"] is True
        assert seen["trace"] is True
        assert report.trace is not None

    def test_measure_strict_lints_plan(self, engine):
        report = engine.measure(QUERY, strict=True)
        assert report.result_trees == 2

    def test_measure_trace_defaults_off(self, engine):
        seen = {}
        original = engine.run

        def spy(query, **kwargs):
            seen.update(kwargs)
            return original(query, **kwargs)

        engine.run = spy
        engine.measure(QUERY)
        assert seen["strict"] is False and seen["trace"] is False


class TestMeasure:
    def test_report_contents(self, engine):
        report = engine.measure(QUERY, label="demo")
        assert report.query == "demo"
        assert report.engine == "tlc"
        assert report.seconds > 0
        assert report.result_trees == 2
        assert report.counters["pattern_matches"] >= 1

    def test_metrics_reset_between_measurements(self, engine):
        first = engine.measure(QUERY)
        second = engine.measure(QUERY)
        ratio = second.counters["nodes_touched"] / max(
            first.counters["nodes_touched"], 1
        )
        assert 0.5 < ratio < 2.0  # not accumulating

    def test_cold_cache_measurement(self, engine):
        warm = engine.measure(QUERY)
        cold = engine.measure(QUERY, cold_cache=True)
        assert cold.counters["pages_read"] >= warm.counters["pages_read"]

    def test_optimized_label(self, engine):
        report = engine.measure(QUERY, optimize=True)
        assert report.engine == "tlc+opt"

    def test_report_row(self, engine):
        row = engine.measure(QUERY, label="q").row()
        assert row[0] == "q" and row[1] == "tlc"


class TestLoading:
    def test_load_xmark(self):
        engine = Engine()
        document = engine.load_xmark(factor=0.001)
        assert len(document) > 100
        result = engine.run(
            'FOR $p IN document("auction.xml")//person RETURN $p/name'
        )
        assert len(result) > 0

    def test_custom_pool_size(self):
        engine = Engine(pool_pages=8)
        assert engine.db.pool.capacity == 8

    def test_snapshot_load_bumps_the_generation(self, tmp_path):
        from repro.storage.persist import load_database, save_database

        engine = Engine()
        engine.load_xml("a.xml", "<r><x>1</x></r>")
        engine.load_xml("b.xml", "<r><y>1</y></r>")
        save_database(engine.db, tmp_path / "db.tlcdb")
        assert load_database(tmp_path / "db.tlcdb").generation == 2
