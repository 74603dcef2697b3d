"""Unit tests for the benchmark harness and reporting."""

import math

import pytest

from repro.bench import (
    Harness,
    counters_table,
    figure15_table,
    figure16_breakdown,
    figure16_table,
    figure17_table,
    operator_breakdown,
)
from repro.bench.verdicts import loglog_slope, verdicts
from repro.storage.stats import QueryReport


@pytest.fixture(scope="module")
def harness():
    return Harness()


class TestHarness:
    def test_engine_cached_per_factor(self, harness):
        assert harness.engine_for(0.001) is harness.engine_for(0.001)

    def test_run_query_reports_counters(self, harness):
        report = harness.run_query("x1", "tlc", factor=0.001)
        assert report.query == "x1"
        assert report.engine == "tlc"
        assert report.seconds > 0
        assert report.counters["index_lookups"] >= 1

    def test_repeats_drop_extremes(self, harness):
        report = harness.run_query("x1", "tlc", 0.001, repeats=5)
        assert report.seconds > 0

    def test_optimized_run(self, harness):
        report = harness.run_query(
            "Q1", "tlc", 0.001, optimize=True
        )
        assert report.engine == "tlc+opt"

    def test_figure16_pairs(self, harness):
        reports = harness.figure16(factor=0.001, queries=("x5",))
        assert [r.engine for r in reports] == ["tlc", "tlc+opt"]

    def test_figure17_tags_factor(self, harness):
        reports = harness.figure17(factor=0.001, queries=("x1",))
        sweep = [r.counters["factor"] for r in reports]
        assert sweep == [0.001 / 2**k for k in (4, 3, 2, 1, 0)]

    def test_figure15_subset(self, harness):
        reports = harness.figure15(
            factor=0.001, queries=("x1",), engines=("tlc", "nav")
        )
        assert len(reports) == 2

    def test_run_query_trace_optin(self, harness):
        report = harness.run_query("x1", "tlc", factor=0.001, trace=True)
        assert report.trace is not None
        assert report.trace.root.output_card == report.result_trees
        # default stays untraced
        assert harness.run_query("x1", "tlc", factor=0.001).trace is None

    def test_run_query_trace_ignored_for_nav(self, harness):
        report = harness.run_query("x1", "nav", factor=0.001, trace=True)
        assert report.trace is None
        assert report.result_trees > 0

    def test_figure16_trace_and_breakdown(self, harness):
        reports = harness.figure16(
            factor=0.001, queries=("x5",), trace=True
        )
        assert all(r.trace is not None for r in reports)
        text = figure16_breakdown(reports)
        assert "x5: self time per operator" in text
        # the Shadow rewrite introduces operators the plain plan lacks
        assert "Shadow" in text or "Flatten" in text

    def test_figure15_trace_optin(self, harness):
        reports = harness.figure15(
            factor=0.001, queries=("x1",), engines=("tlc", "gtp"),
            trace=True,
        )
        assert all(r.trace is not None for r in reports)
        assert "# self " in operator_breakdown(reports[0])


class TestReporting:
    def rows(self):
        return [
            QueryReport("tlc", "x1", 0.01, {"pages_read": 3}, 1),
            QueryReport("gtp", "x1", 0.02, {"pages_read": 5}, 1),
            QueryReport("tax", "x1", 0.05, {}, 1),
            QueryReport("nav", "x1", 700.0, {"dnf": True}, 0),
        ]

    def test_figure15_table_renders(self):
        table = figure15_table(self.rows())
        assert "x1" in table
        assert "DNF" in table  # the over-budget row
        assert "TLC" in table

    def test_figure16_table(self):
        reports = [
            QueryReport("tlc", "Q1", 0.04, {}, 1),
            QueryReport("tlc+opt", "Q1", 0.02, {}, 1),
        ]
        table = figure16_table(reports)
        assert "2.00x" in table

    def test_figure17_table(self):
        reports = [
            QueryReport("tlc", "x5", 0.01, {"factor": f, "nodes_touched": n})
            for f, n in ((0.001, 10), (0.002, 20), (0.004, 40))
        ]
        table = figure17_table(reports)
        assert "0.004" in table and "nodes touched" in table
        assert "x5" in table

    def test_loglog_slope_of_a_line(self):
        assert loglog_slope([(1, 2), (2, 4), (4, 8)]) == pytest.approx(1.0)
        assert loglog_slope([(1, 1), (2, 4), (4, 16)]) == pytest.approx(2.0)

    def test_loglog_slope_degenerate(self):
        assert math.isnan(loglog_slope([(1, 1)]))
        assert math.isnan(loglog_slope([(1, 0), (2, 4)]))

    def test_counters_table(self):
        table = counters_table(self.rows())
        assert "pages" in table
        assert "x1" in table

    def test_operator_breakdown_without_trace(self):
        text = operator_breakdown(self.rows()[0])
        assert "no trace" in text

    def test_figure16_breakdown_without_traces(self):
        text = figure16_breakdown([
            QueryReport("tlc", "Q1", 0.04, {}, 1),
            QueryReport("tlc+opt", "Q1", 0.02, {}, 1),
        ])
        assert "no traced" in text


class TestBudget:
    def test_slow_cell_not_repeated(self):
        """A first run over a tenth of the DNF budget is the result."""
        harness = Harness(budget_seconds=0.0000001)
        report = harness.run_query("x1", "tlc", factor=0.001, repeats=5)
        assert report.seconds > 0  # single cold run returned

    def test_figure15_marks_dnf(self):
        harness = Harness(budget_seconds=0.0000001)
        reports = harness.figure15(
            factor=0.001, queries=("x1",), engines=("tlc",)
        )
        assert reports[0].counters.get("dnf") is True

    def test_crash_renders_err_not_dnf(self, harness):
        reports = harness.figure15(
            factor=0.001, queries=("x1",), engines=("tlc", "bogus")
        )
        assert "unknown engine" in reports[1].counters["error"]
        table = figure15_table(reports)
        assert "ERR" in table and "DNF" not in table

    def test_dnf_claim_reads_only_the_flag(self):
        for x10, holds in (({"dnf": True}, True), ({"error": "x"}, False)):
            reports = [QueryReport("gtp", "x10", float("nan"), x10),
                       QueryReport("gtp", "x10a", 0.1, {})]
            rows = {claim: rest for claim, *rest in verdicts("15", reports)}
            verdict, cells = rows["GTP DNF on x10 but not on x10a"]
            assert verdict is holds
        assert "x10 GTP ERR" in cells
