"""Unit tests for the latency histograms and the Prometheus exposition."""

import sys
import threading
from pathlib import Path

import pytest

from repro.telemetry import Histogram, render_prometheus
from repro.telemetry.exposition import work_counter_families

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "tools"))
from promformat import parse_exposition  # noqa: E402


class TestHistogram:
    def test_log2_bucket_bounds(self):
        hist = Histogram(base=1.0, buckets=4)
        assert hist.bounds == [1.0, 2.0, 4.0, 8.0]

    def test_boundary_value_lands_in_inclusive_bucket(self):
        """Bucket upper bounds are inclusive: observe(2.0) -> le=2."""
        hist = Histogram(base=1.0, buckets=4)
        hist.observe(2.0)
        snap = hist.snapshot()
        assert snap.counts[1] == 1  # the (1, 2] bucket
        assert sum(snap.counts) == 1

    def test_overflow_goes_to_inf_bucket(self):
        hist = Histogram(base=1.0, buckets=3)  # bounds 1, 2, 4
        hist.observe(100.0)
        snap = hist.snapshot()
        assert snap.counts[-1] == 1
        cumulative = list(snap.cumulative())
        assert cumulative[-1] == (float("inf"), 1)

    def test_exact_moments(self):
        hist = Histogram(base=1.0, buckets=8)
        for value in (1.0, 3.0, 5.0):
            hist.observe(value)
        snap = hist.snapshot()
        assert snap.count == 3
        assert snap.sum == 9.0
        assert snap.min == 1.0
        assert snap.max == 5.0

    def test_single_value_percentiles_are_exact(self):
        """Clamping to [min, max] beats the bucket-bound estimate."""
        hist = Histogram(base=1.0, buckets=8)
        for _ in range(10):
            hist.observe(3.0)
        for q in (0.0, 0.5, 0.95, 0.99, 1.0):
            assert hist.percentile(q) == 3.0

    def test_percentile_orders_sensibly(self):
        hist = Histogram(base=1e-4, buckets=28)
        for ms in range(1, 101):  # 1ms .. 100ms
            hist.observe(ms / 1000.0)
        p50 = hist.percentile(0.50)
        p95 = hist.percentile(0.95)
        p99 = hist.percentile(0.99)
        assert p50 <= p95 <= p99
        # log2 buckets are factor-2 accurate at worst
        assert 0.025 <= p50 <= 0.1
        assert p99 <= 0.1

    def test_empty_percentile_is_zero(self):
        assert Histogram().percentile(0.5) == 0.0

    def test_quantile_domain_checked(self):
        with pytest.raises(ValueError):
            Histogram().snapshot().percentile(1.5)

    def test_concurrent_observations_are_exact(self):
        hist = Histogram(base=1.0, buckets=8)
        threads_n, per_thread = 8, 2000

        def work():
            for _ in range(per_thread):
                hist.observe(1.0)

        threads = [threading.Thread(target=work) for _ in range(threads_n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        snap = hist.snapshot()
        assert snap.count == threads_n * per_thread
        assert snap.sum == float(threads_n * per_thread)

    def test_percentiles_ms_keys(self):
        hist = Histogram()
        hist.observe(0.002)
        triple = hist.snapshot().percentiles_ms()
        assert set(triple) == {"p50_ms", "p95_ms", "p99_ms"}
        assert triple["p50_ms"] == pytest.approx(2.0, rel=0.5)


class TestExposition:
    def test_render_validates_and_counts(self):
        hist = Histogram()
        for value in (0.001, 0.004, 2.0):
            hist.observe(value)
        text = render_prometheus([
            ("repro_x_total", "x ops", "counter", [(None, 3.0)]),
            (
                "repro_requests_total",
                "requests",
                "counter",
                [({"engine": "tlc", "status": "ok"}, 1.0)],
            ),
            ("repro_up", "liveness", "gauge", [(None, 1.0)]),
            (
                "repro_seconds",
                "latency",
                "histogram",
                [({"engine": "tlc"}, hist.snapshot())],
            ),
        ])
        families = parse_exposition(text)
        assert families["repro_x_total"].kind == "counter"
        assert families["repro_x_total"].samples[0][2] == 3.0
        assert families["repro_seconds"].kind == "histogram"
        name, labels, value = families["repro_requests_total"].samples[0]
        assert labels == {"engine": "tlc", "status": "ok"}

    def test_histogram_bucket_lines_are_cumulative(self):
        hist = Histogram(base=1.0, buckets=3)
        for value in (0.5, 1.5, 100.0):
            hist.observe(value)
        text = render_prometheus(
            [("h", "", "histogram", [(None, hist.snapshot())])]
        )
        bucket_lines = [
            line for line in text.splitlines() if "h_bucket" in line
        ]
        assert bucket_lines[-1].startswith('h_bucket{le="+Inf"} 3')
        assert "h_sum" in text and "h_count" in text
        parse_exposition(text)  # cumulative + count invariants

    def test_work_counter_families_rendered(self):
        extras = work_counter_families({"pages_read": 7, "nest_joins": 0})
        families = parse_exposition(render_prometheus(extras))
        assert families["repro_work_pages_read_total"].samples[0][2] == 7.0
        assert families["repro_work_nest_joins_total"].samples[0][2] == 0.0
