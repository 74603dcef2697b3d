"""The embedded telemetry HTTP server: endpoints over a real socket."""

import json
import sys
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro import Engine
from repro.service import QueryService
from repro.telemetry import TelemetryServer
from tests.conftest import TINY_AUCTION

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "tools"))
from promformat import parse_exposition  # noqa: E402

QUERY = 'FOR $p IN document("auction.xml")//person RETURN $p/name'


@pytest.fixture
def served():
    """A service with two executed queries behind a live HTTP server."""
    engine = Engine()
    engine.load_xml("auction.xml", TINY_AUCTION)
    with QueryService(engine, threads=2, slow_threshold=0.0) as svc:
        svc.execute(QUERY)
        svc.execute(QUERY)
        with TelemetryServer(svc) as server:
            yield server


def _get(server, path):
    with urllib.request.urlopen(server.url + path, timeout=10) as response:
        return response.read().decode("utf-8"), response.headers


class TestEndpoints:
    def test_metrics_is_valid_exposition(self, served):
        text, headers = _get(served, "/metrics")
        assert headers["Content-Type"].startswith("text/plain")
        families = parse_exposition(text)
        assert "repro_requests_total" in families
        assert "repro_request_seconds" in families
        assert families["repro_request_seconds"].kind == "histogram"
        # work counters exported at scrape time, not per increment
        assert "repro_work_pages_read_total" in families
        assert "repro_plan_cache_size" in families
        # collector state, read at scrape time
        assert families["repro_store_sealed_objects"].kind == "gauge"
        assert families["repro_store_sealed_objects"].samples[0][2] > 0
        assert families["repro_gc_gen2_collections_total"].kind == "counter"

    def test_metrics_read_the_service_and_work_counters(self, served):
        text, _ = _get(served, "/metrics")
        families = parse_exposition(text)

        def value(name):
            (sample,) = families[name].samples
            return sample[2]

        (sample,) = families["repro_requests_total"].samples
        assert sample[1:] == ({"engine": "tlc", "status": "ok"}, 2.0)
        assert value("repro_plan_executions_total") == 2
        assert value("repro_slow_queries_total") == 2
        counters = served.service.stats().counters
        assert value("repro_work_pattern_matches_total") == (
            counters["pattern_matches"]
        ) > 0
        assert value("repro_work_plan_cache_hits_total") == 1

    def test_stats_reports_service_and_registry(self, served):
        text, headers = _get(served, "/stats")
        assert headers["Content-Type"] == "application/json"
        payload = json.loads(text)
        assert payload["service"]["executed"] == 2
        assert payload["service"]["latency"]["all"]["count"] == 2
        assert "p95_ms" in payload["service"]["latency"]["all"]
        assert payload["service"]["requests"] == {"tlc": {"ok": 2}}
        assert payload["service"]["counters"]["pattern_matches"] > 0
        assert "registry" not in payload
        assert payload["uptime_seconds"] >= 0
        assert payload["runtime"]["store_sealed_objects"] > 0
        assert payload["runtime"]["gc_gen2_collections"] >= 0

    def test_healthz_is_ok(self, served):
        text, _ = _get(served, "/healthz")
        payload = json.loads(text)
        assert payload["status"] == "ok"
        assert payload["threads"] == 2

    def test_slow_ring_carries_trace(self, served):
        text, _ = _get(served, "/slow")
        payload = json.loads(text)
        assert payload["captured"] == 2
        assert payload["slow"][0]["trace"]["records"]

    def test_unknown_path_404_lists_endpoints(self, served):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(served, "/nope")
        assert excinfo.value.code == 404
        payload = json.loads(excinfo.value.read().decode("utf-8"))
        assert "/metrics" in payload["endpoints"]

    def test_double_start_rejected(self, served):
        with pytest.raises(RuntimeError):
            served.start()
