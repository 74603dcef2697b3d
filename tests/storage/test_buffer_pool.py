"""Unit tests for the LRU buffer pool and I/O accounting."""

import pytest

from repro.storage import Database
from repro.storage.page import NODES_PER_PAGE, BufferPool
from repro.storage.stats import Metrics


class TestBufferPool:
    def test_miss_then_hit(self):
        pool = BufferPool(4, Metrics())
        assert pool.access("p1") is False  # miss
        assert pool.access("p1") is True  # hit
        assert pool.metrics.pages_read == 1
        assert pool.metrics.buffer_hits == 1

    def test_lru_eviction(self):
        pool = BufferPool(2, Metrics())
        pool.access("a")
        pool.access("b")
        pool.access("a")  # a is now most recent
        pool.access("c")  # evicts b
        assert pool.access("a") is True
        assert pool.access("b") is False  # was evicted

    def test_capacity_respected(self):
        pool = BufferPool(3, Metrics())
        for key in range(10):
            pool.access(key)
        assert pool.resident_pages == 3

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            BufferPool(0, Metrics())

    def test_write_accounting(self):
        pool = BufferPool(2, Metrics())
        pool.write("a")
        assert pool.metrics.pages_written == 1
        assert pool.access("a") is True

    def test_clear(self):
        pool = BufferPool(2, Metrics())
        pool.access("a")
        pool.clear()
        assert pool.resident_pages == 0
        assert pool.access("a") is False


class TestIntegrationWithDocuments:
    def test_sequential_scan_reads_few_pages(self):
        """Clustering: a document-order scan touches each page once."""
        db = Database()
        items = "".join(f"<i>{n}</i>" for n in range(NODES_PER_PAGE * 3))
        doc = db.load_xml("t.xml", f"<r>{items}</r>")
        db.reset_metrics(cold_cache=True)
        for nid in doc.ids:
            doc.value_of(nid)
        expected_pages = -(-len(doc) // NODES_PER_PAGE)
        assert db.metrics.pages_read == expected_pages
        assert db.metrics.buffer_hits == len(doc) - expected_pages

    def test_metrics_reset(self):
        db = Database()
        db.load_xml("t.xml", "<r><a/></r>")
        db.tag_lookup("t.xml", "a")
        assert db.metrics.index_lookups == 1
        db.reset_metrics()
        assert db.metrics.index_lookups == 0

    def test_metrics_snapshot_diff(self):
        metrics = Metrics()
        metrics.pages_read = 5
        snap = metrics.snapshot()
        metrics.pages_read = 9
        assert metrics.diff(snap)["pages_read"] == 4

    def test_metrics_addition(self):
        a, b = Metrics(), Metrics()
        a.pages_read, b.pages_read = 2, 3
        assert (a + b).pages_read == 5
