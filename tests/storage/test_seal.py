"""The sealed store: collector paused while building, frozen afterwards.

``gc.freeze()`` is process-wide, so these tests run against whatever
the test session already froze; every assertion is on a *difference*
(or on the collector's enabled flag), never on an absolute count.
"""

import contextlib
import gc
import multiprocessing
import sys
import threading

import pytest

from repro import Engine
from repro.errors import XMLParseError
from repro.service import START_METHODS, QueryService
from repro.storage import Database
from repro.storage import database as database_module
from repro.storage.persist import load_database, save_database
from repro.storage.seal import bulk_load
from repro.xmark import FIGURE15_ORDER, QUERIES, XMarkGenerator, load_xmark
from tests.conftest import TINY_AUCTION

AVAILABLE = [
    m for m in START_METHODS
    if m in multiprocessing.get_all_start_methods()
]


@pytest.fixture
def collector_enabled():
    """Run the test with the collector on; restore the host's setting."""
    was_enabled = gc.isenabled()
    gc.enable()
    yield
    if not was_enabled:
        gc.disable()


@pytest.fixture(scope="module")
def xmark_xml():
    return XMarkGenerator(0.002, 20040613).generate_xml()


def _reload_counts(xml, reloads):
    """Freeze counts after the first load and after each reload."""
    engine = Engine()
    counts = []
    for _ in range(1 + reloads):
        engine.load_xml("auction.xml", xml)
        counts.append(gc.get_freeze_count())
    return counts


class TestCollectorState:
    def test_restored_after_a_successful_load(self, collector_enabled):
        Database().load_xml("auction.xml", TINY_AUCTION)
        assert gc.isenabled()

    def test_restored_after_each_entry_point(
        self, collector_enabled, tmp_path
    ):
        db = Database()
        load_xmark(db, factor=0.001)
        assert gc.isenabled()
        save_database(db, tmp_path / "db.tlcdb")
        load_database(tmp_path / "db.tlcdb")
        assert gc.isenabled()

    def test_restored_after_malformed_xml(self, collector_enabled):
        with pytest.raises(XMLParseError):
            Database().load_xml("bad.xml", "<a><b></a>")
        assert gc.isenabled()

    def test_paused_while_building(self, collector_enabled):
        with bulk_load():
            assert not gc.isenabled()
            with bulk_load():  # re-entrant: the inner exit resumes nothing
                pass
            assert not gc.isenabled()
        assert gc.isenabled()

    def test_host_with_collector_disabled_stays_disabled(
        self, collector_enabled
    ):
        gc.disable()
        try:
            Database().load_xml("auction.xml", TINY_AUCTION)
            assert not gc.isenabled()
            with pytest.raises(XMLParseError):
                Database().load_xml("bad.xml", "<a>")
            assert not gc.isenabled()
        finally:
            gc.enable()

    def test_a_failed_build_is_not_frozen(self, collector_enabled):
        before = gc.get_freeze_count()
        with pytest.raises(XMLParseError):
            Database().load_xml("bad.xml", "<a><b></a>")
        assert gc.get_freeze_count() == before

    def test_concurrent_loads_leave_the_collector_enabled(
        self, collector_enabled, xmark_xml
    ):
        # more loaders than cores and a short switch interval, so the
        # builds overlap: the first loader to finish must not resume
        # the collector under the others, and the last one must
        failures = []

        def load():
            try:
                for _ in range(3):
                    db = Database()
                    db.load_xml("auction.xml", xmark_xml)
                    assert len(db.tag_lookup("auction.xml", "person")) > 0
            except BaseException as error:  # reported by the main thread
                failures.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=load) for _ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not failures
        assert gc.isenabled()


class TestAcyclicStore:
    """Frozen objects are only ever released by reference counting, so
    a reference cycle inside ``repro.storage`` would leak one document
    per reload.  These pin the store acyclic."""

    def test_load_freezes_the_document(self, xmark_xml):
        before = gc.get_freeze_count()
        engine = Engine()
        engine.load_xml("auction.xml", xmark_xml)
        document = engine.db.document("auction.xml")
        # the columns hold no object per node but its NodeId, and every
        # one of those sits in the permanent generation, out of reach
        # of the collections ``gc.get_objects()`` reports on
        assert gc.get_freeze_count() - before > len(document)
        stored = {id(nid) for nid in document.ids}
        assert not any(id(obj) in stored for obj in gc.get_objects())

    def test_reloads_do_not_grow_the_permanent_generation(self, xmark_xml):
        counts = _reload_counts(xmark_xml, reloads=8)
        assert counts[1:] == counts[:1] * 8

    def test_spawn_process_reloads_do_not_grow_it_either(self, xmark_xml):
        if "spawn" not in AVAILABLE:
            pytest.skip("spawn start method unavailable")
        with multiprocessing.get_context("spawn").Pool(1) as pool:
            counts = pool.apply(_reload_counts, (xmark_xml, 4))
        assert counts[0] > 0
        assert counts[1:] == counts[:1] * 4

    def test_dropping_an_engine_releases_its_store(self, xmark_xml):
        keeper = Engine()
        keeper.load_xml("auction.xml", xmark_xml)
        settled = gc.get_freeze_count()
        extra = Engine()
        extra.load_xml("auction.xml", xmark_xml)
        assert gc.get_freeze_count() > settled
        del extra
        assert gc.get_freeze_count() == settled


@pytest.mark.parametrize("start_method", AVAILABLE)
def test_workers_report_a_sealed_store(start_method):
    engine = Engine()
    engine.load_xml("auction.xml", TINY_AUCTION)
    with QueryService(
        engine, threads=2, mode="process", start_method=start_method
    ) as svc:
        svc.prime(timeout=60)
        workers = svc.workers()["workers"]
    assert workers
    assert all(worker["sealed_objects"] > 0 for worker in workers)


def test_sealed_results_match_an_unsealed_store(monkeypatch):
    """The 23 XMark queries answer byte-identically whether the store
    was built under the seal or with the collector running."""
    sealed = Engine()
    load_xmark(sealed.db, factor=0.002)
    monkeypatch.setattr(
        database_module, "bulk_load", contextlib.nullcontext
    )
    before = gc.get_freeze_count()
    unsealed = Engine()
    load_xmark(unsealed.db, factor=0.002)
    assert gc.get_freeze_count() == before  # the control really is unsealed
    for name in FIGURE15_ORDER:
        text = QUERIES[name].text
        assert [t.to_xml() for t in sealed.run(text)] == [
            t.to_xml() for t in unsealed.run(text)
        ], name
