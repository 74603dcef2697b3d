"""Snapshot fidelity: the spawn-mode handshake changes nothing.

Process-pool workers started under ``spawn`` materialize their database
from a :func:`~repro.storage.persist.write_snapshot` file, so the
snapshot round trip is part of the execution substrate.  These tests
pin it down: the handle's digest guards the file, and a database loaded
from a snapshot answers every XMark benchmark query byte-identically
to the database it was written from.
"""

import hashlib
import multiprocessing
import os

import pytest

from repro import Engine
from repro.errors import StorageError
from repro.storage import Database
from repro.storage import persist
from repro.storage.persist import (
    SnapshotHandle,
    open_snapshot,
    write_snapshot,
)
from repro.storage.xml_serializer import serialize_stored
from repro.xmark import FIGURE15_ORDER, QUERIES
from tests.conftest import TINY_AUCTION


def _open_outcome(handle):
    """What ``open_snapshot`` does in a worker: the error text, or None."""
    try:
        open_snapshot(handle)
    except StorageError as error:
        return str(error)
    return None


class TestSnapshotHandle:
    def test_round_trip_preserves_documents(self, tmp_path, tiny_db):
        handle = write_snapshot(tiny_db, str(tmp_path / "db.tlcdb"))
        assert handle.pool_pages == tiny_db.pool.capacity
        loaded = open_snapshot(handle)
        assert loaded.document_names() == tiny_db.document_names()
        assert serialize_stored(
            loaded.document("auction.xml")
        ) == serialize_stored(tiny_db.document("auction.xml"))

    def test_digest_is_stable(self, tmp_path, tiny_db):
        first = write_snapshot(tiny_db, str(tmp_path / "a.tlcdb"))
        second = write_snapshot(tiny_db, str(tmp_path / "b.tlcdb"))
        assert first.digest == second.digest

    def test_corrupted_snapshot_is_refused(self, tmp_path, tiny_db):
        path = tmp_path / "db.tlcdb"
        handle = write_snapshot(tiny_db, str(path))
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(StorageError, match="unverified"):
            open_snapshot(handle)

    def test_stale_handle_is_refused(self, tmp_path, tiny_db):
        path = tmp_path / "db.tlcdb"
        handle = write_snapshot(tiny_db, str(path))
        # the file was replaced after the handle was issued
        tiny_db.load_xml("extra.xml", "<r><x>1</x></r>")
        write_snapshot(tiny_db, str(path))
        with pytest.raises(StorageError, match="unverified"):
            open_snapshot(handle)

    @pytest.mark.parametrize(
        "start_method",
        [
            m for m in ("fork", "spawn")
            if m in multiprocessing.get_all_start_methods()
        ],
    )
    def test_truncated_snapshot_is_refused_in_a_worker(
        self, tmp_path, tiny_db, start_method
    ):
        path = tmp_path / "db.tlcdb"
        handle = write_snapshot(tiny_db, str(path))
        path.write_bytes(path.read_bytes()[:-7])
        with multiprocessing.get_context(start_method).Pool(1) as pool:
            outcome = pool.apply(_open_outcome, (handle,))
        assert outcome is not None and "digest mismatch" in outcome

    def test_digest_is_of_the_bytes_on_disk(self, tmp_path, tiny_db):
        path = tmp_path / "db.tlcdb"
        handle = write_snapshot(tiny_db, str(path))
        assert handle.digest == hashlib.sha256(path.read_bytes()).hexdigest()
        assert os.listdir(tmp_path) == ["db.tlcdb"]  # no .tmp left behind

    def test_crash_before_replace_keeps_the_previous_snapshot(
        self, tmp_path, tiny_db, monkeypatch
    ):
        path = tmp_path / "db.tlcdb"
        handle = write_snapshot(tiny_db, str(path))
        previous = path.read_bytes()
        tiny_db.load_xml("extra.xml", "<r><x>1</x></r>")

        def crash(src, dst):
            raise OSError("simulated crash before os.replace")

        monkeypatch.setattr(persist.os, "replace", crash)
        with pytest.raises(OSError, match="simulated crash"):
            write_snapshot(tiny_db, str(path))
        assert path.read_bytes() == previous
        assert open_snapshot(handle).document_names() == ["auction.xml"]

    def test_handle_is_picklable(self, tmp_path, tiny_db):
        import pickle

        handle = write_snapshot(tiny_db, str(tmp_path / "db.tlcdb"))
        clone = pickle.loads(pickle.dumps(handle))
        assert clone == handle
        assert isinstance(clone, SnapshotHandle)

    def test_pool_capacity_survives(self, tmp_path):
        db = Database(pool_pages=17)
        db.load_xml("a.xml", "<a><b>1</b></a>")
        handle = write_snapshot(db, str(tmp_path / "db.tlcdb"))
        assert open_snapshot(handle).pool.capacity == 17


class TestSnapshotSweep:
    def test_all_benchmark_queries_byte_identical(
        self, tmp_path, xmark_engine
    ):
        handle = write_snapshot(
            xmark_engine.db, str(tmp_path / "xmark.tlcdb")
        )
        loaded = Engine(open_snapshot(handle))
        for name in FIGURE15_ORDER:
            text = QUERIES[name].text
            expected = [t.to_xml() for t in xmark_engine.run(text)]
            actual = [t.to_xml() for t in loaded.run(text)]
            assert actual == expected, (
                f"{name}: snapshot-loaded database diverged from source"
            )
