"""Unit tests for binary database persistence."""

import os
import struct
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import StorageError
from repro.storage import Database
from repro.storage.persist import (
    MAGIC,
    VERSION,
    _HEADER,
    _I32,
    _RECORD_FIXED,
    _U32,
    load_database,
    save_database,
)
from repro.storage.xml_serializer import serialize_stored
from tests.conftest import TINY_AUCTION


@pytest.fixture
def saved(tmp_path, tiny_db):
    path = tmp_path / "auction.tlcdb"
    save_database(tiny_db, path)
    return path, tiny_db


class TestRoundtrip:
    def test_documents_survive(self, saved):
        path, original = saved
        loaded = load_database(path)
        assert loaded.document_names() == original.document_names()

    def test_content_identical(self, saved):
        path, original = saved
        loaded = load_database(path)
        assert serialize_stored(
            loaded.document("auction.xml")
        ) == serialize_stored(original.document("auction.xml"))

    def test_none_values_preserved(self, saved):
        path, original = saved
        loaded = load_database(path)
        doc = loaded.document("auction.xml")
        values = {r.tag: r.value for r in doc.records}
        assert values["people"] is None
        assert values["name"] is not None

    def test_indexes_rebuilt(self, saved):
        path, _ = saved
        loaded = load_database(path)
        assert len(loaded.tag_lookup("auction.xml", "person")) == 3
        assert len(loaded.value_lookup("auction.xml", "age", ">", 25)) == 2

    def test_queries_run_on_loaded_database(self, saved):
        from repro import Engine

        path, original = saved
        engine = Engine(load_database(path))
        result = engine.run(
            'FOR $p IN document("auction.xml")//person '
            "WHERE $p//age > 25 RETURN $p/name"
        )
        assert len(result) == 2

    def test_multiple_documents(self, tmp_path):
        db = Database()
        db.load_xml("a.xml", "<a><x>1</x></a>")
        db.load_xml("b.xml", "<b><y>2</y></b>")
        path = tmp_path / "multi.tlcdb"
        save_database(db, path)
        loaded = load_database(path)
        assert loaded.document_names() == ["a.xml", "b.xml"]
        assert len(loaded.tag_lookup("b.xml", "y")) == 1

    def test_xmark_roundtrip(self, tmp_path):
        from repro.xmark import load_xmark

        db = Database()
        doc = load_xmark(db, factor=0.001)
        path = tmp_path / "xmark.tlcdb"
        save_database(db, path)
        loaded = load_database(path)
        assert len(loaded.document("auction.xml")) == len(doc)


class TestErrors:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.tlcdb"
        path.write_bytes(b"NOTDB" + b"\x00" * 16)
        with pytest.raises(StorageError):
            load_database(path)

    def test_truncated_file(self, saved, tmp_path):
        path, _ = saved
        data = path.read_bytes()
        short = tmp_path / "short.tlcdb"
        short.write_bytes(data[: len(data) // 2])
        with pytest.raises(StorageError):
            load_database(short)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.tlcdb"
        path.write_bytes(b"")
        with pytest.raises(StorageError):
            load_database(path)

    def test_wrong_version(self, saved, tmp_path):
        path, _ = saved
        data = bytearray(path.read_bytes())
        data[len(MAGIC)] = VERSION + 1
        bad = tmp_path / "future.tlcdb"
        bad.write_bytes(bytes(data))
        with pytest.raises(StorageError, match="version"):
            load_database(bad)

    def test_invalid_utf8_string(self, tmp_path):
        db = Database()
        db.load_xml("d.xml", "<ab/>")
        path = tmp_path / "d.tlcdb"
        save_database(db, path)
        bad = tmp_path / "bad.tlcdb"
        bad.write_bytes(path.read_bytes().replace(b"ab", b"\xff\xfe"))
        with pytest.raises(StorageError, match="UTF-8"):
            load_database(bad)

    @pytest.mark.parametrize("field", [0, 1], ids=["tag_ref", "value_ref"])
    def test_string_reference_out_of_range(self, tmp_path, field):
        db = Database()
        db.load_xml("d.xml", "<a>v</a>")
        path = tmp_path / "d.tlcdb"
        save_database(db, path)
        data = bytearray(path.read_bytes())
        # the single record's fixed fields close the file
        offset = len(data) - _RECORD_FIXED.size + 4 * field
        data[offset:offset + 4] = _I32.pack(99)
        bad = tmp_path / "bad.tlcdb"
        bad.write_bytes(bytes(data))
        with pytest.raises(StorageError, match="string reference"):
            load_database(bad)


def _record_offsets(data: bytes) -> list:
    """Byte offset of each record of a one-document file."""
    offset = _HEADER.size
    offset += 4 + _U32.unpack_from(data, offset)[0]  # document name
    n_strings = _U32.unpack_from(data, offset)[0]
    offset += 4
    for _ in range(n_strings):
        offset += 4 + _U32.unpack_from(data, offset)[0]
    n_records = _U32.unpack_from(data, offset)[0]
    offset += 4
    offsets = []
    for _ in range(n_records):
        offsets.append(offset)
        n_children = _RECORD_FIXED.unpack_from(data, offset)[-1]
        offset += _RECORD_FIXED.size + 4 * n_children
    return offsets


class TestLayoutChecks:
    """A file whose records are not one pre-order tree is refused, not
    loaded into a store whose ids and children disagree."""

    XML = '<a><b id="1">x</b><b><c/></b></a>'

    @pytest.fixture
    def records(self, tmp_path):
        db = Database()
        db.load_xml("d.xml", self.XML)
        path = tmp_path / "d.tlcdb"
        save_database(db, path)
        return path, bytearray(path.read_bytes())

    def _corrupt(self, records, record, field, delta):
        path, data = records
        position = _record_offsets(bytes(data))[record] + 4 * field
        fmt = "<i" if field in (1, 5) else "<I"
        (old,) = struct.unpack_from(fmt, data, position)
        struct.pack_into(fmt, data, position, old + delta)
        path.write_bytes(bytes(data))
        return path

    def test_the_unchanged_file_loads(self, records):
        path, _ = records
        loaded = load_database(path)
        assert serialize_stored(loaded.document("d.xml")) == self.XML

    # record 2 is the first <b>: doc_root, a, b, @id, b, c
    @pytest.mark.parametrize(
        "record, field, delta",
        [
            (2, 2, 40),   # start
            (2, 3, 2),    # end
            (2, 4, 1),    # level
            (2, 5, 1),    # parent: itself
            (2, 5, 5),    # parent: a later record
            (5, 5, -3),   # parent: its grandparent
            (4, 6, -1),   # one child fewer listed
            (1, 7, 1),    # a listed child that is not one
        ],
        ids=[
            "start", "end", "level", "parent-self", "parent-later",
            "parent-grandparent", "n-children", "child-index",
        ],
    )
    def test_a_record_off_the_layout_raises(self, records, record, field,
                                            delta):
        path = self._corrupt(records, record, field, delta)
        with pytest.raises(StorageError):
            load_database(path)


def _small_database_bytes() -> bytes:
    db = Database()
    db.load_xml("s.xml", '<s><p id="1">x<q/></p><p>y</p></s>')
    with tempfile.TemporaryDirectory() as scratch:
        path = os.path.join(scratch, "s.tlcdb")
        save_database(db, path)
        with open(path, "rb") as stream:
            return stream.read()


SMALL = _small_database_bytes()


@settings(max_examples=300, deadline=None)
@given(st.integers(0, len(SMALL) * 8 - 1))
def test_one_flipped_bit_loads_or_raises_storage_error(bit):
    data = bytearray(SMALL)
    data[bit // 8] ^= 1 << (bit % 8)
    with tempfile.TemporaryDirectory() as scratch:
        path = os.path.join(scratch, "flipped.tlcdb")
        with open(path, "wb") as stream:
            stream.write(bytes(data))
        try:
            load_database(path)
        except StorageError:
            pass
