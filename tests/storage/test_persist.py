"""Unit tests for binary database persistence."""

import os
import tempfile
from array import array

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import StorageError
from repro.storage import Database
from repro.storage.document import Columns
from repro.storage.persist import (
    MAGIC,
    VERSION,
    load_database,
    save_database,
)
from repro.storage.xml_serializer import serialize_stored
from repro.xmark import load_xmark


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
        values = dict(zip(doc.tags, doc.values))
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

    def test_version_1_is_refused(self, saved, tmp_path):
        path, _ = saved
        data = bytearray(path.read_bytes())
        data[len(MAGIC)] = 1
        old = tmp_path / "v1.tlcdb"
        old.write_bytes(bytes(data))
        assert VERSION == 2
        with pytest.raises(StorageError, match="format version 1"):
            load_database(old)

    # the file ends with the three columns of the two records (doc_root,
    # a): tag refs, value refs, levels.  The refs of ``a`` are rewritten;
    # the strings are doc_root, a and v, so 3 is one past the table
    @pytest.mark.parametrize(
        "column, ref",
        [(0, 99), (1, 99), (1, -2), (0, -1), (0, 3)],
        ids=["tag_ref", "value_ref", "value_ref_-2", "tag_ref_-1",
             "tag_ref_string_count"],
    )
    def test_string_reference_out_of_range(self, tmp_path, column, ref):
        db = Database()
        db.load_xml("d.xml", "<a>v</a>")
        path = tmp_path / "d.tlcdb"
        save_database(db, path)
        data = bytearray(path.read_bytes())
        n_records = 2
        offset = len(data) - 4 * n_records * (3 - column) + 4
        data[offset:offset + 4] = array("i", [ref]).tobytes()
        bad = tmp_path / "bad.tlcdb"
        bad.write_bytes(bytes(data))
        with pytest.raises(StorageError, match="string reference"):
            load_database(bad)


def _expected_layout(levels):
    """Brute-force ends and parents of a valid pre-order level list."""
    n = len(levels)
    ends, parents = [], []
    for i, level in enumerate(levels):
        stop = next((j for j in range(i + 1, n) if levels[j] <= level), n)
        ends.append(2 * stop - level)
        parents.append(
            next((j for j in range(i - 1, -1, -1) if levels[j] < level), -1)
        )
    return ends, parents


def _is_one_tree(levels):
    return levels[0] == 0 and all(
        1 <= level <= previous + 1
        for previous, level in zip(levels, levels[1:])
    )


class TestLayoutChecks:
    """A file whose levels are not one pre-order tree is refused, not
    loaded into a store whose ids and children disagree."""

    XML = '<a><b id="1">x</b><b><c/></b></a>'
    # doc_root, a, b, @id, b, c
    LEVELS = [0, 1, 2, 3, 2, 3]

    @pytest.fixture
    def records(self, tmp_path):
        db = Database()
        db.load_xml("d.xml", self.XML)
        path = tmp_path / "d.tlcdb"
        save_database(db, path)
        return path, bytearray(path.read_bytes())

    def test_the_unchanged_file_loads(self, records):
        path, data = records
        # the level column closes the file
        assert data[-4 * len(self.LEVELS):] == array(
            "i", self.LEVELS
        ).tobytes()
        loaded = load_database(path)
        assert serialize_stored(loaded.document("d.xml")) == self.XML

    @pytest.mark.parametrize(
        "levels",
        [
            [1, 2, 3, 4, 3, 4],
            [0, 1, 2, 3, 2, 0],
            [0, 0, 1, 2, 1, 2],
            [0, 1, 2, 3, 2, 4],
            [0, 1, 3, 3, 2, 3],  # the first b one level down
            [0, 1, 2, -1, 2, 3],
        ],
        ids=[
            "root-not-at-level-0", "second-root", "level-0-after-the-root",
            "plus-two-step", "level", "negative",
        ],
    )
    def test_a_record_off_the_layout_raises(self, records, levels):
        path, data = records
        data[-4 * len(levels):] = array("i", levels).tobytes()
        path.write_bytes(bytes(data))
        with pytest.raises(StorageError, match="out of place"):
            load_database(path)

    def test_a_different_tree_loads_with_its_own_layout(self, records):
        path, data = records
        # c moves up: a sibling of the second b, not its child
        data[-4:] = array("i", [2]).tobytes()
        path.write_bytes(bytes(data))
        document = load_database(path).document("d.xml")
        assert serialize_stored(document) == '<a><b id="1">x</b><b/><c/></a>'


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(-1, 5), min_size=1, max_size=12))
def test_from_levels_derives_the_layout_or_raises(levels):
    column = array("i", levels)
    n = len(levels)
    if not _is_one_tree(levels):
        with pytest.raises(StorageError):
            Columns.from_levels(["t"] * n, [None] * n, column)
        return
    columns = Columns.from_levels(["t"] * n, [None] * n, column)
    ends, parents = _expected_layout(levels)
    assert list(columns.ends) == ends
    assert list(columns.parents) == parents
    assert columns.levels is column


def test_from_levels_agrees_with_the_parser(xmark_engine):
    """The snapshot reader's derivation and the record builder's
    streaming arithmetic give one layout."""
    document = xmark_engine.db.document("auction.xml")
    columns = Columns.from_levels(
        document.tags, document.values, document.levels
    )
    assert columns.ends == document.ends
    assert columns.parents == document.parents


def test_bytes_per_record_at_xmark_factor_0_01(tmp_path):
    """Three int32 columns plus the shared string table: at most 20
    bytes a record (the record-per-node layout took 37)."""
    db = Database()
    document = load_xmark(db, factor=0.01)
    path = tmp_path / "x.tlcdb"
    save_database(db, path)
    assert os.path.getsize(path) / len(document) <= 20


def _small_database_bytes() -> bytes:
    db = Database()
    db.load_xml("s.xml", '<s><p id="1">x<q/></p><p>y</p></s>')
    with tempfile.TemporaryDirectory() as scratch:
        path = os.path.join(scratch, "s.tlcdb")
        save_database(db, path)
        with open(path, "rb") as stream:
            return stream.read()


SMALL = _small_database_bytes()


def _load_bytes(data: bytes) -> Database:
    with tempfile.TemporaryDirectory() as scratch:
        path = os.path.join(scratch, "s.tlcdb")
        with open(path, "wb") as stream:
            stream.write(data)
        return load_database(path)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, len(SMALL) * 8 - 1))
def test_one_flipped_bit_loads_or_raises_storage_error(bit):
    data = bytearray(SMALL)
    data[bit // 8] ^= 1 << (bit % 8)
    try:
        _load_bytes(bytes(data))
    except StorageError:
        pass


def test_only_the_whole_file_loads():
    for size in range(len(SMALL)):
        with pytest.raises(StorageError):
            _load_bytes(SMALL[:size])
    assert _load_bytes(SMALL).document_names() == ["s.xml"]
