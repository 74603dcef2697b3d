"""Unit tests for tag and value indexes."""

import pytest

from repro.storage import Database

XML = """
<inventory>
  <item><price>10</price><name>rope</name></item>
  <item><price>25</price><name>lamp</name></item>
  <item><price>25</price><name>oil</name></item>
  <item><price>99.5</price><name>map</name></item>
  <item><name>gift</name></item>
</inventory>
"""


@pytest.fixture
def db():
    database = Database()
    database.load_xml("inv.xml", XML)
    return database


class TestTagIndex:
    def test_lookup_counts(self, db):
        assert len(db.tag_lookup("inv.xml", "item")) == 5
        assert len(db.tag_lookup("inv.xml", "price")) == 4

    def test_lookup_in_document_order(self, db):
        ids = db.tag_lookup("inv.xml", "item")
        assert [n.start for n in ids] == sorted(n.start for n in ids)

    def test_missing_tag_is_empty(self, db):
        assert len(db.tag_lookup("inv.xml", "widget")) == 0

    def test_lookup_meters(self, db):
        db.reset_metrics()
        db.tag_lookup("inv.xml", "item")
        assert db.metrics.index_lookups == 1
        assert db.metrics.index_entries_scanned == 5

    def test_raw_index_tags(self, db):
        index = db.tag_index("inv.xml")
        assert "price" in index.tags()
        assert index.count("item") == 5


class TestValueIndex:
    def test_equality(self, db):
        assert len(db.value_lookup("inv.xml", "price", "=", 25)) == 2
        assert len(db.value_lookup("inv.xml", "price", "=", "25")) == 2

    def test_range_queries(self, db):
        assert len(db.value_lookup("inv.xml", "price", ">", 10)) == 3
        assert len(db.value_lookup("inv.xml", "price", ">=", 25)) == 3
        assert len(db.value_lookup("inv.xml", "price", "<", 25)) == 1
        assert len(db.value_lookup("inv.xml", "price", "<=", 99.5)) == 4

    def test_not_equal(self, db):
        assert len(db.value_lookup("inv.xml", "price", "!=", 25)) == 2

    def test_string_equality(self, db):
        hits = db.value_lookup("inv.xml", "name", "=", "lamp")
        assert len(hits) == 1

    def test_range_does_not_cross_kinds(self, db):
        # a numeric range must not match non-numeric strings
        assert db.value_lookup("inv.xml", "name", ">", 0) == []

    def test_missing_tag_is_empty(self, db):
        assert db.value_lookup("inv.xml", "widget", "=", 1) == []

    def test_results_in_document_order(self, db):
        hits = db.value_lookup("inv.xml", "price", ">=", 0)
        starts = [n.start for n in hits]
        assert starts == sorted(starts)

    def test_unsupported_operator_raises(self, db):
        with pytest.raises(ValueError):
            db.value_lookup("inv.xml", "price", "~", 1)


class TestScanMetering:
    """Pin the ``index_entries_scanned`` accounting per operator.

    Equality and the range operators must charge only the binary-search
    slice they touch; ``!=`` degrades to a full scan of the tag's
    postings.  These are the exact costs the fast-path benchmark
    normalises by, so the numbers are pinned, not just bounded.
    """

    def _scanned(self, db, op, value):
        db.reset_metrics()
        db.value_lookup("inv.xml", "price", op, value)
        assert db.metrics.index_lookups == 1
        return db.metrics.index_entries_scanned

    def test_equality_scans_only_the_slice(self, db):
        # prices: 10, 25, 25, 99.5 -> the "= 25" run is two entries
        assert self._scanned(db, "=", 25) == 2
        assert self._scanned(db, "=", 10) == 1

    def test_equality_miss_charges_minimum(self, db):
        # an empty slice still accounts one probe entry
        assert self._scanned(db, "=", 11) == 1

    def test_range_scans_prefix(self, db):
        assert self._scanned(db, "<", 25) == 1
        assert self._scanned(db, "<=", 25) == 3

    def test_not_equal_scans_everything(self, db):
        assert self._scanned(db, "!=", 25) == 4
        assert self._scanned(db, "!=", -1) == 4


class TestOneIdPerStoredNode:
    """Indexes hand out the document's own id objects, never copies."""

    def test_postings_columns_align_with_the_records(self, db):
        document = db.document("inv.xml")
        index = db.tag_index("inv.xml")
        for tag in index.tags():
            postings = index.postings(tag)
            for nid, value in zip(postings.ids, postings.values):
                idx = document.index_of(nid)
                assert nid is document.node_id(idx)
                assert document.tags[idx] == tag
                assert value is document.values[idx]

    def test_value_index_hits_are_the_same_objects(self, db):
        document = db.document("inv.xml")
        hits = db.value_lookup("inv.xml", "price", ">=", 0)
        assert hits
        for nid in hits:
            assert nid is document.node_id(document.index_of(nid))

    def test_document_accessors_share_the_ids(self, db):
        document = db.document("inv.xml")
        assert document.root_id is document.ids[0]
        item = db.tag_lookup("inv.xml", "item")[0]
        tree = db.subtree(item)
        for node in tree.walk():
            assert node.nid is document.node_id(document.index_of(node.nid))


class TestImmutableViews:
    def test_tag_lookup_returns_shared_view(self, db):
        first = db.tag_lookup("inv.xml", "item")
        second = db.tag_lookup("inv.xml", "item")
        assert first is second

    def test_tag_lookup_view_rejects_mutation(self, db):
        postings = db.tag_lookup("inv.xml", "item")
        with pytest.raises(AttributeError):
            postings.append(postings[0])
        with pytest.raises(TypeError):
            postings.ids[0] = postings.ids[1]

    def test_columns_available_without_rebuild(self, db):
        postings = db.tag_lookup("inv.xml", "price")
        assert postings.starts == [(n.doc, n.start) for n in postings]
        assert list(postings.levels) == [n.level for n in postings]
