"""Unit tests for the columnar Postings view."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.storage import Database
from repro.storage.postings import EMPTY_POSTINGS, Postings

XML = """
<r>
  <a><b/><b/><c><b/></c></a>
  <a><c/></a>
</r>
"""


@pytest.fixture
def db():
    database = Database()
    database.load_xml("t.xml", XML)
    return database


class TestColumns:
    def test_columns_parallel_to_ids(self, db):
        postings = db.tag_index("t.xml").postings("b")
        assert len(postings) == 3
        assert postings.starts == [(n.doc, n.start) for n in postings.ids]
        assert list(postings.levels) == [n.level for n in postings.ids]

    def test_starts_sorted_ascending(self, db):
        postings = db.tag_index("t.xml").postings("a")
        assert postings.starts == sorted(postings.starts)


class TestStorageColumns:
    def test_values_and_runs_built_with_the_index(self, db):
        doc = db.document("t.xml")
        postings = db.tag_index("t.xml").postings("b")
        assert postings.values == tuple(map(doc.value_of, postings.ids))
        assert list(postings.run_pages) == [0]  # one page holds them all

    def test_id_only_view_has_no_storage_columns(self, db):
        view = Postings(db.tag_index("t.xml").postings("b").ids)
        assert view.values is None
        assert view.run_pages is None

    def test_empty_view_is_scannable(self):
        assert EMPTY_POSTINGS.values == ()
        assert len(EMPTY_POSTINGS.run_pages) == 0
        assert EMPTY_POSTINGS.starts == []

    def test_misaligned_columns_rejected(self, db):
        ids = db.tag_index("t.xml").postings("b").ids
        with pytest.raises(ValueError):
            Postings(ids, [0], [None])


class TestSequenceProtocol:
    def test_len_iter_getitem_contains(self, db):
        postings = db.tag_index("t.xml").postings("a")
        assert len(postings) == 2
        assert list(postings) == [postings[0], postings[1]]
        assert postings[0] in postings
        assert postings[0:1] == (postings[0],)


class TestLazyColumns:
    def test_columns_not_built_until_touched(self, db):
        postings = db.tag_index("t.xml").postings("b")
        assert postings._starts is None
        assert postings._levels is None
        list(postings)  # iterating ids derives nothing
        assert postings._levels is None
        postings.levels
        assert postings._levels is not None
        assert postings._starts is None

    def test_column_reads_idempotent(self, db):
        postings = db.tag_index("t.xml").postings("b")
        assert postings.levels is postings.levels
        assert postings.starts is postings.starts

    def test_contains_with_duplicate_free_starts(self, db):
        postings = db.tag_index("t.xml").postings("b")
        for node in postings:
            assert node in postings
        other = db.tag_index("t.xml").postings("a")[0]
        assert other not in postings
        assert "not-a-node" not in postings


class TestImmutability:
    def test_no_list_mutators(self, db):
        postings = db.tag_index("t.xml").postings("a")
        with pytest.raises(AttributeError):
            postings.append(postings[0])
        with pytest.raises(TypeError):
            postings.ids[0] = postings.ids[1]

    def test_no_arbitrary_attributes(self, db):
        postings = db.tag_index("t.xml").postings("a")
        with pytest.raises(AttributeError):
            postings.extra = 1


# ----------------------------------------------------------------------
# ``flat``: no posting contains another (what lets a join skip parents)
# ----------------------------------------------------------------------
def _brute_force_flat(ids):
    return not any(
        a.contains(b) for a in ids for b in ids if a is not b
    )


@st.composite
def _random_document(draw):
    """A random tree over two tags that both occur at every depth."""

    def element(depth):
        tag = draw(st.sampled_from("pq"))
        if depth >= 4:
            return f"<{tag}/>"
        kids = "".join(
            element(depth + 1) for _ in range(draw(st.integers(0, 3)))
        )
        return f"<{tag}>{kids}</{tag}>"

    return f"<r>{element(0)}{element(0)}</r>"


class TestFlat:
    @given(_random_document(), st.data())
    def test_equals_brute_force_containment(self, xml, data):
        database = Database()
        database.load_xml("t.xml", xml)
        index = database.tag_index("t.xml")
        for tag in index.tags():
            postings = index.postings(tag)
            assert postings.flat == _brute_force_flat(postings.ids), tag
            # an id-only view of any subset computes its own answer, and
            # a subset of flat postings is flat (what a filtered scan and
            # a pruned join side rely on when they inherit the flag)
            kept = [n for n in postings.ids if data.draw(st.booleans())]
            subset = Postings(kept)
            assert subset.flat == _brute_force_flat(kept), tag
            assert subset.flat or not postings.flat

    def test_every_xmark_tag(self, xmark_engine):
        index = xmark_engine.db.tag_index("auction.xml")
        for tag in index.tags():
            postings = index.postings(tag)
            assert postings.flat == _brute_force_flat(postings.ids), tag

    def test_nesting_and_disorder_are_not_flat(self, db):
        index = db.tag_index("t.xml")
        assert index.postings("a").flat and index.postings("b").flat
        nested = Postings([*index.postings("a"), *index.postings("c")])
        assert not nested.flat  # c inside a, and out of document order
        in_order = sorted(nested.ids, key=lambda n: n.start)
        assert not Postings(in_order).flat
        assert not Postings(list(reversed(index.postings("b").ids))).flat
        assert EMPTY_POSTINGS.flat and Postings(in_order[:1]).flat

    def test_flat_is_eager_and_read_only(self, db):
        postings = db.tag_index("t.xml").postings("b")
        assert "flat" in Postings.__slots__
        assert "_flat" not in Postings.__slots__
        assert postings._starts is None  # computing it built no column
        db.load_xml("u.xml", XML)
        both = Postings([*postings.ids, *db.tag_index("u.xml").postings("b")])
        assert both.flat  # documents never contain each other
