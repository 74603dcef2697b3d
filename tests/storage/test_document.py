"""Unit tests for the stored document layer."""

import tracemalloc

import pytest

from repro import Engine
from repro.errors import StorageError
from repro.model.node_id import NodeId
from repro.storage import Database
from repro.storage.xml_serializer import serialize_stored
from repro.xmark import XMarkGenerator

XML = """
<site>
 <people>
  <person id="p1"><name>Alice</name></person>
  <person id="p2"><name>Bob</name></person>
 </people>
</site>
"""


@pytest.fixture
def doc():
    db = Database()
    return db.load_xml("t.xml", XML), db


class TestStructure:
    def test_doc_root_wrapper(self, doc):
        document, _ = doc
        assert document.tags[0] == "doc_root"
        assert document.levels[0] == 0
        root_children = document.children_ids(document.root_id)
        assert [document.tag_of(n) for n in root_children] == ["site"]

    def test_attributes_become_at_children(self, doc):
        document, db = doc
        persons = db.tag_lookup("t.xml", "person")
        child_tags = [db.tag_of(c) for c in db.children(persons[0])]
        assert child_tags == ["@id", "name"]
        id_node = db.children(persons[0])[0]
        assert db.value_of(id_node) == "p1"

    def test_levels(self, doc):
        document, db = doc
        person = db.tag_lookup("t.xml", "person")[0]
        assert person.level == 3  # doc_root/site/people/person

    def test_record_count(self, doc):
        document, _ = doc
        # doc_root, site, people, 2×(person, @id, name)
        assert len(document) == 9

    def test_parent_pointers(self, doc):
        document, db = doc
        person = db.tag_lookup("t.xml", "person")[0]
        parent = db.parent(person)
        assert db.tag_of(parent) == "people"
        assert db.parent(document.root_id) is None

    def test_index_of_unknown_id_raises(self, doc):
        document, _ = doc
        with pytest.raises(StorageError):
            document.index_of(NodeId(document.doc_id, 9999, 10000, 1))

    def test_index_of_wrong_document_raises(self, doc):
        document, _ = doc
        with pytest.raises(StorageError):
            document.index_of(NodeId(document.doc_id + 7, 1, 2, 0))

    def test_an_id_sharing_a_stored_start_is_unknown(self, doc):
        document, db = doc
        # ``people`` is stored with start 3; an id with that start but
        # another end and level names no stored node
        assert document.ids[2].start == 3
        impostor = NodeId(document.doc_id, 3, 13, 5)
        with pytest.raises(StorageError, match="unknown node id"):
            document.index_of(impostor)
        with pytest.raises(StorageError, match="unknown node id"):
            db.value_of(impostor)

    def test_every_stored_id_maps_back_to_its_record(self, doc):
        document, _ = doc
        for idx, nid in enumerate(document.ids):
            assert document.index_of(nid) == idx
            # an equal id that is not the stored object is found too
            copy = NodeId(nid.doc, nid.start, nid.end, nid.level)
            assert document.index_of(copy) == idx


class TestAccess:
    def test_subtree_materialization(self, doc):
        document, db = doc
        person = db.tag_lookup("t.xml", "person")[0]
        tree = db.subtree(person, lcls={3})
        assert tree.tag == "person"
        assert tree.lcls == {3}
        assert tree.to_xml() == '<person id="p1"><name>Alice</name></person>'

    def test_subtree_meters_every_node(self, doc):
        document, db = doc
        db.reset_metrics()
        person = db.tag_lookup("t.xml", "person")[0]
        before = db.metrics.nodes_touched
        db.subtree(person)
        # person + @id + name
        assert db.metrics.nodes_touched - before == 3

    def test_serialize_roundtrip(self, doc):
        document, _ = doc
        xml = serialize_stored(document)
        assert xml.startswith("<site>")
        assert '<person id="p2"><name>Bob</name></person>' in xml

    def test_children_in_document_order(self, doc):
        document, db = doc
        people = db.tag_lookup("t.xml", "people")[0]
        kids = db.children(people)
        starts = [k.start for k in kids]
        assert starts == sorted(starts)

    def test_reload_replaces_document(self, doc):
        document, db = doc
        db.load_xml("t.xml", "<site><x/></site>")
        assert len(db.tag_lookup("t.xml", "person")) == 0
        assert len(db.tag_lookup("t.xml", "x")) == 1

    def test_unknown_document_raises(self, doc):
        _, db = doc
        with pytest.raises(StorageError):
            db.document("missing.xml")


class TestDeepDocuments:
    """The XML front end is bounded by memory only; so must be reading
    a deep document back out of the store."""

    DEPTH = 5000
    XML = "<a>" * DEPTH + "x" + "</a>" * DEPTH

    @pytest.fixture(scope="class")
    def engine(self):
        engine = Engine()
        engine.load_xml("deep.xml", self.XML)
        return engine

    def test_serialize_stored_round_trips(self, engine):
        document = engine.db.document("deep.xml")
        assert serialize_stored(document) == self.XML

    @pytest.mark.parametrize("name", ["tlc", "nav", "tax"])
    def test_returning_the_root_gives_back_the_input(self, engine, name):
        result = engine.run(
            'FOR $a IN document("deep.xml")/a RETURN $a', engine=name
        )
        assert [tree.to_xml() for tree in result] == [self.XML]


class TestStoreSize:
    def test_bytes_per_node_at_xmark_factor_0_01(self):
        """The columns hold a node in at most 400 traced bytes: its
        NodeId, its slots in the columns and its index entries."""
        xml = XMarkGenerator(0.01, 20040613).generate_xml()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            db = Database()
            document = db.load_xml("auction.xml", xml)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(document) == 15_700
        assert held / len(document) <= 400
