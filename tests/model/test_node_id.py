"""Unit and property tests for interval node ids (Section 5.1)."""

import copy
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.model.node_id import (
    NodeId,
    TempId,
    TempIdAllocator,
    structurally_related,
)
from repro.storage import Database
from repro.storage.xml_parser import parse_xml


class TestCompactIds:
    """Slotted ids (no ``__dict__``) that still pickle and copy."""

    @pytest.mark.parametrize("nid", [NodeId(3, 7, 12, 2), TempId(41)])
    def test_round_trips(self, nid):
        assert not hasattr(nid, "__dict__")
        clones = [copy.copy(nid), copy.deepcopy(nid)] + [
            pickle.loads(pickle.dumps(nid, protocol))
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
        ]
        for clone in clones:
            assert type(clone) is type(nid)
            assert clone == nid and hash(clone) == hash(nid)
            assert clone.order_key == nid.order_key

    def test_still_frozen(self):
        with pytest.raises(AttributeError):
            NodeId(0, 1, 2, 0).start = 5
        with pytest.raises(AttributeError):
            TempId(1).other = 5


class TestNodeId:
    def test_containment(self):
        outer = NodeId(0, 1, 10, 0)
        inner = NodeId(0, 2, 5, 1)
        assert outer.contains(inner)
        assert not inner.contains(outer)

    def test_containment_is_strict(self):
        node = NodeId(0, 1, 10, 0)
        assert not node.contains(node)

    def test_cross_document_never_contains(self):
        a = NodeId(0, 1, 10, 0)
        b = NodeId(1, 2, 5, 1)
        assert not a.contains(b)

    def test_parent_requires_adjacent_level(self):
        grandparent = NodeId(0, 1, 20, 0)
        child = NodeId(0, 2, 10, 1)
        grandchild = NodeId(0, 3, 5, 2)
        assert grandparent.is_parent_of(child)
        assert not grandparent.is_parent_of(grandchild)
        assert child.is_parent_of(grandchild)

    def test_precedes_is_document_order(self):
        a = NodeId(0, 1, 10, 0)
        b = NodeId(0, 2, 5, 1)
        assert a.precedes(b)  # ancestors precede descendants
        assert not b.precedes(a)

    def test_order_key_sorts_stored_before_temp(self):
        stored = NodeId(5, 100, 200, 3)
        temp = TempId(0)
        assert stored.order_key < temp.order_key


class TestTempIds:
    def test_allocator_is_monotonic(self):
        allocator = TempIdAllocator()
        first = allocator.next()
        second = allocator.next()
        assert first.seq < second.seq
        assert first.order_key < second.order_key

    def test_reset(self):
        allocator = TempIdAllocator()
        allocator.next()
        allocator.reset()
        assert allocator.next().seq == 0

    def test_property2_waived_for_temp_ids(self):
        """Temporary ids carry no structural information."""
        stored = NodeId(0, 1, 10, 0)
        temp = TempId(3)
        assert not structurally_related(stored, temp, "ad")
        assert not structurally_related(temp, stored, "pc")


class TestStructurallyRelated:
    def test_axes(self):
        parent = NodeId(0, 1, 10, 1)
        child = NodeId(0, 2, 3, 2)
        deep = NodeId(0, 4, 5, 3)
        assert structurally_related(parent, child, "pc")
        assert structurally_related(parent, deep, "ad")
        assert not structurally_related(parent, deep, "pc")

    def test_unknown_axis_raises(self):
        node = NodeId(0, 1, 10, 1)
        with pytest.raises(ValueError):
            structurally_related(node, node, "sibling")


# ----------------------------------------------------------------------
# property: the encoding assigned by Document matches the real tree shape
# ----------------------------------------------------------------------
@st.composite
def xml_documents(draw):
    """Random small XML texts with known structure."""

    def element(depth: int) -> str:
        tag = draw(st.sampled_from("abcde"))
        if depth >= 3:
            return f"<{tag}/>"
        n_children = draw(st.integers(0, 3))
        children = "".join(element(depth + 1) for _ in range(n_children))
        return f"<{tag}>{children}</{tag}>"

    return f"<root>{element(0)}{element(0)}</root>"


@given(xml_documents())
def test_interval_encoding_matches_tree(xml_text):
    """Property: contains/is_parent_of agree with actual tree structure."""
    db = Database()
    doc = db.load_xml("t.xml", xml_text)
    # derive ground truth ancestorship from the record parent pointers
    ancestors = {}
    for idx, parent in enumerate(doc.parents):
        chain = []
        current = parent
        while current >= 0:
            chain.append(current)
            current = doc.parents[current]
        ancestors[idx] = set(chain)
    for i in range(len(doc)):
        for j in range(len(doc)):
            a, b = doc.node_id(i), doc.node_id(j)
            assert a.contains(b) == (i in ancestors[j])
            assert a.is_parent_of(b) == (doc.parents[j] == i)


@given(xml_documents())
def test_start_order_is_document_order(xml_text):
    """Property: record order (pre-order) equals start order."""
    db = Database()
    doc = db.load_xml("t.xml", xml_text)
    starts = [nid.start for nid in doc.ids]
    assert starts == sorted(starts)
