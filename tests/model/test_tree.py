"""Unit tests for in-memory result trees and logical-class indexing."""

import pickle

import pytest

from repro.errors import CardinalityError
from repro.model.node_id import NodeId
from repro.model.tree import TNode, XTree


def build_sample() -> XTree:
    """person(3) with @id(7), name(12) and two bidders(6)."""
    person = TNode("person", nid=NodeId(0, 1, 20, 1), lcls=[3])
    person.add_child(TNode("@id", "p1", NodeId(0, 2, 3, 2), [7]))
    person.add_child(TNode("name", "Alice", NodeId(0, 4, 5, 2), [12]))
    person.add_child(TNode("bidder", None, NodeId(0, 6, 7, 2), [6]))
    person.add_child(TNode("bidder", None, NodeId(0, 8, 9, 2), [6]))
    return XTree(person)


class TestTNode:
    def test_walk_is_preorder(self):
        tree = build_sample()
        tags = [n.tag for n in tree.root.walk()]
        assert tags == ["person", "@id", "name", "bidder", "bidder"]

    def test_walk_skips_shadowed_subtrees(self):
        tree = build_sample()
        tree.root.children[2].shadowed = True
        tags = [n.tag for n in tree.root.walk()]
        assert tags == ["person", "@id", "name", "bidder"]

    def test_walk_include_shadowed(self):
        tree = build_sample()
        tree.root.children[2].shadowed = True
        tags = [n.tag for n in tree.root.walk(include_shadowed=True)]
        assert tags.count("bidder") == 2

    def test_clone_preserves_everything(self):
        tree = build_sample()
        tree.root.children[3].shadowed = True
        copy = tree.root.clone()
        assert copy is not tree.root
        assert copy.canonical() == tree.root.canonical()
        assert copy.children[3].shadowed
        assert copy.children[0].lcls == {7}
        assert copy.children[0].nid == tree.root.children[0].nid

    def test_clone_is_deep(self):
        tree = build_sample()
        copy = tree.root.clone()
        copy.children[1].value = "Mallory"
        assert tree.root.children[1].value == "Alice"

    def test_canonical_by_content_ignores_ids(self):
        a = TNode("x", "1", NodeId(0, 1, 2, 0))
        b = TNode("x", "1", NodeId(0, 5, 6, 0))
        assert a.canonical(True) == b.canonical(True)
        assert a.canonical(False) != b.canonical(False)

    def test_canonical_excludes_shadowed(self):
        tree = build_sample()
        before = tree.root.canonical()
        tree.root.children[3].shadowed = True
        after = tree.root.canonical()
        assert before != after

    def test_to_xml_renders_attributes(self):
        tree = build_sample()
        xml = tree.to_xml()
        assert xml.startswith('<person id="p1">')
        assert "<name>Alice</name>" in xml
        assert xml.count("<bidder/>") == 2

    def test_to_xml_escapes(self):
        node = TNode("t", 'a<b>&"c')
        assert node.to_xml() == "<t>a&lt;b&gt;&amp;&quot;c</t>"

    def test_parent_map(self):
        tree = build_sample()
        parents = tree.root.parent_map()
        for child in tree.root.children:
            assert parents[id(child)] is tree.root

    def test_remove_child(self):
        tree = build_sample()
        name = tree.root.children[1]
        tree.root.remove_child(name)
        assert all(c.tag != "name" for c in tree.root.children)


class TestXTree:
    def test_nodes_in_class(self):
        tree = build_sample()
        assert len(tree.nodes_in_class(6)) == 2
        assert tree.nodes_in_class(12)[0].value == "Alice"

    def test_unknown_class_is_empty(self):
        tree = build_sample()
        assert tree.nodes_in_class(999) == []

    def test_shadowed_nodes_leave_the_class(self):
        tree = build_sample()
        tree.root.children[3].shadowed = True
        tree.invalidate()
        assert len(tree.nodes_in_class(6)) == 1
        assert len(tree.nodes_in_class(6, include_shadowed=True)) == 2

    def test_index_cache_invalidation(self):
        tree = build_sample()
        assert len(tree.nodes_in_class(6)) == 2
        tree.root.add_child(TNode("bidder", None, NodeId(0, 10, 11, 2), [6]))
        tree.invalidate()
        assert len(tree.nodes_in_class(6)) == 3

    def test_singleton_ok(self):
        tree = build_sample()
        assert tree.singleton(12, "Test").value == "Alice"

    def test_singleton_raises_on_many(self):
        tree = build_sample()
        with pytest.raises(CardinalityError):
            tree.singleton(6, "Test")

    def test_singleton_raises_on_empty(self):
        tree = build_sample()
        with pytest.raises(CardinalityError):
            tree.singleton(999, "Test")

    def test_order_key_follows_root(self):
        tree = build_sample()
        assert tree.order_key == tree.root.nid.order_key

    def test_clone_independent_index(self):
        tree = build_sample()
        copy = tree.clone()
        copy.root.children[3].lcls.discard(6)
        copy.invalidate()
        assert len(tree.nodes_in_class(6)) == 2
        assert len(copy.nodes_in_class(6)) == 1

    def test_pickle_ships_the_root_not_the_index(self):
        tree = build_sample()
        tree.root.children[3].shadowed = True
        tree.nodes_in_class(6)
        tree.nodes_in_class(6, include_shadowed=True)
        copy = pickle.loads(pickle.dumps(tree, pickle.HIGHEST_PROTOCOL))
        assert copy._lc_index is None
        assert copy._lc_index_shadowed is None
        assert copy._saw_shadowed is None
        assert copy.root.canonical() == tree.root.canonical()
        assert len(copy.nodes_in_class(6)) == 1
        assert len(copy.nodes_in_class(6, include_shadowed=True)) == 2

    def test_multi_class_membership(self):
        tree = build_sample()
        tree.root.children[2].lcls.add(13)
        tree.invalidate()
        assert tree.nodes_in_class(13) == [tree.root.children[2]]
        assert tree.root.children[2] in tree.nodes_in_class(6)
