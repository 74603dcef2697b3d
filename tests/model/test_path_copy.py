"""The path-copy primitive: ``XTree.spine`` / ``path_copy`` / ``adopt_index``.

An operator that edits a witness copies the root→target paths and shares
every other subtree with its input.  These tests pin the three parts on
hand-built trees: which nodes are found, which are copied, and that a
derived LC index equals one built from scratch.
"""

import pytest

from repro.model import NodeId, TNode, XTree
from tests.conftest import (
    assert_cached_state_exact,
    fresh_nodes,
    index_ids,
    snapshot,
)


def nodes_of(spine) -> list:
    return [node for node, _, _ in spine]


def sample_tree():
    r"""r(1) -> a(2) -> [c(3), d(3, shadowed) -> e(4)], b(2) -> f(3)."""
    r = TNode("r", lcls=[1])
    a = r.add_child(TNode("a", lcls=[2]))
    b = r.add_child(TNode("b", lcls=[2]))
    c = a.add_child(TNode("c", lcls=[3]))
    d = a.add_child(TNode("d", lcls=[3]))
    e = d.add_child(TNode("e", lcls=[4]))
    f = b.add_child(TNode("f", lcls=[3]))
    d.shadowed = True
    return XTree(r), dict(r=r, a=a, b=b, c=c, d=d, e=e, f=f)


class TestCopyNode:
    def test_shares_children_but_not_the_list(self):
        tree, n = sample_tree()
        twin = n["a"].copy_node()
        assert twin is not n["a"]
        assert (twin.tag, twin.nid, twin.lcls) == ("a", n["a"].nid, {2})
        assert twin.children == n["a"].children
        assert twin.children is not n["a"].children
        assert twin.lcls is not n["a"].lcls
        assert all(x is y for x, y in zip(twin.children, n["a"].children))

    def test_keeps_the_shadow_flag(self):
        tree, n = sample_tree()
        assert n["d"].copy_node().shadowed is True


class TestSpine:
    def test_single_target_is_the_root_path(self):
        tree, n = sample_tree()
        assert tree.spine([n["f"]]) == [
            (n["r"], -1, 0), (n["b"], 0, 1), (n["f"], 1, 0),
        ]

    def test_root_target(self):
        tree, n = sample_tree()
        assert tree.spine([n["r"]]) == [(n["r"], -1, 0)]

    def test_no_targets(self):
        tree, _ = sample_tree()
        assert tree.spine([]) == []

    def test_union_of_paths_in_preorder(self):
        tree, n = sample_tree()
        spine = tree.spine([n["f"], n["c"]])
        assert nodes_of(spine) == [n["r"], n["a"], n["c"], n["b"], n["f"]]
        # every entry names its parent's entry and its child position
        for node, parent, position in spine[1:]:
            assert spine[parent][0].children[position] is node

    def test_nested_targets(self):
        tree, n = sample_tree()
        assert nodes_of(tree.spine([n["e"], n["a"]])) == [
            n["r"], n["a"], n["d"], n["e"],
        ]

    def test_finds_shadowed_targets(self):
        tree, n = sample_tree()
        assert nodes_of(tree.spine([n["d"]])) == [n["r"], n["a"], n["d"]]

    def test_foreign_target_raises(self):
        tree, _ = sample_tree()
        with pytest.raises(ValueError):
            tree.spine([TNode("stranger")])

    def test_stops_at_the_last_target(self):
        """Nothing after the target in pre-order is even looked at."""
        tree, n = sample_tree()

        class Trap(list):
            def __iter__(self):
                raise AssertionError("searched past the last target")

        n["b"].children = Trap(n["b"].children)
        assert nodes_of(tree.spine([n["c"]])) == [n["r"], n["a"], n["c"]]

    def test_stored_targets_prune_by_interval(self):
        """Stored subtrees that cannot hold the target are not entered."""
        root = TNode("site", nid=NodeId(0, 0, 99, 0))
        left = root.add_child(TNode("left", nid=NodeId(0, 1, 40, 1)))
        right = root.add_child(TNode("right", nid=NodeId(0, 41, 98, 1)))
        target = right.add_child(TNode("t", nid=NodeId(0, 50, 51, 2)))

        class Trap(list):
            def __iter__(self):
                raise AssertionError("entered a subtree that was prunable")

        left.children = Trap()
        assert nodes_of(XTree(root).spine([target])) == [root, right, target]

    def test_temporary_nodes_are_never_pruned(self):
        """A constructed wrapper can hold any stored node."""
        root = TNode("join_root")
        wrap = root.add_child(TNode("wrap"))
        other = root.add_child(TNode("x", nid=NodeId(0, 60, 61, 3)))
        target = wrap.add_child(TNode("t", nid=NodeId(0, 50, 51, 2)))
        assert nodes_of(XTree(root).spine([target])) == [root, wrap, target]
        assert nodes_of(XTree(root).spine([other])) == [root, other]


class TestPathCopy:
    def test_copies_exactly_the_spine_and_shares_the_rest(self):
        tree, n = sample_tree()
        before = snapshot(tree)
        spine = tree.spine([n["d"]])
        out, mapping = tree.path_copy(spine)
        assert snapshot(tree) == before
        assert set(mapping) == {id(node) for node in nodes_of(spine)}
        assert len(fresh_nodes(out, tree)) == 3
        assert out.root is mapping[id(n["r"])]
        a2, d2 = mapping[id(n["a"])], mapping[id(n["d"])]
        assert out.root.children[0] is a2
        assert out.root.children[1] is n["b"]  # off the path: shared
        assert a2.children[0] is n["c"]
        assert a2.children[1] is d2
        assert d2.children[0] is n["e"]  # below the target: shared
        assert d2.shadowed is True
        assert out.canonical(False) == tree.canonical(False)

    def test_edits_on_the_copy_do_not_reach_the_input(self):
        tree, n = sample_tree()
        before = snapshot(tree)
        out, mapping = tree.path_copy(tree.spine([n["b"]]))
        host = mapping[id(n["b"])]
        host.add_child(TNode("new", lcls=[9]))
        host.lcls.add(7)
        host.shadowed = True
        assert snapshot(tree) == before
        assert len(n["b"].children) == 1

    def test_a_prefix_of_a_spine_is_a_spine(self):
        tree, n = sample_tree()
        path = tree.spine([n["e"]])
        out, mapping = tree.path_copy(path[:-2])  # r, a
        assert set(mapping) == {id(n["r"]), id(n["a"])}
        assert out.root.children[0].children[1] is n["d"]

    def test_an_empty_spine_copies_the_root(self):
        tree, n = sample_tree()
        out, mapping = tree.path_copy([])
        assert set(mapping) == {id(n["r"])}
        assert out.root is not n["r"]
        assert out.root.children == n["r"].children
        assert out.root.children is not n["r"].children

    def test_starts_without_cached_state(self):
        tree, n = sample_tree()
        tree.class_nodes(3)
        tree.class_nodes(3, include_shadowed=True)
        out, _ = tree.path_copy(tree.spine([n["a"]]))
        assert out._lc_index is None
        assert out._lc_index_shadowed is None
        assert out._saw_shadowed is None


class TestAdoptIndex:
    def edited(self, new_lcl):
        tree, n = sample_tree()
        tree.class_nodes(3)
        tree.class_nodes(3, include_shadowed=True)
        assert tree._lc_index is not None
        assert tree._lc_index_shadowed is not None
        out, mapping = tree.path_copy(tree.spine([n["a"]]))
        added = TNode("count", 2, lcls=[new_lcl])
        mapping[id(n["a"])].add_child(added)
        out.adopt_index(tree, mapping, [(new_lcl, added)])
        return tree, out, added

    def test_derived_indexes_equal_a_scratch_build(self):
        tree, out, added = self.edited(9)
        assert out._lc_index is not None
        assert out._lc_index_shadowed is not None
        assert out._saw_shadowed is True
        assert_cached_state_exact(out)
        assert out.class_nodes(9) == [added]

    def test_untouched_classes_share_the_entry_list(self):
        tree, out, _ = self.edited(9)
        # class 3 has no copied member: its list is the input's own
        assert out._lc_index[3] is tree._lc_index[3]
        # class 2 has (a was copied): remapped into a new list
        assert out._lc_index[2] is not tree._lc_index[2]

    def test_input_index_is_not_written_to(self):
        tree, n = sample_tree()
        tree.class_nodes(3)
        before = index_ids(tree._lc_index)
        out, mapping = tree.path_copy(tree.spine([n["a"]]))
        added = TNode("count", 2, lcls=[9])
        mapping[id(n["a"])].add_child(added)
        out.adopt_index(tree, mapping, [(9, added)])
        assert index_ids(tree._lc_index) == before
        assert 9 not in tree._lc_index

    def test_an_existing_class_is_left_to_the_lazy_build(self):
        """Appending to a class the tree already has could break order."""
        tree, out, added = self.edited(3)
        assert out._lc_index is None
        assert out._lc_index_shadowed is None
        # a(2) -> [c, d(shadowed), count]; b -> f: pre-order, not append
        assert [node.tag for node in out.class_nodes(3)] == [
            "c", "count", "f",
        ]
        assert 3 in tree._lc_index and added not in tree._lc_index[3]

    def test_without_a_cached_base_nothing_is_derived(self):
        tree, n = sample_tree()
        out, mapping = tree.path_copy(tree.spine([n["a"]]))
        out.adopt_index(tree, mapping, [])
        assert out._lc_index is None and out._lc_index_shadowed is None
