"""Sharing safety of the witness-editing operators (DESIGN §10).

Aggregate, Flatten, Shadow, Illuminate and the extension Select emit
*path copies* of their input trees: the nodes on the root→edit paths are
new, every other subtree is the input's own.  That is only sound if no
operator ever writes to a node it did not create, so each test snapshots
the complete input (tag, value, id, classes, flag, child identities),
runs the operator, and demands the snapshot unchanged — then checks that
the output really shares (by identity) and really is small (fresh
``TNode`` count = path length + nodes added).
"""

import pytest

from repro.core import (
    AggregateOp,
    Context,
    FlattenOp,
    IlluminateOp,
    ProjectOp,
    ShadowOp,
    evaluate,
)
from repro.core.base import Operator
from repro.errors import AlgebraError
from repro.model import NodeId, TNode, TreeSequence, XTree
from repro.patterns import APT, pattern_node
from tests.conftest import (
    Const,
    assert_cached_state_exact,
    fresh_nodes,
    snapshot,
)


def run(plan, db):
    return evaluate(plan, Context(db))


def x11_tree(items: int = 120) -> XTree:
    """The Join output x11's count runs on.

    ``join_root`` (12) with one stored child — a person (2) holding a
    profile with three interests (5) — and ``items`` constructed
    ``<it/>`` siblings (8).
    """
    root = TNode("join_root", lcls=[12])
    person = root.add_child(
        TNode("person", nid=NodeId(0, 10, 40, 2), lcls=[2])
    )
    person.add_child(TNode("name", "Ann", nid=NodeId(0, 11, 12, 3)))
    profile = person.add_child(
        TNode("profile", nid=NodeId(0, 13, 30, 3), lcls=[4])
    )
    for k in range(3):
        profile.add_child(
            TNode(
                "interest", k, nid=NodeId(0, 14 + 2 * k, 15 + 2 * k, 4),
                lcls=[5],
            )
        )
    for _ in range(items):
        root.add_child(TNode("it", lcls=[8]))
    return XTree(root)


def prime(tree: XTree, inclusive: bool = False) -> XTree:
    """Build the cached LC index the way an upstream operator would."""
    tree.class_nodes(2)
    if inclusive:
        tree.class_nodes(2, include_shadowed=True)
    return tree


# ----------------------------------------------------------------------
# Aggregate
# ----------------------------------------------------------------------
class TestAggregate:
    def test_x11_shape_costs_two_nodes(self, tiny_db):
        tree = prime(x11_tree())
        before = snapshot(tree)
        (out,) = run(
            AggregateOp("count", 8, 11, Const(TreeSequence([tree]))),
            tiny_db,
        )
        assert snapshot(tree) == before
        fresh = fresh_nodes(out, tree)
        assert len(fresh) == 2  # the root's copy and the count node
        assert out.root is not tree.root
        count = out.root.children[-1]
        assert (count.tag, count.value, count.lcls) == ("count", 120, {11})
        assert len(out.root.children) == len(tree.root.children) + 1
        assert all(
            mine is theirs
            for mine, theirs in zip(out.root.children, tree.root.children)
        )

    def test_deep_host_costs_its_path(self, tiny_db):
        tree = prime(x11_tree())
        before = snapshot(tree)
        (out,) = run(
            AggregateOp("sum", 5, 11, Const(TreeSequence([tree]))), tiny_db
        )
        assert snapshot(tree) == before
        # join_root, person, profile + the sum node
        assert len(fresh_nodes(out, tree)) == 4
        person = out.root.children[0]
        profile = person.children[1]
        assert profile.children[-1].value == 3.0
        assert person.children[0] is tree.root.children[0].children[0]
        assert all(
            mine is theirs
            for mine, theirs in zip(
                profile.children, tree.root.children[0].children[1].children
            )
        )
        assert out.root.children[1:] == tree.root.children[1:]
        assert all(
            mine is theirs
            for mine, theirs in zip(
                out.root.children[1:], tree.root.children[1:]
            )
        )

    def test_empty_class_hosts_on_the_root(self, tiny_db):
        tree = prime(x11_tree(items=0))
        (out,) = run(
            AggregateOp("count", 8, 11, Const(TreeSequence([tree]))),
            tiny_db,
        )
        assert len(fresh_nodes(out, tree)) == 2
        assert out.root.children[-1].value == 0

    @pytest.mark.parametrize("inclusive", [False, True])
    def test_derived_index_equals_scratch(self, tiny_db, inclusive):
        tree = x11_tree()
        tree.root.children[5].shadowed = True
        prime(tree, inclusive)
        (out,) = run(
            AggregateOp("count", 8, 11, Const(TreeSequence([tree]))),
            tiny_db,
        )
        assert out._lc_index is not None  # derived, not left to a rebuild
        assert (out._lc_index_shadowed is not None) == inclusive
        assert out._saw_shadowed is True
        assert_cached_state_exact(out)
        assert out.root.children[-1].value == 119  # the hidden one is out
        assert out.class_nodes(11) == [out.root.children[-1]]
        assert out.class_nodes(12) == [out.root]

    def test_unindexed_input_stays_lazy(self, tiny_db):
        tree = x11_tree()
        (out,) = run(
            AggregateOp("count", 8, 11, Const(TreeSequence([tree]))),
            tiny_db,
        )
        # class_nodes(8) built the input's index on the way
        assert_cached_state_exact(out)
        assert len(out.class_nodes(8)) == 120


# ----------------------------------------------------------------------
# Project: the index by the path-copy rule
# ----------------------------------------------------------------------
class TestProjectIndex:
    def project(self, db, tree, keep=(2, 8, 12)):
        (out,) = run(ProjectOp(list(keep), Const(TreeSequence([tree]))), db)
        return out

    def test_kept_constructed_class_shares_the_input_list(self, tiny_db):
        tree = prime(x11_tree())
        out = self.project(tiny_db, tree)
        assert out._lc_index is not None
        assert_cached_state_exact(out)
        # the 120 <it/> children were kept whole, never visited
        assert out._lc_index[8] is tree._lc_index[8]
        assert set(out._lc_index) == {2, 8, 12}

    def test_copies_only_is_recorded_without_an_input_index(self, tiny_db):
        tree = x11_tree(items=0)
        out = self.project(tiny_db, tree, keep=(2, 5))
        assert out._lc_index is not None and out._saw_shadowed is False
        assert_cached_state_exact(out)
        assert [n.value for n in out.class_nodes(5)] == [0, 1, 2]

    def test_connector_root_comes_first(self, tiny_db):
        tree = x11_tree(items=0)
        # class 7 marks the root and the interests, which alone are kept
        tree.root.lcls.add(7)
        for interest in tree.root.children[0].children[1].children:
            interest.lcls.add(7)
        out = self.project(tiny_db, tree, keep=(5,))
        assert out.root.tag == "join_root"  # three interests: a forest
        assert_cached_state_exact(out)
        assert out.class_nodes(7)[0] is out.root
        assert len(out.class_nodes(7)) == 4

    def test_class_mixing_copies_and_kept_subtrees_stays_lazy(self, tiny_db):
        tree = x11_tree(items=2)
        inner = TNode("person", nid=NodeId(0, 50, 51, 3), lcls=[2])
        tree.root.children[1].add_child(inner)  # inside a kept <it/>
        prime(tree)
        out = self.project(tiny_db, tree)
        assert out._lc_index is None
        assert len(out.class_nodes(2)) == 2

    @pytest.mark.parametrize("hidden_kept", [False, True])
    def test_shadow_knowledge(self, tiny_db, hidden_kept):
        tree = x11_tree(items=3)
        person = tree.root.children[0]
        if hidden_kept:
            person.children[0].shadowed = True  # name: kept under person
        else:
            person.children[1].children[0].shadowed = True  # dropped
        prime(tree)
        out = self.project(tiny_db, tree)
        assert_cached_state_exact(out)
        assert out._saw_shadowed is (True if hidden_kept else None)


# ----------------------------------------------------------------------
# Flatten / Shadow
# ----------------------------------------------------------------------
def cluster_tree(members: int, stray: bool = False) -> XTree:
    """top(9) -> [side, P(1) -> [lead, C(2) x members (each with a leaf)]]."""
    top = TNode("top", lcls=[9])
    top.add_child(TNode("side", "s"))
    parent = top.add_child(TNode("P", lcls=[1]))
    parent.add_child(TNode("lead", "l"))
    for k in range(members):
        member = parent.add_child(TNode("C", k, lcls=[2]))
        member.add_child(TNode("leaf", k))
    if stray:
        parent.children[-1].add_child(TNode("C", "grandchild", lcls=[2]))
    return XTree(top)


@pytest.mark.parametrize("op_cls", [FlattenOp, ShadowOp])
class TestClusterOperators:
    def test_input_untouched_and_outputs_share(self, tiny_db, op_cls):
        tree = prime(cluster_tree(5))
        before = snapshot(tree)
        parent = tree.root.children[1]
        out = run(op_cls(1, 2, Const(TreeSequence([tree]))), tiny_db)
        assert snapshot(tree) == before
        assert len(out) == 5
        for position, result in enumerate(out):
            kept = parent.children[1 + position]
            assert result.root.children[0] is tree.root.children[0]
            copy = result.root.children[1]
            assert copy is not parent and copy.lcls == {1}
            assert copy.children[0] is parent.children[0]
            assert [n for n in copy.children if n is kept] == [kept]
            assert result.nodes_in_class(2) == [kept]
            assert_cached_state_exact(result)

    def test_fresh_nodes_per_output(self, tiny_db, op_cls):
        tree = prime(cluster_tree(5))
        out = run(op_cls(1, 2, Const(TreeSequence([tree]))), tiny_db)
        hidden = 4 if op_cls is ShadowOp else 0
        for result in out:
            # top and P are copied; Shadow adds a twin per hidden member
            assert len(fresh_nodes(result, tree)) == 2 + hidden
        everything = {
            id(node) for result in out for node in fresh_nodes(result, tree)
        }
        # ... and the twins are shared between the outputs of one input
        assert len(everything) == 5 * 2 + (5 if op_cls is ShadowOp else 0)

    def test_big_cluster_validates_membership(self, tiny_db, op_cls):
        good = cluster_tree(320)
        assert len(run(op_cls(1, 2, Const(TreeSequence([good]))), tiny_db)) \
            == 320
        bad = cluster_tree(320, stray=True)
        with pytest.raises(AlgebraError):
            run(op_cls(1, 2, Const(TreeSequence([bad]))), tiny_db)

    def test_members_already_hidden_are_left_alone(self, tiny_db, op_cls):
        """Only *visible* members of C take a turn; a member an earlier
        Shadow hid is invisible to the operator and rides along."""
        tree = cluster_tree(3)
        parent = tree.root.children[1]
        parent.children[1].shadowed = True
        before = snapshot(tree)
        out = run(op_cls(1, 2, Const(TreeSequence([tree]))), tiny_db)
        assert snapshot(tree) == before
        assert [t.nodes_in_class(2)[0].value for t in out] == [1, 2]
        for result in out:
            first = result.root.children[1].children[1]
            assert first is parent.children[1] and first.shadowed


class TestShadowTwins:
    def test_hidden_members_keep_their_subtrees_by_identity(self, tiny_db):
        tree = cluster_tree(3)
        parent = tree.root.children[1]
        out = run(ShadowOp(1, 2, Const(TreeSequence([tree]))), tiny_db)
        for position, result in enumerate(out):
            for k, child in enumerate(result.root.children[1].children[1:]):
                original = parent.children[1 + k]
                if k == position:
                    assert child is original and not child.shadowed
                else:
                    assert child is not original and child.shadowed
                    assert child.children[0] is original.children[0]
                    assert child.lcls == {2} and child.nid == original.nid


# ----------------------------------------------------------------------
# Illuminate
# ----------------------------------------------------------------------
class TestIlluminate:
    def shadowed(self, db) -> TreeSequence:
        return run(
            ShadowOp(1, 2, Const(TreeSequence([cluster_tree(4)]))), db
        )

    def test_input_untouched_and_paths_copied(self, tiny_db):
        trees = self.shadowed(tiny_db)
        before = [snapshot(tree) for tree in trees]
        out = run(IlluminateOp(2, Const(trees)), tiny_db)
        assert [snapshot(tree) for tree in trees] == before
        for source, result in zip(trees, out):
            assert len(result.nodes_in_class(2)) == 4
            assert len(source.nodes_in_class(2)) == 1
            # top, P and the three hidden members
            assert len(fresh_nodes(result, source)) == 5
            assert result.root.children[0] is source.root.children[0]
            for mine, theirs in zip(
                result.root.children[1].children[1:],
                source.root.children[1].children[1:],
            ):
                assert (mine is theirs) == (not theirs.shadowed)
                assert mine.children[0] is theirs.children[0]
            assert_cached_state_exact(result)

    def test_nothing_to_illuminate_passes_the_tree_through(self, tiny_db):
        tree = cluster_tree(3)
        (out,) = run(IlluminateOp(2, Const(TreeSequence([tree]))), tiny_db)
        assert out is tree

    def test_other_classes_stay_hidden(self, tiny_db):
        trees = self.shadowed(tiny_db)
        out = run(IlluminateOp(7, Const(trees)), tiny_db)
        assert all(mine is theirs for mine, theirs in zip(out, trees))


# ----------------------------------------------------------------------
# extension Select
# ----------------------------------------------------------------------
class TestExtensionSelect:
    def witnesses(self, db) -> TreeSequence:
        root = pattern_node("doc_root", 1)
        auction = pattern_node("open_auction", 2)
        root.add_edge(auction, "ad", "-")
        auction.add_edge(pattern_node("bidder", 3), "pc", "*")
        auction.add_edge(pattern_node("reserve", 4), "pc", "?")
        return Context(db).matcher.match(APT(root, "auction.xml"))

    def extension(self, lc_ref: int) -> APT:
        ext = pattern_node(None, 0, lc_ref=lc_ref)
        ext.add_edge(pattern_node("initial", 21), "pc", "*")
        ext.add_edge(pattern_node("quantity", 22), "pc", "*")
        return APT(ext)

    def test_input_untouched_and_subtrees_shared(self, tiny_db):
        trees = self.witnesses(tiny_db)
        for tree in trees:
            prime(tree)
        before = [snapshot(tree) for tree in trees]
        out = Context(tiny_db).matcher.extend(self.extension(2), trees)
        assert [snapshot(tree) for tree in trees] == before
        assert len(out) == len(trees) == 3
        for source, result in zip(trees, out):
            anchor = source.root.children[0]
            copy = result.root.children[0]
            added = copy.children[len(anchor.children):]
            assert [n.tag for n in added] == ["initial", "quantity"]
            # doc_root and open_auction copied, two leaves attached
            assert len(fresh_nodes(result, source)) == 2 + 2
            assert all(
                mine is theirs
                for mine, theirs in zip(copy.children, anchor.children)
            )
            assert result._lc_index is not None
            assert_cached_state_exact(result)

    def test_tree_without_an_anchor_passes_through(self, tiny_db):
        trees = self.witnesses(tiny_db)
        out = Context(tiny_db).matcher.extend(self.extension(4), trees)
        assert len(out) == 3
        for source, result in zip(trees, out):
            if source.nodes_in_class(4):
                assert result is not source
            else:
                assert result is source


# ----------------------------------------------------------------------
# one memoised sub-plan, two consumers
# ----------------------------------------------------------------------
class Both(Operator):
    """Evaluates two inputs and remembers what each produced."""

    name = "Both"

    def execute(self, ctx, inputs):
        self.seen = inputs
        return inputs[0]


class TestMemoisedFanOut:
    def test_aggregate_and_project_over_one_shared_result(self, tiny_db):
        def source():
            return TreeSequence([x11_tree(100), x11_tree(7), x11_tree(0)])

        shared = Const(source())
        top = Both(
            [
                AggregateOp("count", 8, 11, shared),
                ProjectOp([2, 8, 11, 12], shared),
            ]
        )
        before = [snapshot(tree) for tree in shared.sequence]
        run(top, tiny_db)
        assert [snapshot(tree) for tree in shared.sequence] == before
        counted, projected = top.seen

        # reference: each consumer alone, on its own deep clone
        def alone(build):
            clones = TreeSequence([tree.clone() for tree in source()])
            return run(build(Const(clones)), tiny_db)

        ref_counted = alone(lambda leaf: AggregateOp("count", 8, 11, leaf))
        ref_projected = alone(lambda leaf: ProjectOp([2, 8, 11, 12], leaf))
        assert [t.canonical() for t in counted] == [
            t.canonical() for t in ref_counted
        ]
        assert [t.canonical() for t in projected] == [
            t.canonical() for t in ref_projected
        ]
        assert [t.nodes_in_class(11)[0].value for t in counted] == [100, 7, 0]
        # the count node never leaked into the sibling consumer's input
        assert all(not t.nodes_in_class(11) for t in projected)
