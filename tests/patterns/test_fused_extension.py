"""One k-edge extension Select ≡ a chain of k single-edge ones.

The translator emits one extension Select per run of RETURN paths over a
bound class, its root carrying one edge per path.  That is only a plan
change if the matcher enumerates a multi-edge root the way the chain
did — same witness trees, same order ("later edges vary fastest"), same
columns on the batch path.  Every case below builds both plans by hand
and compares them node for node.
"""

import pytest

from repro.columns.batch import ColumnBatch, use_batch
from repro.core import ConstructOp, Context, SelectOp, evaluate
from repro.core.construct import CClassRef, CElement
from repro.model import TNode, TreeSequence, XTree
from repro.patterns import APT, PatternMatcher, pattern_node
from tests.conftest import Const


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
def leaf_apt() -> APT:
    """doc_root(1) // open_auction(2) with reserve(3) under ``?``."""
    root = pattern_node("doc_root", 1)
    auction = pattern_node("open_auction", 2)
    root.add_edge(auction, "ad", "-")
    auction.add_edge(pattern_node("reserve", 3), "pc", "?")
    return APT(root, "auction.xml")


def edge(tag, lcl, mspec, axis="pc", below=None):
    """``(node, axis, mspec)`` with an optional ``-`` sub-edge."""
    node = pattern_node(tag, lcl)
    if below is not None:
        node.add_edge(pattern_node(*below), "pc", "-")
    return node, axis, mspec


def fused(lc_ref, edges) -> APT:
    root = pattern_node(None, 0, lc_ref=lc_ref)
    for node, axis, mspec in edges:
        root.add_edge(node.clone(), axis, mspec)
    return APT(root)


def chain(lc_ref, edges):
    return [fused(lc_ref, [one]) for one in edges]


def describe(tree: XTree):
    """Structure, ids, flags and class membership of every node."""

    def node(n: TNode):
        return (
            n.tag, n.value, n.nid, tuple(sorted(n.lcls)), n.shadowed,
            tuple(node(c) for c in n.children),
        )

    return node(tree.root)


def class_lists(tree: XTree, lcls):
    return {
        lcl: [(n.tag, n.nid) for n in tree.nodes_in_class(lcl)]
        for lcl in lcls
    }


def columns(batch: ColumnBatch):
    return tuple(
        list(column)
        for column in (
            batch.offsets, batch.tags, batch.values, batch.nids,
            [int(label) for label in batch.labels],
            [int(parent) for parent in batch.parents],
        )
    )


def both_ways(db, lc_ref, edges):
    """Per-tree and columnar results of the chain and of the fused form."""
    matcher = PatternMatcher(db)
    trees = matcher.match(leaf_apt())
    chained = trees
    for apt in chain(lc_ref, edges):
        chained = matcher.extend(apt, chained)
    one = matcher.extend(fused(lc_ref, edges), trees)

    batch = matcher.match_batch(leaf_apt())
    chained_batch = batch
    for apt in chain(lc_ref, edges):
        chained_batch = matcher.extend_batch(apt, chained_batch)
        assert chained_batch is not None
    one_batch = matcher.extend_batch(fused(lc_ref, edges), batch)
    assert one_batch is not None
    return chained, one, chained_batch, one_batch


def assert_same(db, lc_ref, edges, expect_rows):
    chained, one, chained_batch, one_batch = both_ways(db, lc_ref, edges)
    lcls = [1, 2, 3] + [
        n.lcl for root, _, _ in edges for n in root.walk()
    ]
    assert len(one) == expect_rows
    assert [describe(t) for t in one] == [describe(t) for t in chained]
    assert [class_lists(t, lcls) for t in one] == [
        class_lists(t, lcls) for t in chained
    ]
    assert columns(one_batch) == columns(chained_batch)
    # and the two currencies agree with each other
    assert [describe(t) for t in one_batch.materialize()] == [
        describe(t) for t in one
    ]


# ----------------------------------------------------------------------
# stored anchors: per-tree grafts and batch splices
# ----------------------------------------------------------------------
class TestStoredAnchors:
    def test_optional_edges_keep_every_row(self, tiny_db):
        assert_same(
            tiny_db, 2,
            [
                edge("initial", 21, "*"),
                edge("bidder", 22, "*"),
                edge("reserve", 23, "?"),
                edge("quantity", 24, "*"),
            ],
            expect_rows=3,
        )

    def test_a_mandatory_edge_drops_rows(self, tiny_db):
        # only a2 has a reserve; the '-' sits between two optional edges
        assert_same(
            tiny_db, 2,
            [
                edge("initial", 21, "*"),
                edge("reserve", 22, "-"),
                edge("quantity", 23, "*"),
            ],
            expect_rows=1,
        )

    def test_several_alternatives_per_edge(self, tiny_db):
        # a1: 3 bidders x 3 increases (ad) = 9 variants, a2: 1, a3: dropped;
        # the chain enumerates edge 1 outermost — so must the product
        assert_same(
            tiny_db, 2,
            [
                edge("bidder", 21, "-"),
                edge("increase", 22, "-", axis="ad"),
                edge("quantity", 23, "*"),
            ],
            expect_rows=10,
        )

    def test_nested_members_with_their_own_alternatives(self, tiny_db):
        # '+' clusters whose members carry a '-' sub-edge
        assert_same(
            tiny_db, 2,
            [
                edge("bidder", 21, "+", below=("increase", 31)),
                edge("bidder", 22, "*", below=("personref", 32)),
            ],
            expect_rows=2,
        )

    def test_anchorless_rows(self, tiny_db):
        # class 3 (reserve) is empty for a1 and a3: optional edges pass
        # those rows through, a mandatory edge drops them
        assert_same(
            tiny_db, 3,
            [edge("nothing", 21, "*"), edge("nowhere", 22, "?")],
            expect_rows=3,
        )
        assert_same(
            tiny_db, 3,
            [edge("nothing", 21, "*"), edge("nowhere", 22, "-")],
            expect_rows=0,
        )

    def test_one_pattern_match_instead_of_k(self, tiny_db):
        matcher = PatternMatcher(tiny_db)
        trees = matcher.match(leaf_apt())
        edges = [edge("initial", 21, "*"), edge("quantity", 22, "*")]
        tiny_db.reset_metrics()
        matcher.extend(fused(2, edges), trees)
        assert tiny_db.metrics.pattern_matches == 1
        joins = tiny_db.metrics.structural_joins
        tiny_db.reset_metrics()
        chained = trees
        for apt in chain(2, edges):
            chained = matcher.extend(apt, chained)
        assert tiny_db.metrics.pattern_matches == 2
        assert tiny_db.metrics.structural_joins == joins  # one per edge


# ----------------------------------------------------------------------
# temporary anchors: in-memory matching, per-tree fallback
# ----------------------------------------------------------------------
class TestTemporaryAnchors:
    EDGES = [
        edge("bidder", 21, "-", axis="ad"),
        edge("increase", 22, "*", axis="ad"),
        edge("open_auction", 23, "?"),
    ]

    def constructed(self, db):
        """<box>{open_auction}</box> per auction: a temporary anchor (40)."""
        root = pattern_node("doc_root", 1)
        root.add_edge(pattern_node("open_auction", 2), "ad", "-")
        spec = CElement("box", 40)
        spec.children.append(CClassRef(2))
        plan = ConstructOp(spec, SelectOp(APT(root, "auction.xml")))
        return evaluate(plan, Context(db))

    def run_plans(self, db, source):
        chained_plan = Const(source)
        for apt in chain(40, self.EDGES):
            chained_plan = SelectOp(apt, chained_plan)
        return (
            evaluate(chained_plan, Context(db)),
            evaluate(SelectOp(fused(40, self.EDGES), Const(source)),
                     Context(db)),
        )

    @pytest.mark.parametrize("batch", [False, True])
    def test_chain_equals_fused(self, tiny_db, batch):
        source = self.constructed(tiny_db)
        assert len(source) == 3
        with use_batch(batch):
            chained, one = self.run_plans(tiny_db, source)
        # a1: 3 bidders, a2: 1, a3 has none and the '-' drops it
        assert len(one) == 4
        assert [describe(t) for t in one] == [describe(t) for t in chained]
        marked = one[0].nodes_in_class(22)
        assert [n.tag for n in marked] == ["increase"] * 3
        # in-memory matches mark existing nodes: no node was added
        assert len(list(one[0].root.walk())) == len(
            list(source[0].root.walk())
        )

    def test_batch_extension_declines_temporary_anchors(self, tiny_db):
        """The columnar splice needs stored anchors: ``None`` = fall back."""
        box = TNode("box", lcls=[40])
        box.add_child(TNode("bidder", "b"))
        batch = ColumnBatch(
            [0, 2],
            ["box", "bidder"],
            [None, "b"],
            [box.nid, box.children[0].nid],
            [40, 0],
            [-1, 0],
        )
        matcher = PatternMatcher(tiny_db)
        assert matcher.extend_batch(fused(40, self.EDGES), batch) is None
        for apt in chain(40, self.EDGES):
            assert matcher.extend_batch(apt, batch) is None

    def test_the_constructed_input_is_not_written_to(self, tiny_db):
        source = self.constructed(tiny_db)
        before = [describe(t) for t in source]
        self.run_plans(tiny_db, TreeSequence(source))
        assert [describe(t) for t in source] == before
