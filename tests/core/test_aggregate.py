"""Unit tests for the Aggregate-Function operator."""

import pytest

from repro.columns.batch import ColumnBatch, as_tree_sequence
from repro.core import (
    AggregateOp,
    ConstructOp,
    Context,
    JoinOp,
    SelectOp,
    evaluate,
)
from repro.core.construct import CClassRef, CElement
from repro.errors import AlgebraError
from repro.model import TNode, XTree
from repro.model.node_id import NodeId
from repro.patterns import APT, pattern_node
from tests.conftest import assert_cached_state_exact


def auction_with_increases() -> SelectOp:
    root = pattern_node("doc_root", 1)
    auction = pattern_node("open_auction", 2)
    increase = pattern_node("increase", 3)
    root.add_edge(auction, "ad", "-")
    auction.add_edge(increase, "ad", "*")
    return SelectOp(APT(root, "auction.xml"))


def run(tiny_db, fname):
    plan = AggregateOp(fname, 3, 11, auction_with_increases())
    return evaluate(plan, Context(tiny_db))


class TestFunctions:
    def test_count(self, tiny_db):
        result = run(tiny_db, "count")
        counts = sorted(t.nodes_in_class(11)[0].value for t in result)
        assert counts == [0, 1, 3]

    def test_sum(self, tiny_db):
        result = run(tiny_db, "sum")
        values = [t.nodes_in_class(11)[0].value for t in result]
        assert sorted(v for v in values if v != "empty") == [1.0, 35.0]
        assert values.count("empty") == 1

    def test_avg_min_max(self, tiny_db):
        by_count = {
            len(t.nodes_in_class(3)): t
            for t in run(tiny_db, "avg")
        }
        a1 = by_count[3]
        assert a1.nodes_in_class(11)[0].value == pytest.approx(35 / 3)
        a1_min = {
            len(t.nodes_in_class(3)): t for t in run(tiny_db, "min")
        }[3]
        assert a1_min.nodes_in_class(11)[0].value == 3.0
        a1_max = {
            len(t.nodes_in_class(3)): t for t in run(tiny_db, "max")
        }[3]
        assert a1_max.nodes_in_class(11)[0].value == 25.0

    def test_unknown_function_rejected(self):
        with pytest.raises(AlgebraError):
            AggregateOp("median", 1, 2)


class TestPlacement:
    def test_result_is_sibling_of_class_nodes(self, tiny_db):
        result = run(tiny_db, "count")
        nested = [t for t in result if t.nodes_in_class(3)]
        for tree in nested:
            parents = tree.root.parent_map()
            member_parent = parents.get(id(tree.nodes_in_class(3)[0]))
            agg_parent = parents.get(id(tree.nodes_in_class(11)[0]))
            # the root itself hosts both in these witness trees
            assert member_parent is agg_parent

    def test_empty_class_count_is_zero_under_root(self, tiny_db):
        """Paper: an empty class yields 0 (count) on the tree root."""
        result = run(tiny_db, "count")
        empty = [t for t in result if not t.nodes_in_class(3)]
        assert len(empty) == 1
        node = empty[0].nodes_in_class(11)[0]
        assert node.value == 0
        assert any(c is node for c in empty[0].root.children)

    def test_empty_class_other_functions_flag_empty(self, tiny_db):
        result = run(tiny_db, "max")
        empty = [
            t for t in result
            if t.nodes_in_class(11)[0].value == "empty"
        ]
        assert len(empty) == 1

    def test_input_not_mutated(self, tiny_db):
        ctx = Context(tiny_db)
        select = auction_with_increases()
        base = evaluate(select, ctx)
        before = [t.canonical() for t in base]
        evaluate(AggregateOp("count", 3, 11, select), ctx)
        assert [t.canonical() for t in base] == before

    def test_node_tagged_with_function_name(self, tiny_db):
        result = run(tiny_db, "count")
        assert result[0].nodes_in_class(11)[0].tag == "count"

    def test_no_data_access(self, tiny_db):
        """Aggregation runs on witness trees: no storage I/O."""
        ctx = Context(tiny_db)
        select = auction_with_increases()
        evaluate(select, ctx)
        tiny_db.reset_metrics()
        evaluate(AggregateOp("count", 3, 11, select), Context(tiny_db))
        # evaluation re-runs the select (fresh context) so tolerate that;
        # instead check aggregate-only work via a shared context
        ctx2 = Context(tiny_db)
        base = evaluate(select, ctx2)
        tiny_db.reset_metrics()
        AggregateOp("count", 3, 11).execute(ctx2, [base])
        assert tiny_db.metrics.nodes_touched == 0
        assert tiny_db.metrics.pages_read == 0


class TestUnlabelledResult:
    """``new_lcl == 0`` means "no class", not "class 0"."""

    def test_zero_label_marks_nothing(self, tiny_db):
        ctx = Context(tiny_db)
        base = evaluate(auction_with_increases(), ctx)
        op = AggregateOp("count", 3, 0)
        assert op.lc_produced() == set()
        for tree in op.execute(ctx, [base]):
            (node,) = tree.root.find(lambda n: n.tag == "count")
            assert node.lcls == set()
            assert tree.nodes_in_class(0) == []
            assert 0 not in (tree._lc_index or {})

    def test_batch_and_tree_paths_agree(self, tiny_db):
        plan = AggregateOp("count", 3, 0, auction_with_increases())
        result = evaluate(plan, Context(tiny_db))
        nodes = [
            t.root.find(lambda n: n.tag == "count")[0] for t in result
        ]
        assert sorted(n.value for n in nodes) == [0, 1, 3]
        assert all(not n.lcls for n in nodes)


# ----------------------------------------------------------------------
# the index count vs the Select(extend) + fold it replaces
# ----------------------------------------------------------------------
def leaf_select(root):
    return SelectOp(APT(root, "auction.xml"))


def auctions_at_root():
    return leaf_select(pattern_node("open_auction", 2))


def auctions_under_doc_root():
    root = pattern_node("doc_root", 1)
    root.add_edge(pattern_node("open_auction", 2), "ad", "-")
    return leaf_select(root)


def auctions_under_join_root():
    return JoinOp(
        leaf_select(pattern_node("person", 5)),
        auctions_at_root(),
        root_lcl=7,
    )


def all_auctions_in_one_row():
    root = pattern_node("doc_root", 1)
    root.add_edge(pattern_node("open_auction", 2), "ad", "*")
    return leaf_select(root)


def constructed_anchors():
    """Anchors of class 2 are temporary ``<t>`` nodes holding copies of
    each auction's bidders (in-memory matching below them)."""
    root = pattern_node("open_auction", 8)
    root.add_edge(pattern_node("bidder", 9), "pc", "*")
    return ConstructOp(
        CElement("t", lcl=2, children=[CClassRef(9)]), leaf_select(root)
    )


#: input plan, and whether every row suits an index count
INPUTS = {
    "root anchors": (auctions_at_root, True),
    "under doc_root": (auctions_under_doc_root, True),
    "under a join root": (auctions_under_join_root, True),
    "two anchors in a row": (all_auctions_in_one_row, False),
    "temporary anchors": (constructed_anchors, False),
}


def counted_pattern(name):
    """One ``*`` edge from class 2 to a leaf of class 30."""
    root = pattern_node(None, 0, lc_ref=2)
    leaf = {
        "pc": pattern_node("bidder", 30),
        "ad": pattern_node("increase", 30),
        "value test": pattern_node("increase", 30, ((">", 5),)),
    }[name]
    root.add_edge(leaf, "pc" if name == "pc" else "ad", "*")
    return APT(root)


def as_batch(trees):
    """The same trees as a ColumnBatch (pre-order rows, one label)."""
    offsets = [0]
    columns = ([], [], [], [], [])

    def visit(node, parent, base):
        rel = len(columns[0]) - base
        (label,) = node.lcls or {0}
        for column, item in zip(
            columns, (node.tag, node.value, node.nid, label, parent)
        ):
            column.append(item)
        for child in node.children:
            visit(child, rel, base)

    for tree in trees:
        visit(tree.root, -1, offsets[-1])
        offsets.append(len(columns[0]))
    return ColumnBatch(offsets, *columns)


def without_class(tree, lcl):
    """A copy of ``tree`` without the nodes of class ``lcl``."""

    def copy(node):
        twin = TNode(node.tag, node.value, node.nid, node.lcls)
        twin.children = [
            copy(child) for child in node.children if lcl not in child.lcls
        ]
        return twin

    return XTree(copy(tree.root))


def observed(trees):
    """Serialised trees and each class's members, in index order (only
    stored ids compare: a temporary one is fresh per execution)."""

    def ident(node):
        return node.nid if isinstance(node.nid, NodeId) else "temporary"

    out = []
    for tree in trees:
        labels = sorted({lcl for n in tree.root.walk() for lcl in n.lcls})
        out.append((
            tree.to_xml(),
            {
                lcl: [
                    (n.tag, ident(n), n.value) for n in tree.class_nodes(lcl)
                ]
                for lcl in labels
            },
        ))
    return out


WORK = ("pattern_matches", "structural_joins", "nest_joins")


def executed(tiny_db, op, payload, batched):
    """One execution's output, and the WORK counters it moved."""
    tiny_db.reset_metrics()
    ctx = Context(tiny_db)
    out = (
        op.execute_batch(ctx, [payload]) if batched
        else op.execute(ctx, [payload])
    )
    return out, [getattr(tiny_db.metrics, name) for name in WORK]


@pytest.mark.parametrize("batched", [True, False], ids=["batch", "trees"])
@pytest.mark.parametrize("edge", ["pc", "ad", "value test"])
@pytest.mark.parametrize("shape", sorted(INPUTS))
def test_index_count_matches_select_and_fold(tiny_db, shape, edge, batched):
    plan, countable = INPUTS[shape]
    trees = evaluate(plan(), Context(tiny_db))
    payload = as_batch(trees) if batched else trees
    pattern = counted_pattern(edge)
    extended, select_work = executed(
        tiny_db, SelectOp(pattern), payload, batched
    )
    reference, fold_work = executed(
        tiny_db, AggregateOp("count", 30, 31), extended, batched
    )
    result, work = executed(
        tiny_db, AggregateOp("count", 30, 31, pattern=pattern), payload,
        batched,
    )
    # metered as the extension it replaces (the fold meters none)
    assert work == [s + f for s, f in zip(select_work, fold_work)]
    reference = as_tree_sequence(reference)
    result = as_tree_sequence(result)
    if countable:
        # the counted class is never built; everything else is identical
        assert not any(tree.class_nodes(30) for tree in result)
        reference = [without_class(tree, 30) for tree in reference]
    assert observed(result) == observed(reference)
    if not batched:
        for tree in result:
            assert_cached_state_exact(tree)


def test_index_count_reads_no_record(tiny_db):
    trees = evaluate(auctions_under_doc_root(), Context(tiny_db))
    tiny_db.reset_metrics(cold_cache=True)
    op = AggregateOp("count", 30, 31, pattern=counted_pattern("ad"))
    result = op.execute_batch(Context(tiny_db), [as_batch(trees)])
    counts = sorted(
        result.values[j]
        for row in range(len(result))
        for j in result.class_positions(row, 31)
    )
    assert counts == [0, 1, 3]
    assert tiny_db.metrics.nodes_touched == 0
    assert tiny_db.metrics.index_lookups == 1


def test_index_count_rejects_other_shapes():
    two_steps = pattern_node(None, 0, lc_ref=2)
    middle = pattern_node("bidder", 29)
    two_steps.add_edge(middle, "pc", "*")
    middle.add_edge(pattern_node("increase", 30), "pc", "*")
    for fname, lcl, apt in (
        ("sum", 30, counted_pattern("pc")),
        ("count", 29, counted_pattern("pc")),
        ("count", 30, APT(two_steps)),
    ):
        with pytest.raises(AlgebraError):
            AggregateOp(fname, lcl, 31, pattern=apt)
