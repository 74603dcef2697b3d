"""Unit tests for the Aggregate-Function operator."""

import pytest

from repro.core import AggregateOp, Context, SelectOp, evaluate
from repro.errors import AlgebraError
from repro.patterns import APT, pattern_node


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
