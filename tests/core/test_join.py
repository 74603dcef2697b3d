"""Unit tests for the Join operator (value joins, nest variants, order)."""

import pytest

from repro.core import (
    AggregateOp,
    ConstructOp,
    Context,
    JoinOp,
    JoinPredicate,
    ProjectOp,
    SelectOp,
    evaluate,
)
from repro.core.construct import CClassRef, CElement
from repro.errors import AlgebraError, CardinalityError
from repro.patterns import APT, pattern_node
from tests.conftest import assert_cached_state_exact


def person_select() -> SelectOp:
    root = pattern_node("doc_root", 1)
    person = pattern_node("person", 2)
    pid = pattern_node("@id", 3)
    root.add_edge(person, "ad", "-")
    person.add_edge(pid, "pc", "-")
    return SelectOp(APT(root, "auction.xml"))


def ref_select() -> SelectOp:
    root = pattern_node("doc_root", 4)
    auction = pattern_node("open_auction", 5)
    ref = pattern_node("@person", 6)
    root.add_edge(auction, "ad", "-")
    auction.add_edge(ref, "ad", "-")
    return SelectOp(APT(root, "auction.xml"))


class TestValueJoin:
    def test_basic_equi_join(self, tiny_db):
        plan = JoinOp(
            person_select(), ref_select(),
            [JoinPredicate(3, "=", 6)], root_lcl=9,
        )
        result = evaluate(plan, Context(tiny_db))
        # bidder refs: a1 -> p1, p3, p1; a2 -> p3  => 4 pairs
        assert len(result) == 4
        for tree in result:
            assert tree.root.tag == "join_root"
            assert 9 in tree.root.lcls
            assert len(tree.root.children) == 2

    def test_cartesian_join(self, tiny_db):
        plan = JoinOp(person_select(), ref_select(), [], root_lcl=9)
        result = evaluate(plan, Context(tiny_db))
        assert len(result) == 3 * 4

    def test_output_in_document_order(self, tiny_db):
        plan = JoinOp(
            person_select(), ref_select(),
            [JoinPredicate(3, "=", 6)], root_lcl=9,
        )
        result = evaluate(plan, Context(tiny_db))
        lefts = [t.root.children[0].nid.order_key for t in result]
        assert lefts == sorted(lefts)

    def test_join_root_temp_ids_ascend(self, tiny_db):
        """Property 4: fresh root ids ascend in output (document) order."""
        plan = JoinOp(
            person_select(), ref_select(),
            [JoinPredicate(3, "=", 6)], root_lcl=9,
        )
        result = evaluate(plan, Context(tiny_db))
        seqs = [t.root.nid.seq for t in result]
        assert seqs == sorted(seqs)

    def test_inputs_not_mutated(self, tiny_db):
        ctx = Context(tiny_db)
        left = person_select()
        left_result = evaluate(left, ctx)
        before = [t.canonical() for t in left_result]
        plan = JoinOp(left, ref_select(), [JoinPredicate(3, "=", 6)], 9)
        evaluate(plan, ctx)
        assert [t.canonical() for t in left_result] == before


class TestNestVariants:
    def test_star_nests_and_keeps(self, tiny_db):
        plan = JoinOp(
            person_select(), ref_select(),
            [JoinPredicate(3, "=", 6)], root_lcl=9, right_mspec="*",
        )
        result = evaluate(plan, Context(tiny_db))
        assert len(result) == 3  # one per person, Bob with no matches
        sizes = sorted(len(t.root.children) - 1 for t in result)
        assert sizes == [0, 2, 2]  # p1: a1×2 refs; p3: a1+a2; p2: none

    def test_plus_nests_and_drops(self, tiny_db):
        plan = JoinOp(
            person_select(), ref_select(),
            [JoinPredicate(3, "=", 6)], root_lcl=9, right_mspec="+",
        )
        result = evaluate(plan, Context(tiny_db))
        assert len(result) == 2  # Bob dropped

    def test_question_outer_pairs(self, tiny_db):
        plan = JoinOp(
            person_select(), ref_select(),
            [JoinPredicate(3, "=", 6)], root_lcl=9, right_mspec="?",
        )
        result = evaluate(plan, Context(tiny_db))
        assert len(result) == 5  # 4 pairs + Bob alone

    def test_invalid_mspec(self, tiny_db):
        with pytest.raises(AlgebraError):
            JoinOp(person_select(), ref_select(), [], 9, right_mspec="!")


class TestThetaAndContracts:
    def test_inequality_join(self, tiny_db):
        left = pattern_node("doc_root", 1)
        initial = pattern_node("initial", 2)
        left.add_edge(initial, "ad", "-")
        right = pattern_node("doc_root", 3)
        increase = pattern_node("increase", 4)
        right.add_edge(increase, "ad", "-")
        plan = JoinOp(
            SelectOp(APT(left, "auction.xml")),
            SelectOp(APT(right, "auction.xml")),
            [JoinPredicate(2, "<", 4)],
            root_lcl=9,
        )
        result = evaluate(plan, Context(tiny_db))
        # initials 10,100,50 vs increases 3,25,7,1: 10<25 only
        assert len(result) == 1

    def test_singleton_contract_enforced(self, tiny_db):
        root = pattern_node("doc_root", 1)
        auction = pattern_node("open_auction", 2)
        increase = pattern_node("increase", 3)
        root.add_edge(auction, "ad", "-")
        auction.add_edge(increase, "ad", "*")  # class 3 is a cluster
        bad_left = SelectOp(APT(root, "auction.xml"))
        plan = JoinOp(
            bad_left, ref_select(), [JoinPredicate(3, "=", 6)], 9
        )
        with pytest.raises(CardinalityError):
            evaluate(plan, Context(tiny_db))

    def test_multi_predicate_join(self, tiny_db):
        plan = JoinOp(
            person_select(), ref_select(),
            [JoinPredicate(3, "=", 6), JoinPredicate(3, "<=", 6)],
            root_lcl=9,
        )
        result = evaluate(plan, Context(tiny_db))
        assert len(result) == 4  # second predicate holds on equal values

    def test_second_predicate_filters(self, tiny_db):
        plan = JoinOp(
            person_select(), ref_select(),
            [JoinPredicate(3, "=", 6), JoinPredicate(3, "<", 6)],
            root_lcl=9,
        )
        result = evaluate(plan, Context(tiny_db))
        assert len(result) == 0

    def test_secondary_id_predicate_pairs_the_same_node(self, tiny_db):
        plan = JoinOp(
            person_select(), person_select(),
            [JoinPredicate(3, "=", 3), JoinPredicate(2, "=", 2, by_id=True)],
            root_lcl=9,
        )
        assert len(evaluate(plan, Context(tiny_db))) == 3

    def test_secondary_id_predicate_never_pairs_empty_classes(self, tiny_db):
        # classes 98 and 99 are empty in every tree; two empty classes
        # are not "the same node", so the four pairs the first predicate
        # finds all fail the second
        plan = JoinOp(
            person_select(), ref_select(),
            [
                JoinPredicate(3, "=", 6),
                JoinPredicate(98, "=", 99, by_id=True),
            ],
            root_lcl=9,
        )
        assert len(evaluate(plan, Context(tiny_db))) == 0
        nested = JoinOp(
            person_select(), ref_select(),
            [
                JoinPredicate(3, "=", 6),
                JoinPredicate(98, "=", 99, by_id=True),
            ],
            root_lcl=9, right_mspec="*",
        )
        result = evaluate(nested, Context(tiny_db))
        assert [len(t.root.children) for t in result] == [1, 1, 1]

    def test_none_join_values_never_match(self, tiny_db):
        # class 5 (the auction element) has no content: a predicate
        # against it pairs nothing, even under '='
        plan = JoinOp(
            person_select(), ref_select(),
            [JoinPredicate(3, "=", 5)], root_lcl=9,
        )
        result = evaluate(plan, Context(tiny_db))
        assert len(result) == 0


# ----------------------------------------------------------------------
# the count form: a nest join that emits each cluster's size
# ----------------------------------------------------------------------
def aged_person_select() -> SelectOp:
    """Persons (2) with their age (3) when they have one (Bob has none)."""
    root = pattern_node("doc_root", 1)
    person = pattern_node("person", 2)
    root.add_edge(person, "ad", "-")
    person.add_edge(pattern_node("age", 3), "ad", "?")
    return SelectOp(APT(root, "auction.xml"))


def initial_select() -> SelectOp:
    root = pattern_node("doc_root", 4)
    auction = pattern_node("open_auction", 5)
    root.add_edge(auction, "ad", "-")
    auction.add_edge(pattern_node("initial", 6), "pc", "-")
    return SelectOp(APT(root, "auction.xml"))


def tuples(select: SelectOp) -> ProjectOp:
    """A nested block's tuples: one tree per (auction, class 6) pair."""
    return ProjectOp([5, 6], select)


def items(tuples_op: ProjectOp) -> ConstructOp:
    """The items the tree form builds from them: one element each, with
    the correlation class riding hidden (Figure 8's Construct 8)."""
    ctree = CElement("tr", 30, children=[CClassRef(6, hidden=True)])
    return ConstructOp(ctree, tuples_op)


def counts(result):
    """(left node, count) per output tree, in output order."""
    return [
        (
            tree.class_nodes(2)[0].nid,
            [node.value for node in tree.class_nodes(20)],
        )
        for tree in result
    ]


COUNT_CASES = {
    "equal": (person_select, ref_select, [JoinPredicate(3, "=", 6)]),
    "greater": (person_select, ref_select, [JoinPredicate(3, ">", 6)]),
    "not-equal": (person_select, ref_select, [JoinPredicate(3, "!=", 6)]),
    "two-predicates": (
        person_select, ref_select,
        [JoinPredicate(3, ">=", 6), JoinPredicate(3, "!=", 6)],
    ),
    "no-matches": (person_select, ref_select, [JoinPredicate(3, "=", 5)]),
    "left-without-path": (
        aged_person_select, initial_select, [JoinPredicate(3, ">", 6)],
    ),
    "cartesian": (person_select, ref_select, []),
}


class TestCountForm:
    @pytest.mark.parametrize("mspec", ["*", "+"])
    @pytest.mark.parametrize("case", sorted(COUNT_CASES))
    def test_counts_what_the_aggregate_counts(self, tiny_db, case, mspec):
        left, right, preds = COUNT_CASES[case]
        counting = JoinOp(
            left(), tuples(right()), preds, root_lcl=9, right_mspec=mspec,
            count_lcl=20,
        )
        building = AggregateOp(
            "count", 30, 20,
            JoinOp(left(), items(tuples(right())), preds, 9, mspec),
        )
        counted = evaluate(counting, Context(tiny_db))
        assert counts(counted) == counts(evaluate(building, Context(tiny_db)))
        seqs = [tree.root.nid.seq for tree in counted]
        assert seqs == sorted(seqs)  # join roots in output order
        # the per-tree body over the same inputs
        per_tree = counting.execute(
            Context(tiny_db),
            [evaluate(op, Context(tiny_db)) for op in counting.inputs],
        )
        assert [t.to_xml() for t in per_tree] == [
            t.to_xml() for t in counted
        ]
        assert counts(per_tree) == counts(counted)
        for tree in per_tree:
            assert_cached_state_exact(tree)

    def test_empty_clusters_count_zero_or_drop(self, tiny_db):
        def plan(mspec):
            return JoinOp(
                aged_person_select(), tuples(initial_select()),
                [JoinPredicate(3, ">", 6)], 9, mspec, count_lcl=20,
            )

        # ages 30 and 40 each exceed one initial (10); Bob has no age
        star = evaluate(plan("*"), Context(tiny_db))
        assert sorted(v for _, (v,) in counts(star)) == [0, 1, 1]
        plus = evaluate(plan("+"), Context(tiny_db))
        assert [v for _, (v,) in counts(plus)] == [1, 1]

    def test_multi_valued_class_raises(self, tiny_db):
        root = pattern_node("doc_root", 1)
        auction = pattern_node("open_auction", 2)
        increase = pattern_node("increase", 3)
        root.add_edge(auction, "ad", "-")
        auction.add_edge(increase, "ad", "*")  # class 3 is a cluster
        plan = JoinOp(
            SelectOp(APT(root, "auction.xml")), tuples(ref_select()),
            [JoinPredicate(3, "=", 6)], 9, "*", count_lcl=20,
        )
        with pytest.raises(CardinalityError) as caught:
            evaluate(plan, Context(tiny_db))
        assert (caught.value.lcl, caught.value.operator) == (3, "Join")

    def test_only_nest_joins_count(self):
        with pytest.raises(AlgebraError):
            JoinOp(person_select(), ref_select(), [], 9, "-", count_lcl=20)

    def test_explain_names_the_count_class(self):
        plan = JoinOp(
            person_select(), ref_select(), [JoinPredicate(3, "=", 6)],
            9, "*", count_lcl=20,
        )
        assert plan.params() == (
            "[(3) = (6)] mspec='*' count -> (20) root_lcl=9"
        )
        assert plan.lc_produced() == {9, 20}
