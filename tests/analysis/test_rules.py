"""Each diagnostic rule against a hand-built plan that violates it."""

import pytest

from repro.analysis import (
    BAD_FLATTEN_SITE,
    DEAD_CLASS,
    DUPLICATE_LABEL,
    JOIN_SIDE_MISMATCH,
    MALFORMED_OPERATOR,
    SHADOWED_REF,
    UNDEFINED_REF,
    Severity,
    analyze,
)
from repro.core import (
    AggregateOp,
    ConstructOp,
    DedupOp,
    FilterOp,
    FlattenOp,
    IlluminateOp,
    JoinOp,
    ProjectOp,
    SelectOp,
    ShadowOp,
    UnionOp,
)
from repro.core.base import ClassPredicate, JoinPredicate
from repro.core.construct import CClassRef, CElement
from repro.patterns import APT, pattern_node


def select(*tag_lcls, doc="auction.xml"):
    """A Select over a pc-chain of (tag, lcl) pairs."""
    root = pattern_node(tag_lcls[0][0], tag_lcls[0][1])
    current = root
    for tag, lcl in tag_lcls[1:]:
        node = pattern_node(tag, lcl)
        current.add_edge(node, "pc", "-")
        current = node
    return SelectOp(APT(root, doc))


def people() -> SelectOp:
    return select(("site", 1), ("people", 2), ("person", 3))


def codes(plan):
    return [d.code for d in analyze(plan).diagnostics]


class TestUndefinedRef:
    def test_filter_on_unknown_class(self):
        plan = FilterOp(ClassPredicate(99, "=", "x"), "E", people())
        assert codes(plan) == [UNDEFINED_REF]

    def test_project_on_unknown_class(self):
        plan = ProjectOp([3, 42], people())
        assert codes(plan) == [UNDEFINED_REF]

    def test_construct_splicing_unknown_class(self):
        plan = ConstructOp(
            CElement("out", 9, children=[CClassRef(55)]), people()
        )
        assert UNDEFINED_REF in codes(plan)

    def test_join_ref_missing_on_both_sides(self):
        plan = JoinOp(
            people(),
            select(("site", 4), ("regions", 5)),
            [JoinPredicate(77, "=", 5)],
            root_lcl=9,
        )
        assert codes(plan) == [UNDEFINED_REF]

    def test_clean_plan_has_no_diagnostics(self):
        plan = FilterOp(ClassPredicate(3, "=", "x"), "E", people())
        assert codes(plan) == []


class TestDuplicateLabel:
    def test_two_producers_of_one_label_conflict_at_join(self):
        plan = JoinOp(
            people(),
            select(("site", 4), ("regions", 3)),  # 3 again, other select
            [JoinPredicate(3, "=", 3)],
            root_lcl=9,
        )
        assert DUPLICATE_LABEL in codes(plan)

    def test_shared_subplan_is_not_a_conflict(self):
        shared = people()
        plan = JoinOp(shared, shared, [JoinPredicate(3, "=", 3)], root_lcl=9)
        assert DUPLICATE_LABEL not in codes(plan)

    def test_union_branches_may_share_labels(self):
        plan = UnionOp(
            [people(), select(("site", 1), ("people", 2), ("person", 3))]
        )
        assert DUPLICATE_LABEL not in codes(plan)


class TestShadowedRef:
    def test_aggregate_over_shadowed_class(self):
        plan = AggregateOp("count", 3, 7, ShadowOp(2, 3, people()))
        found = codes(plan)
        assert SHADOWED_REF in found

    def test_filter_over_shadowed_class(self):
        plan = FilterOp(
            ClassPredicate(3, "=", "x"), "E", ShadowOp(2, 3, people())
        )
        assert SHADOWED_REF in codes(plan)

    def test_illuminate_clears_the_shadow(self):
        plan = FilterOp(
            ClassPredicate(3, "=", "x"),
            "E",
            IlluminateOp(3, ShadowOp(2, 3, people())),
        )
        assert codes(plan) == []

    def test_project_may_pass_shadowed_classes(self):
        plan = ProjectOp([2], ShadowOp(2, 3, people()))
        assert codes(plan) == []


class TestBadFlattenSite:
    def test_flatten_child_not_under_parent(self):
        # class 3 nests under 2, not under 1
        plan = FlattenOp(1, 3, people())
        assert codes(plan) == [BAD_FLATTEN_SITE]

    def test_flatten_inverted_pair(self):
        plan = FlattenOp(3, 2, people())
        assert codes(plan) == [BAD_FLATTEN_SITE]

    def test_shadow_checked_the_same_way(self):
        plan = ShadowOp(1, 3, people())
        assert codes(plan) == [BAD_FLATTEN_SITE]

    def test_correct_site_is_clean(self):
        plan = FlattenOp(2, 3, people())
        assert codes(plan) == []


class TestJoinSideMismatch:
    def test_swapped_predicate_sides(self):
        plan = JoinOp(
            people(),
            select(("site", 4), ("regions", 5)),
            [JoinPredicate(5, "=", 3)],  # 5 lives right, 3 lives left
            root_lcl=9,
        )
        assert codes(plan) == [JOIN_SIDE_MISMATCH, JOIN_SIDE_MISMATCH]

    def test_correct_sides_are_clean(self):
        plan = JoinOp(
            people(),
            select(("site", 4), ("regions", 5)),
            [JoinPredicate(3, "=", 5)],
            root_lcl=9,
        )
        assert codes(plan) == []


class TestMalformedOperator:
    def test_unknown_comparison_in_filter(self):
        plan = FilterOp(ClassPredicate(3, "~~", 5), "E", people())
        assert codes(plan) == [MALFORMED_OPERATOR]

    def test_unknown_comparison_in_join_predicate(self):
        plan = JoinOp(
            people(),
            select(("site", 4), ("regions", 5)),
            [JoinPredicate(3, "~~", 5)],
            root_lcl=9,
        )
        assert codes(plan) == [MALFORMED_OPERATOR]

    def test_label_zero_consumption(self):
        plan = FilterOp(ClassPredicate(0, "=", 1), "E", people())
        assert codes(plan) == [MALFORMED_OPERATOR]

    def test_duplicate_pattern_labels(self):
        root = pattern_node("site", 1)
        root.add_edge(pattern_node("person", 1), "ad", "-")
        plan = SelectOp(APT(root, "auction.xml"))
        assert MALFORMED_OPERATOR in codes(plan)


class TestDeadClass:
    def test_unconsumed_aggregate_result(self):
        plan = UnionOp([AggregateOp("count", 3, 7, people())])
        diags = analyze(plan).diagnostics
        assert [d.code for d in diags] == [DEAD_CLASS]
        assert diags[0].severity is Severity.WARNING
        assert not diags[0].is_error

    def test_consumed_aggregate_is_clean(self):
        plan = FilterOp(
            ClassPredicate(7, ">", 1), "E", AggregateOp("count", 3, 7, people())
        )
        assert codes(plan) == []

    def test_warning_does_not_fail_lint(self):
        plan = UnionOp([AggregateOp("count", 3, 7, people())])
        assert analyze(plan).ok  # warnings only


class TestConstructFlow:
    def test_splice_keeps_class_markings(self):
        # the spliced class 3 (and nothing else) flows out of Construct;
        # a downstream Dedup on it must lint clean
        built = ConstructOp(
            CElement("out", 9, children=[CClassRef(3)]), people()
        )
        assert codes(DedupOp([3], input_op=built)) == []
        assert codes(DedupOp([9], input_op=built)) == []

    def test_text_only_splice_drops_markings(self):
        built = ConstructOp(
            CElement("out", 9, children=[CClassRef(3, text_only=True)]),
            people(),
        )
        assert codes(DedupOp([3], input_op=built)) == [UNDEFINED_REF]

    def test_hidden_splice_is_shadowed_at_birth(self):
        built = ConstructOp(
            CElement("out", 9, children=[CClassRef(3, hidden=True)]),
            people(),
        )
        assert codes(DedupOp([3], input_op=built)) == [SHADOWED_REF]


class TestReport:
    def test_render_lists_diagnostics_and_summary(self):
        plan = FilterOp(ClassPredicate(99, "=", "x"), "E", people())
        text = analyze(plan).render()
        assert "LC101" in text and "1 error" in text

    def test_clean_render(self):
        assert "clean" in analyze(people()).render()

    def test_annotated_plan_marks_flow_and_findings(self):
        plan = FilterOp(ClassPredicate(99, "=", "x"), "E", people())
        annotated = analyze(plan).annotated_plan()
        assert "reads [99]" in annotated
        assert "!! LC101" in annotated
        assert "+[1, 2, 3]" in annotated  # the select's produced labels

    def test_annotated_plan_marks_shared_subplans(self):
        shared = people()  # a DAG built by hand: one Select read twice
        annotated = analyze(UnionOp([shared, shared])).annotated_plan()
        assert "(shared)" in annotated


class TestOperatorProtocol:
    def test_every_core_operator_reports_its_flow(self):
        sel = people()
        assert sel.lc_produced() == {1, 2, 3}
        agg = AggregateOp("count", 3, 7, sel)
        assert agg.lc_produced() == {7} and agg.lc_consumed() == {3}
        join = JoinOp(sel, sel, [JoinPredicate(3, "=", 3)], root_lcl=9)
        assert join.lc_produced() == {9} and join.lc_consumed() == {3}
        assert ProjectOp([1, 2], sel).lc_consumed() == {1, 2}
        assert FlattenOp(2, 3, sel).lc_consumed() == {2, 3}
        assert ShadowOp(2, 3, sel).lc_consumed() == {2, 3}
        assert IlluminateOp(3, sel).lc_consumed() == {3}
        assert DedupOp([3], input_op=sel).lc_consumed() == {3}
        built = ConstructOp(
            CElement("out", 9, children=[CClassRef(3)]), sel
        )
        assert built.lc_produced() == {9}
        assert built.lc_consumed() == {3}


class TestStrictExecution:
    def test_strict_run_plan_raises_with_diagnostics(self, tiny_engine):
        from repro.errors import PlanValidationError

        plan = AggregateOp("count", 3, 7, ShadowOp(2, 3, people()))
        with pytest.raises(PlanValidationError) as err:
            tiny_engine.run_plan(plan, strict=True)
        assert any(d.code == SHADOWED_REF for d in err.value.diagnostics)

    def test_strict_run_plan_passes_clean_plans(self, tiny_engine):
        result = tiny_engine.run_plan(people(), strict=True)
        assert len(result) > 0
