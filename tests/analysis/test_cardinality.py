"""LC3xx cardinality-bound tests: interval algebra, transfer, warnings."""

import pytest

from repro.analysis import analyze, cardinality
from repro.analysis.cardinality import Interval, _add, _mul
from repro.analysis.diagnostics import (
    CARDINALITY_BLOWUP,
    EMPTY_BRANCH,
)
from repro import Engine
from repro.core import (
    FilterOp,
    FlattenOp,
    JoinOp,
    SelectOp,
    ShadowOp,
    UnionOp,
)
from repro.core.base import ClassPredicate, JoinPredicate
from repro.patterns.apt import APT, pattern_node
from repro.storage.stats import CardinalityStats
from repro.xmark import QUERIES, load_xmark

#: a hand-built database snapshot: 200 nodes, a few known tags
STATS = CardinalityStats(
    tag_counts={
        "auction.xml": {
            "person": 100,
            "name": 100,
            "age": 40,
            "phone": 0,
        }
    },
    totals={"auction.xml": 200},
)


def lc3(analysis):
    """The LC3xx findings: hand-built plans may also trip LC1xx rules."""
    return [d for d in analysis.diagnostics if d.code.startswith("LC3")]


def select(tag, doc="auction.xml", edges=()):
    root = pattern_node(tag, lcl=1)
    for index, (child_tag, axis, mspec) in enumerate(edges):
        root.add_edge(
            pattern_node(child_tag, lcl=2 + index), axis=axis, mspec=mspec
        )
    return SelectOp(APT(root, doc=doc))


class TestIntervalAlgebra:
    def test_render(self):
        assert Interval(0, 5).render() == "[0, 5]"
        assert Interval(1, None).render() == "[1, inf]"

    def test_empty(self):
        assert Interval(0, 0).empty
        assert not Interval(0, 1).empty
        assert not Interval(0, None).empty

    def test_mul_zero_annihilates_unbounded(self):
        assert _mul(0, None) == 0
        assert _mul(None, 0) == 0
        assert _mul(None, 5) is None
        assert _mul(3, 4) == 12

    def test_add_propagates_unbounded(self):
        assert _add(None, 1) is None
        assert _add(2, 3) == 5


class TestSelectBounds:
    def test_leaf_select_bounded_by_tag_count(self):
        plan = select("person")
        analysis = analyze(plan, STATS)
        assert analysis.bounds[id(plan)] == Interval(0, 100)

    def test_required_pc_child_anchors_the_parent(self):
        # each name determines its person, so the bound is the child's
        # count, not person x name
        plan = select("person", edges=[("name", "pc", "-")])
        analysis = analyze(plan, STATS)
        assert analysis.bounds[id(plan)] == Interval(0, 100)

    def test_optional_child_adds_the_absent_case(self):
        plan = select("person", edges=[("age", "ad", "?")])
        analysis = analyze(plan, STATS)
        assert analysis.bounds[id(plan)] == Interval(0, 100 * 41)

    def test_nested_children_do_not_multiply(self):
        plan = select("person", edges=[("age", "ad", "*")])
        analysis = analyze(plan, STATS)
        assert analysis.bounds[id(plan)] == Interval(0, 100)

    def test_required_nested_empty_child_zeroes_the_branch(self):
        plan = select("person", edges=[("phone", "ad", "+")])
        analysis = analyze(plan, STATS)
        assert analysis.bounds[id(plan)].empty

    def test_unloaded_document_is_unbounded(self):
        plan = select("person", doc="missing.xml")
        analysis = analyze(plan, STATS)
        assert analysis.bounds[id(plan)].hi is None

    def test_without_stats_no_diagnostics(self):
        analysis = analyze(select("person", doc="missing.xml"))
        assert lc3(analysis) == []
        assert analysis.bounds == {}


class TestDiagnostics:
    def test_lc301_fires_on_provably_empty_tag(self):
        analysis = analyze(select("phone"), STATS)
        assert [d.code for d in lc3(analysis)] == [EMPTY_BRANCH]

    def test_lc301_reported_once_at_the_source(self):
        plan = FilterOp(
            ClassPredicate(1, "!=", ""),
            mode="ALO",
            input_op=select("phone"),
        )
        analysis = analyze(plan, STATS)
        assert [d.code for d in lc3(analysis)] == [EMPTY_BRANCH]

    def test_lc302_fires_when_bound_becomes_unbounded(self):
        analysis = analyze(select("person", doc="missing.xml"), STATS)
        assert [d.code for d in lc3(analysis)] == [
            CARDINALITY_BLOWUP
        ]

    def test_lc302_fires_on_explosive_join(self, monkeypatch):
        monkeypatch.setattr(cardinality, "BLOWUP_FACTOR", 1)
        plan = JoinOp(
            select("person"),
            select("name"),
            predicates=[JoinPredicate(1, "=", 2)],
            root_lcl=9,
            right_mspec="-",
        )
        analysis = analyze(plan, STATS)
        codes = [d.code for d in lc3(analysis)]
        assert codes == [CARDINALITY_BLOWUP]
        assert "join output bound" in lc3(analysis)[0].message

    def test_same_join_clean_with_default_headroom(self):
        plan = JoinOp(
            select("person"),
            select("name"),
            predicates=[JoinPredicate(1, "=", 2)],
            root_lcl=9,
            right_mspec="-",
        )
        analysis = analyze(plan, STATS)
        assert lc3(analysis) == []


class TestTransfer:
    def test_union_adds(self):
        plan = UnionOp([select("person"), select("age")])
        analysis = analyze(plan, STATS)
        assert analysis.bounds[id(plan)] == Interval(0, 140)

    def test_filter_keeps_upper_drops_lower(self):
        plan = FilterOp(
            ClassPredicate(1, "!=", ""),
            mode="ALO",
            input_op=select("person"),
        )
        analysis = analyze(plan, STATS)
        assert analysis.bounds[id(plan)] == Interval(0, 100)

    def test_outer_join_preserves_left_bound(self):
        plan = JoinOp(
            select("person"),
            select("age"),
            predicates=[JoinPredicate(1, "=", 2)],
            root_lcl=9,
            right_mspec="*",
        )
        analysis = analyze(plan, STATS)
        assert analysis.bounds[id(plan)] == Interval(0, 100)


class TestFlattenBounds:
    """Flatten and Shadow emit one tree per member of the child class."""

    def grouped(self):
        # person with all its ages nested: one tree per person
        return select("person", edges=[("age", "ad", "*")])

    @pytest.mark.parametrize("op_class", [FlattenOp, ShadowOp])
    def test_bound_counts_the_nested_edge_as_required(self, op_class):
        chain = FilterOp(
            ClassPredicate(2, "!=", ""), mode="ALO", input_op=self.grouped()
        )
        plan = op_class(1, 2, chain)
        analysis = analyze(plan, STATS)
        assert analysis.bounds[id(chain)] == Interval(0, 100)
        # person x age embeddings: the flattened edge no longer groups
        assert analysis.bounds[id(plan)] == Interval(0, 4000)

    def test_growing_input_falls_back_to_the_child_tag_count(self):
        union = UnionOp([self.grouped(), self.grouped()])
        plan = FlattenOp(1, 2, union)
        analysis = analyze(plan, STATS)
        # 200 input trees, each with at most every age of the database
        assert analysis.bounds[id(plan)] == Interval(0, 200 * 40)

    def test_unknown_child_class_is_unbounded(self):
        plan = FlattenOp(1, 7, self.grouped())
        assert analyze(plan, STATS).bounds[id(plan)] == Interval(0, None)


#: the layered benchmark's four document variants (``seed % 4``)
VARIANT_SEEDS = (20040612, 20040613, 20040614, 20040615)


@pytest.fixture(scope="module")
def small_engines():
    """Every benchmark document variant at factor 0.001."""
    engines = []
    for seed in VARIANT_SEEDS:
        engine = Engine()
        load_xmark(engine.db, 0.001, seed=seed)
        engines.append(engine)
    return engines


@pytest.mark.parametrize("name", sorted(QUERIES))
def test_bounds_contain_the_traced_cardinality(
    name, small_engines, xmark_engine
):
    """Soundness: every operator's interval holds what it really emits,
    plain and rewritten, on every benchmark document variant and at two
    document sizes."""
    violations = []
    for engine in (*small_engines, xmark_engine):
        stats = CardinalityStats.from_database(engine.db)
        for optimize in (False, True):
            plan = engine.plan(QUERIES[name].text, "tlc", optimize).plan
            analysis = analyze(plan, stats)
            trace = engine.run_plan(plan, trace=True).trace
            for op in plan.walk():
                emitted = trace.record_for(op).output_card
                bound = analysis.bounds[id(op)]
                if emitted < bound.lo or (
                    bound.hi is not None and emitted > bound.hi
                ):
                    violations.append(
                        f"{'-O ' if optimize else ''}{op.name} "
                        f"{op.params()}: {emitted} not in {bound.render()}"
                    )
    assert violations == []


class TestLintPlanIntegration:
    def test_report_carries_bounds_and_diagnostics(self):
        report = analyze(select("phone"), STATS)
        rendered = report.annotated_plan()
        assert "card [0, 0]" in rendered
        assert "LC301" in rendered

    def test_warnings_do_not_break_ok(self):
        report = analyze(select("phone"), STATS)
        assert report.ok  # LC3xx are warnings, not errors


@pytest.mark.parametrize("name", ["x10", "x11", "x12"])
def test_join_heavy_queries_get_finite_bounds(name, xmark_engine):
    from repro.rewrites.pipeline import optimize_plan
    from repro.xmark import QUERIES
    from repro.xquery.translator import translate_query

    stats = CardinalityStats.from_database(xmark_engine.db)
    translation = optimize_plan(
        translate_query(QUERIES[name].text), verify=False
    )
    analysis = analyze(translation.plan, stats)
    assert analysis.diagnostics == [], [
        d.render() for d in analysis.diagnostics
    ]
    assert analysis.bounds[id(translation.plan)].hi is not None
