"""Unit tests for Shadow/Illuminate rewriting and the full pipeline."""

from repro.core import Context, SelectOp, evaluate
from repro.core.shadow import IlluminateOp, ShadowOp
from repro.rewrites import (
    apply_flatten,
    apply_illuminate,
    find_flatten_sites,
    find_illuminate_sites,
    optimize,
)
from repro.xquery import translate_query

Q1 = '''
FOR $p IN document("auction.xml")//person
FOR $o IN document("auction.xml")//open_auction
WHERE count($o/bidder) > 2 AND $p//age > 25
  AND $p/@id = $o/bidder//@person
RETURN <person name={$p/name/text()}> $o/bidder </person>
'''

X5 = '''
FOR $o IN document("auction.xml")//open_auction
WHERE count($o/bidder) > 0 AND $o/bidder/increase > 20
RETURN <hot>{$o/bidder}</hot>
'''


def canon(sequence):
    return sorted(repr(t.canonical(True)) for t in sequence)


class TestIlluminateDetection:
    def test_q1_site_found_after_shadow(self):
        plan = translate_query(Q1).plan
        site = find_flatten_sites(plan)[0]
        plan = apply_flatten(plan, site, use_shadow=True)
        illuminate_sites = find_illuminate_sites(plan)
        assert len(illuminate_sites) == 1
        assert illuminate_sites[0].shadowed_lcl == site.nested_edge.child.lcl

    def test_no_sites_without_shadow(self):
        plan = translate_query(Q1).plan
        assert find_illuminate_sites(plan) == []


class TestIlluminateTransformation:
    def rewritten(self):
        plan = translate_query(Q1).plan
        plan = apply_flatten(
            plan, find_flatten_sites(plan)[0], use_shadow=True
        )
        return apply_illuminate(plan, find_illuminate_sites(plan)[0])

    def test_select_replaced_by_illuminate(self):
        plan = self.rewritten()
        assert any(isinstance(op, IlluminateOp) for op in plan.walk())
        refetchers = [
            op
            for op in plan.walk()
            if isinstance(op, SelectOp)
            and op.apt.root.lc_ref is not None
            and op.apt.root.edges
            and op.apt.root.edges[0].child.test.tag == "bidder"
            and not op.apt.root.edges[0].child.edges
        ]
        assert refetchers == []

    def test_construct_references_relabelled(self):
        from repro.core import CClassRef, ConstructOp

        plan = self.rewritten()
        construct = next(
            op for op in plan.walk() if isinstance(op, ConstructOp)
        )
        shadow = next(
            op for op in plan.walk() if isinstance(op, ShadowOp)
        )
        refs = [
            c
            for c in construct.ctree.children
            if isinstance(c, CClassRef)
        ]
        assert refs[0].lcl == shadow.child_lcl

    def test_projection_carries_shadowed_class(self):
        from repro.core import ProjectOp

        plan = self.rewritten()
        shadow = next(
            op for op in plan.walk() if isinstance(op, ShadowOp)
        )
        projects = [
            op for op in plan.walk() if isinstance(op, ProjectOp)
        ]
        assert any(shadow.child_lcl in p.keep_lcls for p in projects)


class TestFusedSelectEdge:
    """The re-fetch as one edge of a fused multi-path extension Select."""

    Q = '''
    FOR $p IN document("auction.xml")//person
    FOR $o IN document("auction.xml")//open_auction
    WHERE count($o/bidder) > 2 AND $p/@id = $o/bidder//@person
    RETURN <r>{$o/initial/text()} $o/bidder {$o/quantity/text()}</r>
    '''

    def fused_select(self, plan):
        (select,) = [
            op
            for op in plan.walk()
            if isinstance(op, SelectOp) and len(op.apt.root.edges) == 3
        ]
        return select

    def test_translator_fuses_the_three_paths(self):
        select = self.fused_select(translate_query(self.Q).plan)
        assert [e.child.test.tag for e in select.apt.root.edges] == [
            "initial", "bidder", "quantity",
        ]

    def test_only_the_refetch_edge_is_cut(self, tiny_db):
        plain = evaluate(translate_query(self.Q).plan, Context(tiny_db))
        plan, log = optimize(translate_query(self.Q).plan)
        assert log.shadowed and log.illuminated
        (illuminate,) = [
            op for op in plan.walk() if isinstance(op, IlluminateOp)
        ]
        (select,) = [
            op
            for op in plan.walk()
            if isinstance(op, SelectOp) and op.inputs == [illuminate]
        ]
        assert [e.child.test.tag for e in select.apt.root.edges] == [
            "initial", "quantity",
        ]
        assert canon(plain) == canon(evaluate(plan, Context(tiny_db)))

    def test_a_select_left_without_edges_is_replaced(self):
        plan, log = optimize(translate_query(Q1).plan)
        assert log.illuminated
        assert not any(
            isinstance(op, SelectOp) and not op.apt.root.edges
            for op in plan.walk()
        )


class TestEquivalence:
    def test_q1_shadow_illuminate_preserves_results(self, tiny_db):
        plain = evaluate(translate_query(Q1).plan, Context(tiny_db))
        plan = translate_query(Q1).plan
        plan = apply_flatten(
            plan, find_flatten_sites(plan)[0], use_shadow=True
        )
        plan = apply_illuminate(plan, find_illuminate_sites(plan)[0])
        rewritten = evaluate(plan, Context(tiny_db))
        assert canon(plain) == canon(rewritten)

    def test_pipeline_q1(self, tiny_db):
        plain = evaluate(translate_query(Q1).plan, Context(tiny_db))
        plan, log = optimize(translate_query(Q1).plan)
        assert log.shadowed and log.illuminated
        optimized = evaluate(plan, Context(tiny_db))
        assert canon(plain) == canon(optimized)

    def test_pipeline_x5(self, tiny_db):
        plain = evaluate(translate_query(X5).plan, Context(tiny_db))
        plan, log = optimize(translate_query(X5).plan)
        assert log.changed
        optimized = evaluate(plan, Context(tiny_db))
        assert canon(plain) == canon(optimized)

    def test_pipeline_saves_node_touches(self, tiny_db):
        # The query-scoped scan cache also dedups the repeated scans the
        # Shadow rewrite removes; disable it so this measures the
        # rewrite's intrinsic saving, not the cache's.
        evaluate(translate_query(Q1).plan, Context(tiny_db, scan_cache=False))
        plain_touches = tiny_db.metrics.nodes_touched
        tiny_db.reset_metrics()
        plan, _ = optimize(translate_query(Q1).plan)
        evaluate(plan, Context(tiny_db, scan_cache=False))
        assert tiny_db.metrics.nodes_touched < plain_touches

    def test_pipeline_noop_on_simple_query(self, tiny_db):
        query = ('FOR $p IN document("auction.xml")//person '
                 "RETURN <o>{$p/name/text()}</o>")
        plan, log = optimize(translate_query(query).plan)
        assert not log.flattened and not log.illuminated
        result = evaluate(plan, Context(tiny_db))
        assert len(result) == 3

