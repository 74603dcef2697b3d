"""Unit tests for DOT plan rendering."""

from repro.core import UnionOp
from repro.core.visualize import plan_to_dot
from repro.xquery import translate_query

QUERY = '''
FOR $p IN document("auction.xml")//person
FOR $o IN document("auction.xml")//open_auction
WHERE count($o/bidder) > 2 AND $p/@id = $o/bidder//@person
RETURN <person name={$p/name/text()}> $o/bidder </person>
'''


class TestPlanToDot:
    def test_renders_all_operators(self):
        plan = translate_query(QUERY).plan
        dot = plan_to_dot(plan)
        assert dot.startswith("digraph plan {")
        assert dot.rstrip().endswith("}")
        for name in ("Construct", "Join", "Select", "Aggregate",
                     "Filter", "Project", "DuplicateElimination"):
            assert name in dot

    def test_edges_follow_dataflow(self):
        plan = translate_query(QUERY).plan
        dot = plan_to_dot(plan)
        assert "->" in dot
        n_ops = len(list(plan.walk()))
        assert dot.count("label=") >= n_ops  # one box per operator + title

    def test_title_escaped(self):
        plan = translate_query(QUERY).plan
        dot = plan_to_dot(plan, title='the "Q1" plan')
        assert '\\"Q1\\"' in dot

    def test_shared_subplans_render_once(self, union_plan):
        shared = union_plan.inputs[0]
        dot = plan_to_dot(UnionOp([shared, shared], dedup_lcl=1))
        # one shared leaf select box feeding the union twice
        select_boxes = [
            line
            for line in dot.splitlines()
            if "Select" in line and "doc=" in line
        ]
        assert len(select_boxes) == 1
