"""The cost model against hand-computed cardinalities.

Every number asserted here is worked out by hand from the documented
cascade (``docs/PLANNING.md``): for a node with candidates ``C``,
``cost = raw`` (the scan), then per edge ``cost += variants +
child_variants; variants *= fanout; cost += variants``.  The statistics
are synthetic, so the arithmetic stays exact.
"""

import pytest

from repro.analysis.cardinality import Interval
from repro.patterns.apt import pattern_node
from repro.planner import (
    MAX_EXHAUSTIVE_EDGES,
    PREDICATE_SELECTIVITY,
    UNKNOWN_COUNT,
    CostModel,
)
from repro.storage.stats import CardinalityStats

#: tag "a" has 10 nodes, "b" 20, "c" 5 — chosen so the two edges of the
#: reference pattern have fanouts 2.0 and 0.5 under ``-``.
STATS = CardinalityStats(
    tag_counts={"d": {"a": 10, "b": 20, "c": 5}},
    totals={"d": 35},
)


def _reference_pattern():
    """``a`` with two ``-`` edges: ``/b`` (fanout 2) then ``/c`` (0.5)."""
    root = pattern_node("a", 1)
    root.add_edge(pattern_node("b", 2))
    root.add_edge(pattern_node("c", 3))
    return root


def test_estimate_pattern_reads_the_statistics():
    model = CostModel(STATS)
    estimate = model.estimate_pattern(_reference_pattern(), "d")
    assert estimate.raw_count == 10.0
    assert estimate.candidates == 10.0  # no predicates
    assert [e.child_variants for e in estimate.edges] == [20.0, 5.0]
    assert [e.fanout for e in estimate.edges] == [2.0, 0.5]
    # each leaf child costs exactly its own index scan
    assert [e.child_cost for e in estimate.edges] == [20.0, 5.0]
    assert estimate.subtree_cost() == 25.0
    # the variant product is order-independent: 10 * 2 * 0.5
    assert estimate.variants == 10.0


def test_order_cost_matches_the_hand_computed_cascade():
    model = CostModel(STATS)
    estimate = model.estimate_pattern(_reference_pattern(), "d")
    # b first: 10 scan; +10+20 merge, *2 -> 20, +20 write;
    #          +20+5 merge, *0.5 -> 10, +10 write  == 95
    assert model.order_cost(estimate, [0, 1]) == pytest.approx(95.0)
    # c first: 10 scan; +10+5 merge, *0.5 -> 5, +5 write;
    #          +5+20 merge, *2 -> 10, +10 write    == 65
    assert model.order_cost(estimate, [1, 0]) == pytest.approx(65.0)


def test_best_order_runs_the_selective_edge_first():
    model = CostModel(STATS)
    estimate = model.estimate_pattern(_reference_pattern(), "d")
    order, cost = model.best_order(estimate)
    assert order == [1, 0]
    assert cost == pytest.approx(65.0)


def test_best_order_ties_break_toward_source_order():
    """Identical edges cost the same either way: no gratuitous reorder."""
    root = pattern_node("a", 1)
    root.add_edge(pattern_node("b", 2))
    root.add_edge(pattern_node("b", 3))
    model = CostModel(STATS)
    estimate = model.estimate_pattern(root, "d")
    order, _ = model.best_order(estimate)
    assert order == [0, 1]


def test_predicates_scale_candidates_by_selectivity():
    model = CostModel(STATS)
    one = pattern_node("a", 1, comparisons=((">", 25),))
    estimate = model.estimate_pattern(one, "d")
    assert estimate.candidates == pytest.approx(10 * PREDICATE_SELECTIVITY)
    assert estimate.raw_count == 10.0  # the scan still reads every node
    two = pattern_node("a", 1, comparisons=((">", 25), ("<", 99)))
    estimate = model.estimate_pattern(two, "d")
    assert estimate.candidates == pytest.approx(
        10 * PREDICATE_SELECTIVITY**2
    )


@pytest.mark.parametrize(
    ("mspec", "tag", "fanout"),
    [
        ("-", "b", 2.0),   # children per parent: 20/10
        ("?", "b", 3.0),   # spread + the absent alternative
        ("+", "b", 1.0),   # min(1, spread): matches cluster
        ("+", "c", 0.5),   # ...unless parents outnumber children
        ("*", "c", 1.0),   # every parent survives with one cluster
    ],
)
def test_mspec_shapes_the_fanout(mspec, tag, fanout):
    root = pattern_node("a", 1)
    root.add_edge(pattern_node(tag, 2), mspec=mspec)
    model = CostModel(STATS)
    estimate = model.estimate_pattern(root, "d")
    assert estimate.edges[0].fanout == pytest.approx(fanout)


def test_unknown_documents_and_wildcards_estimate_conservatively():
    model = CostModel(STATS)
    assert model.node_count("unloaded.xml", pattern_node("a", 1)) == (
        UNKNOWN_COUNT
    )
    # a wildcard node is bounded by the document's total node count
    assert model.node_count("d", pattern_node(None, 1)) == 35.0


def test_large_nodes_fall_back_to_the_greedy_fanout_sort():
    """Past MAX_EXHAUSTIVE_EDGES the order is fanout-ascending."""
    tags = {f"t{i}": (i + 1) * 10 for i in range(MAX_EXHAUSTIVE_EDGES + 1)}
    tags["a"] = 10
    stats = CardinalityStats(
        tag_counts={"d": tags}, totals={"d": sum(tags.values())}
    )
    root = pattern_node("a", 1)
    # attach children with *descending* fanout so greedy must reverse
    for i in reversed(range(MAX_EXHAUSTIVE_EDGES + 1)):
        root.add_edge(pattern_node(f"t{i}", i + 2))
    model = CostModel(stats)
    estimate = model.estimate_pattern(root, "d")
    order, _ = model.best_order(estimate)
    assert order == list(reversed(range(MAX_EXHAUSTIVE_EDGES + 1)))


def test_interval_rows_caps_unbounded_estimates():
    model = CostModel(STATS)
    assert model.interval_rows(Interval(2, 7)) == 7.0
    # unbounded: a small multiple of the database size, never below lo
    assert model.interval_rows(Interval(3, None)) == model.row_cap
    assert model.interval_rows(Interval(10**9, None)) == 10**9
