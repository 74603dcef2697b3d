"""The static single-variant rule against the expansion it skips.

A ``+``/``*`` cluster must hold each matching node once;
``_cluster_alternatives`` enforces that by grouping the cluster's
members per node.  ``APTNode.single_variant`` says *statically* when the
grouping can find nothing to do.  Generated patterns check the claim
against the grouping itself and against a matcher that always expands.
"""

from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.patterns import APT, PatternMatcher, pattern_node
from repro.patterns.apt import MSPECS, APTNode
from repro.patterns.match import _cluster_alternatives
from repro.physical.structural_join import join_for_mspec
from repro.storage import Database
from tests.conftest import TINY_AUCTION

DOC = "auction.xml"
_TAGS = (
    "open_auctions", "open_auction", "bidder", "increase", "personref",
    "@person", "initial", "reserve", "quantity", "person", "profile", "age",
)

_DB = Database()
_DB.load_xml(DOC, TINY_AUCTION)


@st.composite
def _subpattern(draw, depth=0):
    """``(tag, [(axis, mspec, child), ...])``, at most three levels deep."""
    edges = []
    if depth < 2:
        for _ in range(draw(st.integers(0, 2))):
            edges.append(
                (
                    draw(st.sampled_from(("pc", "ad"))),
                    draw(st.sampled_from(MSPECS)),
                    draw(_subpattern(depth + 1)),
                )
            )
    return draw(st.sampled_from(_TAGS)), edges


def _build(spec, labels) -> APTNode:
    tag, edges = spec
    node = pattern_node(tag, next(labels))
    for axis, mspec, child in edges:
        node.add_edge(_build(child, labels), axis, mspec)
    return node


def _apt(spec) -> APT:
    labels = iter(range(1, 100))
    root = pattern_node("doc_root", next(labels))
    root.add_edge(_build(spec, labels), "ad", "-")
    return APT(root, DOC)


def _always_expand():
    return mock.patch.object(
        APTNode, "single_variant", property(lambda self: False)
    )


@settings(max_examples=200, deadline=None)
@given(spec=_subpattern())
def test_single_variant_children_never_need_expansion(spec):
    apt = _apt(spec)
    matcher = PatternMatcher(_DB)
    memo = {}
    for node in apt.nodes():
        for edge in node.edges:
            if not (edge.nested and edge.child.single_variant):
                continue
            joined = join_for_mspec(
                matcher._candidates(node, DOC),
                matcher._match_node_db(edge.child, DOC, memo),
                edge.axis,
                edge.mspec,
                parent_id=lambda m: m.nid,
                child_id=lambda m: m.nid,
            )
            for _, (cluster,) in joined:
                if cluster:
                    assert _cluster_alternatives(
                        cluster, lambda m: m.nid
                    ) == [cluster]


@settings(max_examples=200, deadline=None)
@given(spec=_subpattern())
def test_match_equals_the_always_expanding_matcher(spec):
    apt = _apt(spec)
    skipping = [t.to_xml() for t in PatternMatcher(_DB).match(apt)]
    with _always_expand():
        expanding = [t.to_xml() for t in PatternMatcher(_DB).match(apt)]
    assert skipping == expanding


@settings(max_examples=100, deadline=None)
@given(spec=_subpattern(), mspec=st.sampled_from(MSPECS))
def test_extend_equals_the_always_expanding_matcher(spec, mspec):
    base = APT(pattern_node("doc_root", 1), DOC)
    base.root.add_edge(pattern_node("open_auction", 2), "ad", "-")
    extension = APT(pattern_node(None, 0, lc_ref=2))
    extension.root.add_edge(_build(spec, iter(range(10, 100))), "ad", mspec)
    matcher = PatternMatcher(_DB)
    trees = matcher.match(base)
    skipping = [t.to_xml() for t in matcher.extend(extension, trees)]
    with _always_expand():
        expanding = [t.to_xml() for t in matcher.extend(extension, trees)]
    assert skipping == expanding


class TestTheRule:
    def test_a_leaf_is_single_variant(self):
        assert pattern_node("bidder", 1).single_variant

    def test_nested_plus_under_star_is_single_variant(self):
        auction = pattern_node("open_auction", 1)
        bidder = pattern_node("bidder", 2)
        auction.add_edge(bidder, "pc", "*")
        bidder.add_edge(pattern_node("increase", 3), "pc", "+")
        assert bidder.single_variant
        assert auction.single_variant

    def test_dash_or_question_child_multiplies(self):
        for mspec in ("-", "?"):
            auction = pattern_node("open_auction", 1)
            auction.add_edge(pattern_node("bidder", 2), "pc", mspec)
            assert not auction.single_variant

    def test_multiplicity_deep_in_the_subtree_is_seen(self):
        top = pattern_node("open_auctions", 1)
        auction = pattern_node("open_auction", 2)
        bidder = pattern_node("bidder", 3)
        top.add_edge(auction, "pc", "*")
        auction.add_edge(bidder, "pc", "+")
        bidder.add_edge(pattern_node("increase", 4), "pc", "-")
        assert not bidder.single_variant
        assert not auction.single_variant

    def test_dash_child_under_star_still_expands(self):
        """a1 matches three times (one per bidder), a2 once, a3 never:
        the ``*`` cluster {a1×3, a2} is three alternatives {a1, a2}."""
        root = pattern_node("doc_root", 1)
        top = pattern_node("open_auctions", 2)
        auction = pattern_node("open_auction", 3)
        root.add_edge(top, "ad", "-")
        top.add_edge(auction, "pc", "*")
        auction.add_edge(pattern_node("bidder", 4), "pc", "-")
        result = PatternMatcher(_DB).match(APT(root, DOC))
        assert len(result) == 3
        for tree in result:
            auctions = tree.nodes_in_class(3)
            assert len(auctions) == 2
            assert len({node.nid for node in auctions}) == 2
