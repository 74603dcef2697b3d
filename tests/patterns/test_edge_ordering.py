"""A planner edge order changes only how a pattern is joined, never the
witnesses it yields or the order of their children."""

import pytest

from repro.patterns import APT, PatternMatcher, pattern_node
from repro.xmark import load_xmark
from repro.storage import Database


def star_pattern() -> APT:
    """open_auction with three mandatory children of varying selectivity."""
    root = pattern_node("doc_root", 1)
    auction = pattern_node("open_auction", 2)
    bidder = pattern_node("bidder", 3)  # many candidates
    quantity = pattern_node("quantity", 4)  # one per auction
    reserve = pattern_node("reserve", 5)  # ~half the auctions
    root.add_edge(auction, "ad", "-")
    auction.add_edge(bidder, "pc", "-")
    auction.add_edge(quantity, "pc", "-")
    auction.add_edge(reserve, "pc", "-")
    return APT(root, "auction.xml")


def reversed_order(apt: APT) -> APT:
    """``apt`` with every multi-edge node annotated to join its edges in
    reverse source order."""
    for node in apt.nodes():
        if len(node.edges) > 1:
            node.planner_order = list(reversed(range(len(node.edges))))
    return apt


@pytest.fixture(scope="module")
def xmark_db():
    db = Database()
    load_xmark(db, factor=0.002)
    return db


class TestEquivalence:
    def test_same_witnesses_both_orders(self, xmark_db):
        matcher = PatternMatcher(xmark_db)
        a = sorted(
            repr(t.canonical(False)) for t in matcher.match(star_pattern())
        )
        b = sorted(
            repr(t.canonical(False))
            for t in matcher.match(reversed_order(star_pattern()))
        )
        assert a == b

    def test_slot_order_restored(self, xmark_db):
        """Witness children must follow the pattern's edge order, not the
        processing order."""
        result = PatternMatcher(xmark_db).match(
            reversed_order(star_pattern())
        )
        assert len(result) > 0
        for tree in result:
            auction = tree.nodes_in_class(2)[0]
            tags = [c.tag for c in auction.children]
            assert tags == ["bidder", "quantity", "reserve"]

    def test_mixed_mspecs_equivalent(self, xmark_db):
        root = pattern_node("doc_root", 1)
        auction = pattern_node("open_auction", 2)
        root.add_edge(auction, "ad", "-")
        auction.add_edge(pattern_node("bidder", 3), "pc", "*")
        auction.add_edge(pattern_node("reserve", 4), "pc", "-")
        auction.add_edge(pattern_node("privacy", 5), "pc", "?")
        apt = APT(root, "auction.xml")
        plain = PatternMatcher(xmark_db).match(apt)
        ordered = PatternMatcher(xmark_db).match(reversed_order(apt))
        assert sorted(repr(t.canonical(False)) for t in plain) == sorted(
            repr(t.canonical(False)) for t in ordered
        )
