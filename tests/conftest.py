"""Shared fixtures: a tiny hand-written auction database and XMark data."""

from __future__ import annotations

import pytest

from repro import Engine
from repro.core import SelectOp, UnionOp
from repro.core.base import Operator
from repro.model import XTree
from repro.patterns.apt import APT, pattern_node
from repro.storage import Database
from repro.xmark import load_xmark

#: A small auction document exercising every feature the queries need:
#: repeated bidders, optional age/reserve, attributes, nesting.
TINY_AUCTION = """
<site>
 <people>
  <person id="p1"><name>Alice</name><profile><age>30</age></profile></person>
  <person id="p2"><name>Bob</name><profile></profile></person>
  <person id="p3"><name>Carol</name><profile><age>40</age></profile></person>
 </people>
 <open_auctions>
  <open_auction id="a1">
    <initial>10</initial>
    <bidder><personref person="p1"/><increase>3</increase></bidder>
    <bidder><personref person="p3"/><increase>25</increase></bidder>
    <bidder><personref person="p1"/><increase>7</increase></bidder>
    <quantity>5</quantity>
  </open_auction>
  <open_auction id="a2">
    <initial>100</initial>
    <reserve>150</reserve>
    <bidder><personref person="p3"/><increase>1</increase></bidder>
    <quantity>1</quantity>
  </open_auction>
  <open_auction id="a3">
    <initial>50</initial>
    <quantity>2</quantity>
  </open_auction>
 </open_auctions>
</site>
"""


@pytest.fixture
def tiny_db() -> Database:
    """A fresh database loaded with the tiny auction document."""
    db = Database()
    db.load_xml("auction.xml", TINY_AUCTION)
    return db


@pytest.fixture
def tiny_engine(tiny_db) -> Engine:
    """An engine over the tiny auction document."""
    return Engine(tiny_db)


@pytest.fixture(scope="session")
def xmark_engine() -> Engine:
    """A session-wide engine with XMark data at a small factor."""
    engine = Engine()
    load_xmark(engine.db, factor=0.002)
    return engine


@pytest.fixture
def union_plan() -> UnionOp:
    """An OR-shaped plan the translator never emits: a Union of two
    person Selects that differ only in the label of their name child."""

    def person(name_lcl: int) -> SelectOp:
        root = pattern_node("person", lcl=1)
        root.add_edge(pattern_node("name", lcl=name_lcl))
        return SelectOp(APT(root, doc="auction.xml"))

    return UnionOp([person(2), person(3)], dedup_lcl=1)


def canonical_sorted(sequence):
    """Order-insensitive content fingerprint of a result forest."""
    return sorted(repr(tree.canonical(True)) for tree in sequence)


# ----------------------------------------------------------------------
# sharing-safety helpers (path-copying operators, DESIGN §10)
# ----------------------------------------------------------------------
class Const(Operator):
    """Leaf operator returning a fixed sequence."""

    name = "Const"

    def __init__(self, sequence):
        super().__init__([])
        self.sequence = sequence

    def execute(self, ctx, inputs):
        return self.sequence


def snapshot(tree: XTree) -> dict:
    """Everything observable about every node, keyed by identity."""
    return {
        id(node): (
            node.tag,
            node.value,
            node.nid,
            frozenset(node.lcls),
            node.shadowed,
            tuple(id(child) for child in node.children),
        )
        for node in tree.root.walk(include_shadowed=True)
    }


def fresh_nodes(out: XTree, source: XTree) -> list:
    """Nodes of ``out`` that are not (by identity) nodes of ``source``."""
    old = {id(node) for node in source.root.walk(include_shadowed=True)}
    return [
        node
        for node in out.root.walk(include_shadowed=True)
        if id(node) not in old
    ]


def index_ids(index: dict) -> dict:
    return {lcl: [id(node) for node in nodes] for lcl, nodes in index.items()}


def assert_cached_state_exact(tree: XTree) -> None:
    """Whatever ``tree`` has cached must equal a from-scratch build."""
    scratch = XTree(tree.root)
    if tree._lc_index is not None:
        assert index_ids(tree._lc_index) == index_ids(
            scratch._build_index(False)
        )
    if tree._lc_index_shadowed is not None:
        assert index_ids(tree._lc_index_shadowed) == index_ids(
            scratch._build_index(True)
        )
    if tree._saw_shadowed is not None:
        assert tree._saw_shadowed == any(
            node.shadowed for node in tree.root.walk(include_shadowed=True)
        )
