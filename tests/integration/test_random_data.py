"""Property test: the four engines agree on randomly generated data.

Hypothesis generates small random auction documents (random bidder
fan-outs, optional elements, random content values); a fixed set of
queries covering each WHERE/RETURN feature must produce content-identical
results under TLC, TAX, GTP and navigation.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Engine
from tests.conftest import canonical_sorted

QUERIES = [
    # simple predicate + text return
    'FOR $p IN document("a.xml")//person '
    "WHERE $p/age > 30 RETURN <o>{$p/name/text()}</o>",
    # aggregate predicate + nested return
    'FOR $o IN document("a.xml")//auction '
    "WHERE count($o/bid) > 1 RETURN <h>{$o/bid}</h>",
    # value join
    'FOR $p IN document("a.xml")//person '
    'FOR $o IN document("a.xml")//auction '
    "WHERE $p/@id = $o/bid/@by RETURN <j>{$p/name/text()}</j>",
    # quantifier
    'FOR $o IN document("a.xml")//auction '
    "WHERE EVERY $i IN $o/bid SATISFIES $i > 10 "
    "RETURN <q>{count($o/bid)}</q>",
    # correlated LET + count
    'FOR $p IN document("a.xml")//person '
    'LET $a := FOR $o IN document("a.xml")//auction '
    "          WHERE $o/bid/@by = $p/@id RETURN <t/> "
    "RETURN <n c={count($a)}>{$p/name/text()}</n>",
    # multi-path RETURN over one class: one fused extension Select with
    # an optional path, an attribute and a repeated prefix
    'FOR $p IN document("a.xml")//person '
    "RETURN <m id={$p/@id}>{$p/name/text()}{$p/age}{$p/name}</m>",
    # an aggregate in the middle ends the run; the rest is a second Select
    'FOR $o IN document("a.xml")//auction '
    "RETURN <m>{$o/@id}{count($o/bid)}{$o/bid}{$o/bid/@by}</m>",
    # paths over two joined classes, interleaved: three runs
    'FOR $p IN document("a.xml")//person '
    'FOR $o IN document("a.xml")//auction '
    "WHERE $p/@id = $o/bid/@by "
    "RETURN <m>{$p/name/text()}{$p/age}{$o/@id}{$p/@id}{$o/bid}</m>",
    # multi-path RETURN inside a correlated LET block and outside it
    'FOR $p IN document("a.xml")//person '
    'LET $a := FOR $o IN document("a.xml")//auction '
    "          WHERE $o/bid/@by = $p/@id "
    "          RETURN <t id={$o/@id}>{$o/bid}{count($o/bid)}</t> "
    "RETURN <n c={count($a)} id={$p/@id}>{$p/name/text()}{$p/age}</n>",
]


@st.composite
def auction_documents(draw):
    n_persons = draw(st.integers(1, 5))
    n_auctions = draw(st.integers(0, 5))
    persons = []
    for number in range(n_persons):
        age = draw(st.one_of(st.none(), st.integers(18, 60)))
        age_xml = f"<age>{age}</age>" if age is not None else ""
        persons.append(
            f'<person id="p{number}"><name>n{number}</name>{age_xml}'
            "</person>"
        )
    auctions = []
    for number in range(n_auctions):
        n_bids = draw(st.integers(0, 4))
        bids = "".join(
            f'<bid by="p{draw(st.integers(0, n_persons - 1))}">'
            f"{draw(st.integers(1, 40))}</bid>"
            for _ in range(n_bids)
        )
        auctions.append(f'<auction id="a{number}">{bids}</auction>')
    return (
        "<site><people>"
        + "".join(persons)
        + "</people><auctions>"
        + "".join(auctions)
        + "</auctions></site>"
    )


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(auction_documents())
def test_engines_agree_on_random_documents(xml):
    _engines_agree(xml, QUERIES)


def _engines_agree(xml, queries):
    engine = Engine()
    engine.load_xml("a.xml", xml)
    for query in queries:
        others = {
            name: canonical_sorted(engine.run(query, engine=name))
            for name in ("gtp", "tax", "nav")
        }
        tlc = canonical_sorted(engine.run(query, engine="tlc"))
        for name, result in others.items():
            assert tlc == result, f"{name} diverged on: {query}\n{xml}"


@pytest.fixture
def one_person_document():
    """What Hypothesis shrank the per-tree divergence of PR 26 to: one
    ``name`` node matched by two edges of one fused extension Select."""
    return (
        '<site><people><person id="p0"><name>n0</name></person></people>'
        "<auctions></auctions></site>"
    )


def test_two_edges_over_one_scan_keep_their_classes(one_person_document):
    """``$p/name/text()`` and ``$p/name`` share the cached ``name`` scan;
    the branch built for one edge must never be attached, with its class
    label, for the other (the per-tree extension used to memoise built
    subtrees by match-variant identity alone and returned
    ``<m id="p0">n0 n0</m>``)."""
    _engines_agree(one_person_document, [QUERIES[5]])
    engine = Engine()
    engine.load_xml("a.xml", one_person_document)
    (tree,) = engine.run(QUERIES[5])
    assert tree.to_xml() == '<m id="p0">n0<name>n0</name></m>'


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(auction_documents())
def test_rewrites_preserve_results_on_random_documents(xml):
    engine = Engine()
    engine.load_xml("a.xml", xml)
    head = (
        'FOR $p IN document("a.xml")//person '
        'FOR $o IN document("a.xml")//auction '
        "WHERE count($o/bid) > 1 AND $p/@id = $o/bid/@by "
    )
    for ret in (
        "RETURN <r name={$p/name/text()}> $o/bid </r>",
        # the re-fetched $o/bid is one edge of a fused three-edge Select:
        # Illuminate replaces that edge only
        "RETURN <r name={$p/name/text()}>{$o/@id} $o/bid {$o/bid/@by}</r>",
    ):
        reference = canonical_sorted(engine.run(head + ret, engine="nav"))
        plain = canonical_sorted(engine.run(head + ret, engine="tlc"))
        optimized = canonical_sorted(
            engine.run(head + ret, engine="tlc", optimize=True)
        )
        assert plain == optimized, ret
        assert plain == reference, ret
