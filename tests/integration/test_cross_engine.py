"""Integration: all four engines agree on every benchmark query.

This is the repository's strongest correctness check — TLC, TAX, GTP and
the navigational interpreter are four independent implementations of the
same query semantics, so content-identical output on the full XMark suite
cross-validates all of them.
"""

import pytest

from repro.errors import CardinalityError
from repro.xmark import FIGURE15_ORDER, QUERIES
from tests.conftest import canonical_sorted

#: x9 under NAV is cubic (nested loops over three sources); keep it out of
#: the every-commit matrix and cover it in the slow marker test below.
_FAST = [name for name in FIGURE15_ORDER if name != "x9"]


@pytest.mark.parametrize("name", _FAST)
def test_engines_agree(xmark_engine, name):
    query = QUERIES[name].text
    reference = canonical_sorted(xmark_engine.run(query, engine="tlc"))
    assert reference == canonical_sorted(
        xmark_engine.run(query, engine="gtp")
    ), f"{name}: GTP diverges from TLC"
    assert reference == canonical_sorted(
        xmark_engine.run(query, engine="tax")
    ), f"{name}: TAX diverges from TLC"
    assert reference == canonical_sorted(
        xmark_engine.run(query, engine="nav")
    ), f"{name}: NAV diverges from TLC"


@pytest.mark.parametrize("name", FIGURE15_ORDER)
def test_tlc_produces_output_or_valid_empty(xmark_engine, name):
    """Every query runs; empty results only where selectivity explains it."""
    result = xmark_engine.run(QUERIES[name].text, engine="tlc")
    assert result is not None
    if name not in ("x1", "x4", "x10a", "Q1", "x16"):  # selective ones
        assert len(result) > 0, f"{name} unexpectedly empty"


def test_x9_all_engines_agree(xmark_engine):
    """The cubic NAV case, run once."""
    query = QUERIES["x9"].text
    reference = canonical_sorted(xmark_engine.run(query, engine="tlc"))
    for engine in ("gtp", "tax", "nav"):
        assert reference == canonical_sorted(
            xmark_engine.run(query, engine=engine)
        )


def test_document_order_of_tlc_output(xmark_engine):
    """x19's ORDER BY must order by the key across engines."""
    query = QUERIES["x19"].text
    result = xmark_engine.run(query, engine="tlc")
    locations = [
        tree.nodes_in_class_values
        if hasattr(tree, "nodes_in_class_values")
        else [
            c.value
            for n in tree.root.walk()
            for c in [n]
            if c.tag == "loc"
        ]
        for tree in result
    ]
    flat = [loc[0] for loc in locations if loc]
    assert flat == sorted(flat)


# ----------------------------------------------------------------------
# LETs read only by count(): the count form of the nest join
# ----------------------------------------------------------------------
_D = 'document("auction.xml")'

#: Each LET is used only as count($v), so it joins by the count form.
COUNTED_LETS = {
    "no-matches": (
        f"FOR $p IN {_D}//person LET $a := FOR $t IN {_D}//closed_auction "
        "WHERE $t/buyer/@person = $p/name RETURN <tr/> "
        "RETURN <n>{count($a)}</n>"
    ),
    "left-without-path": (
        f"FOR $p IN {_D}//person LET $l := FOR $i IN {_D}//open_auction "
        "WHERE $p/profile/age > $i/initial RETURN <it/> "
        "RETURN <n>{$p/name/text()}{count($l)}</n>"
    ),
    "equal": QUERIES["x8"].text,
    "greater": QUERIES["x11"].text,
    "not-equal": (
        f"FOR $p IN {_D}//person LET $a := FOR $t IN {_D}//closed_auction "
        "WHERE $t/buyer/@person != $p/@id "
        "RETURN <tr>{$t/price/text()}</tr> "
        "RETURN <n id={$p/@id}>{count($a)}</n>"
    ),
    "two-deferred": (
        f"FOR $p IN {_D}//person LET $a := FOR $t IN {_D}//closed_auction "
        "WHERE $t/buyer/@person = $p/@id AND $t/seller/@person != $p/@id "
        "RETURN <tr/> RETURN <n id={$p/@id}>{count($a)}</n>"
    ),
    "where-and-return": (
        f"FOR $p IN {_D}//person LET $a := FOR $t IN {_D}//closed_auction "
        "WHERE $t/buyer/@person = $p/@id RETURN <tr/> "
        "WHERE count($a) > 0 RETURN <n id={$p/@id}>{count($a)}</n>"
    ),
    "two-lets": (
        f"FOR $p IN {_D}//person LET $a := FOR $t IN {_D}//closed_auction "
        "WHERE $t/buyer/@person = $p/@id RETURN <b/> "
        f"LET $s := FOR $t IN {_D}//closed_auction "
        "WHERE $t/seller/@person = $p/@id RETURN <s/> "
        "RETURN <n bought={count($a)}>{count($s)}</n>"
    ),
    "ordered": (
        f"FOR $p IN {_D}//person LET $a := FOR $t IN {_D}//closed_auction "
        "WHERE $t/buyer/@person = $p/@id ORDER BY $t/price RETURN <tr/> "
        "RETURN <n>{count($a)}</n>"
    ),
}

#: LETs read by more than count(), or whose items are not constructed
#: elements: the Aggregate counts the items the join nests.
KEPT_LETS = {
    "counted-and-read": (
        f"FOR $p IN {_D}//person LET $a := FOR $o IN {_D}//open_auction "
        "WHERE $p/@id = $o/bidder//@person "
        "RETURN <my><q>{$o/quantity/text()}</q></my> "
        "RETURN <person n={count($a)}>{$a/q}</person>"
    ),
    "path-return": (
        f"FOR $p IN {_D}//person LET $a := FOR $t IN {_D}//closed_auction "
        "RETURN $t/price RETURN <n>{count($a)}</n>"
    ),
}

#: The correlation class $w/@open_auction holds every watch of a person.
MULTI_VALUED = (
    f"FOR $p IN {_D}//person LET $w := $p/watches/watch "
    f"LET $a := FOR $i IN {_D}//open_auction "
    "WHERE $i/@id = $w/@open_auction RETURN <x/> RETURN <r>{count($a)}</r>"
)


def _xml(result):
    return [tree.to_xml() for tree in result]


def _without_count_form(monkeypatch):
    """Translate every LET as the tree form: nest, construct, aggregate."""
    from repro.xquery.translator import _Block

    monkeypatch.setattr(_Block, "_counts_only", lambda self, var: False)


@pytest.mark.parametrize("name", sorted(COUNTED_LETS))
def test_counted_let_matches_tree_form_and_nav(
    xmark_engine, monkeypatch, name
):
    query = COUNTED_LETS[name]
    assert "count -> (" in xmark_engine.plan(query).explain()
    counted = xmark_engine.run(query)
    assert canonical_sorted(counted) == canonical_sorted(
        xmark_engine.run(query, engine="nav")
    )
    _without_count_form(monkeypatch)
    assert "count -> (" not in xmark_engine.plan(query).explain()
    # same bytes in the same order as the plan that builds the items
    assert _xml(counted) == _xml(xmark_engine.run(query))


@pytest.mark.parametrize("name", sorted(KEPT_LETS))
def test_other_lets_keep_the_nest_and_aggregate(xmark_engine, name):
    query = KEPT_LETS[name]
    plan = xmark_engine.plan(query).explain()
    assert "count -> (" not in plan
    assert "Aggregate count" in plan
    assert plan.count("Construct") == 2
    assert canonical_sorted(xmark_engine.run(query)) == canonical_sorted(
        xmark_engine.run(query, engine="nav")
    )


def test_multi_valued_correlation_raises_as_the_tree_form(
    xmark_engine, monkeypatch
):
    with pytest.raises(CardinalityError) as counted:
        xmark_engine.run(MULTI_VALUED)
    _without_count_form(monkeypatch)
    with pytest.raises(CardinalityError) as built:
        xmark_engine.run(MULTI_VALUED)
    assert str(counted.value) == str(built.value)
    assert counted.value.operator == "Join"


@pytest.mark.parametrize("engine", ["tax", "gtp"])
def test_baselines_build_and_count_the_items(xmark_engine, engine):
    for name in ("x8", "x9", "x11", "x12"):
        plan = xmark_engine.plan(QUERIES[name].text, engine).explain()
        assert "count -> (" not in plan
        assert "Aggregate count" in plan


@pytest.mark.parametrize("mode", ["thread", "process"])
def test_counted_lets_through_the_service(xmark_engine, mode):
    from repro.service import QueryService

    queries = [QUERIES[name].text for name in ("x8", "x9", "x11", "x12")]
    queries += [COUNTED_LETS[name] for name in sorted(COUNTED_LETS)]
    expected = [_xml(xmark_engine.run(query)) for query in queries]
    with QueryService(xmark_engine, threads=2, mode=mode) as svc:
        results = svc.execute_many(queries)
    assert [_xml(result) for result in results] == expected
