"""E10 — Ablation: sort–merge–sort vs nested-loop value joins.

Section 5.1 argues that interval node ids (Property 3) let TIMBER replace
order-preserving nested-loop joins with sort–merge–sort: sort by join
value, merge, then re-sort the output by the left root's node id.  This
ablation times both physical strategies on the same join workload and
verifies the document-order guarantee holds either way.

The inequality case is x11's join (``profile/@income > initial``): the
band join (right side sorted once, one bisection per left item) against
the nested loop, with the pair *sequences* required to be identical —
the Nest-Value-Join builds its clusters from that order.
"""

from __future__ import annotations

import pytest

from repro.model.value import atomize, compare
from repro.physical.value_join import BAND_OPS, merge_equi_join, theta_join


def _workload(harness, factor):
    """(person @id values, bidder @person values) with payload indexes."""
    engine = harness.engine_for(factor)
    db = engine.db
    persons = [
        (db.value_of(nid), nid)
        for nid in db.value_lookup("auction.xml", "@id", ">=", "")
        if db.value_of(nid) and db.value_of(nid).startswith("person")
    ]
    refs = [
        (db.value_of(nid), nid)
        for nid in db.tag_lookup("auction.xml", "@person")
    ]
    return persons, refs


def _nested_loop(left, right):
    return [
        (l, r)
        for l in left
        for r in right
        if compare(atomize(l[0]), "=", atomize(r[0]))
    ]


def _sort_merge_sort(left, right):
    pairs = merge_equi_join(
        left, right, lambda x: x[0], lambda x: x[0]
    )
    # the final sort restores document order of the left side
    pairs.sort(key=lambda pair: pair[0][1].order_key)
    return pairs


@pytest.mark.parametrize("strategy", ["sort-merge-sort", "nested-loop"])
def test_value_join_strategies(benchmark, harness, bench_factor, strategy):
    left, right = _workload(harness, bench_factor)
    benchmark.group = "ablation-valuejoin"
    if strategy == "sort-merge-sort":
        result = benchmark.pedantic(
            lambda: _sort_merge_sort(left, right), rounds=3, iterations=1
        )
    else:
        result = benchmark.pedantic(
            lambda: _nested_loop(left, right), rounds=3, iterations=1
        )
    assert result


def test_strategies_agree_and_order_restored(harness, bench_factor):
    left, right = _workload(harness, bench_factor)
    merged = _sort_merge_sort(left, right)
    naive = _nested_loop(left, right)
    assert len(merged) == len(naive)
    assert {(l[1], r[1]) for l, r in merged} == {
        (l[1], r[1]) for l, r in naive
    }
    keys = [l[1].order_key for l, _ in merged]
    assert keys == sorted(keys)


# ----------------------------------------------------------------------
# inequality: band join vs nested loop
# ----------------------------------------------------------------------
def _band_workload(harness, factor):
    """(person @income values, open_auction initial values), x11's join."""
    db = harness.engine_for(factor).db

    def column(tag):
        return [
            (db.value_of(nid), nid)
            for nid in db.tag_lookup("auction.xml", tag)
        ]

    return column("@income"), column("initial")


def _nested_loop_theta(left, right, op):
    return [
        (l, r)
        for l in left
        for r in right
        if compare(atomize(l[0]), op, atomize(r[0]))
    ]


def _band(left, right, op):
    return theta_join(left, right, op, lambda x: x[0], lambda x: x[0])


@pytest.mark.parametrize("strategy", ["band", "nested-loop"])
def test_inequality_join_strategies(
    benchmark, harness, bench_factor, strategy
):
    left, right = _band_workload(harness, bench_factor)
    benchmark.group = "ablation-valuejoin-inequality"
    join = _band if strategy == "band" else _nested_loop_theta
    result = benchmark.pedantic(
        lambda: join(left, right, ">"), rounds=3, iterations=1
    )
    assert result


@pytest.mark.parametrize("op", BAND_OPS)
def test_band_join_pair_sequence_is_the_nested_loops(
    harness, bench_factor, op
):
    left, right = _band_workload(harness, bench_factor)
    assert left and right
    assert _band(left, right, op) == _nested_loop_theta(left, right, op)
