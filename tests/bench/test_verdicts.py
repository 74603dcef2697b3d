"""The §6.3 counter claims, pinned at factor 0.002 (counters are exact).

A change that flips a verdict must edit ``PINNED`` and say why.  NAV on
x9 is left out, as in ``test_cross_engine``: ~15 s at this factor.
"""

import pytest

from repro.bench import FIGURE15_ENGINES, Harness
from repro.bench.verdicts import verdicts
from repro.xmark import FIGURE15_ORDER, QUERIES

PINNED = {
    "TLC runs 0 groupby_ops, GTP groups where TLC nest-joins": True,
    "TAX touches more nodes than TLC": True,
    "NAV makes 0 index_lookups": True,
    "OPT runs fewer structural_joins": True,
    # the rewrites cut structural joins, not stored-node accesses:
    # x3 575, x5 341, Q1 875 and Q2 1704 nodes under both plans
    "OPT touches fewer nodes": False,
    "nodes_touched linear in factor": True,
}


@pytest.fixture(scope="module")
def measured(xmark_engine):
    harness = Harness(_engines={0.002: xmark_engine})
    reports = {
        "15": [
            xmark_engine.measure(QUERIES[q].text, engine=e, label=q)
            for q in FIGURE15_ORDER
            for e in FIGURE15_ENGINES
            if (q, e) != ("x9", "nav")
        ],
        "16": harness.figure16(0.002),
        "17": harness.figure17(0.002),
    }
    return {
        claim: holds
        for figure, rows in reports.items()
        for claim, holds, _ in verdicts(figure, rows)
    }


@pytest.mark.parametrize("claim", PINNED)
def test_counter_verdict_is_pinned(measured, claim):
    assert measured[claim] is PINNED[claim]
