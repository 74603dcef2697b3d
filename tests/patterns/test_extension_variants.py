"""Extension Selects write rows from join alternatives, not variants.

An extension Select's anchored join yields each anchor's per-edge
alternatives, and ``extend_batch`` writes output rows straight from
them: a match variant is built only where a *child* pattern node has
edges of its own (its document-wide match is made of variants), never
per anchor.  This counts ``MatchVariant`` constructions inside the
extension Selects of the thirteen path queries the ``xmark_paths``
benchmark workload runs — a count, so a regression of the path shows
on any host, however noisy its clock.
"""

import pytest

from repro import Engine
from repro.patterns.match import PatternMatcher
from repro.patterns.scan_cache import MatchVariant
from repro.xmark import QUERIES

#: the ``xmark_paths`` workload's texts
PATH_QUERIES = (
    "x1", "x2", "x4", "x6", "x7", "x13", "x14", "x15", "x16", "x17",
    "x18", "x19", "x20",
)


@pytest.fixture(scope="module")
def engine():
    engine = Engine()
    engine.load_xmark(0.005)
    return engine


def _extension_variants(engine, monkeypatch):
    """``(leaf-only edges?, variants built, rows in)`` per extension."""
    built = [0]
    init = MatchVariant.__init__

    def counting_init(self, *args, **kwargs):
        built[0] += 1
        init(self, *args, **kwargs)

    calls = []
    extend_batch = PatternMatcher.extend_batch

    def counted_extend_batch(self, apt, batch):
        before = built[0]
        out = extend_batch(self, apt, batch)
        leaf_only = all(not edge.child.edges for edge in apt.root.edges)
        calls.append((leaf_only, built[0] - before, len(batch)))
        return out

    monkeypatch.setattr(MatchVariant, "__init__", counting_init)
    monkeypatch.setattr(PatternMatcher, "extend_batch", counted_extend_batch)
    for name in PATH_QUERIES:
        engine.run(QUERIES[name].text)
    return calls


def test_leaf_edge_extensions_build_no_variant(engine, monkeypatch):
    calls = _extension_variants(engine, monkeypatch)
    leaf_only = [(count, rows) for leaf, count, rows in calls if leaf]
    # x1 x4 x13 x14 x17 x18 and both of x19's; x2 and x16 extend with
    # a child that has edges of its own
    assert len(leaf_only) == 8
    assert sum(rows for _, rows in leaf_only) > 200
    assert [count for count, _ in leaf_only] == [0] * len(leaf_only)
