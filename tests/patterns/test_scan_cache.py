"""Unit and engine-level tests for the query-scoped ScanCache."""

import pytest

from repro import Engine
from repro.bench.harness import WORK_COUNTERS
from repro.patterns.scan_cache import Candidates, ScanCache
from repro.storage.stats import Metrics
from repro.xmark import FIGURE15_ORDER, QUERIES
from tests.conftest import TINY_AUCTION

QUERY = (
    'FOR $p IN document("auction.xml")//person '
    "WHERE $p//age > 25 RETURN <o>{$p/name/text()}</o>"
)


class TestScanCache:
    def test_builds_on_miss_and_shares_on_hit(self):
        cache = ScanCache()
        built = []

        def build():
            built.append(1)
            return Candidates([1, 2, 3], "t", [None] * 3)

        first = cache.candidates(("doc", "tag", ()), build)
        second = cache.candidates(("doc", "tag", ()), build)
        assert first is second
        assert built == [1]
        assert len(cache) == 1

    def test_distinct_keys_do_not_collide(self):
        cache = ScanCache()
        a = cache.candidates(("doc", "a", ()), lambda: Candidates([1]))
        b = cache.candidates(("doc", "b", ()), lambda: Candidates([2]))
        assert a is not b and (a.ids, b.ids) == ([1], [2])
        assert len(cache) == 2

    def test_hits_are_metered(self):
        metrics = Metrics()
        cache = ScanCache(metrics)
        key = ("doc", "tag", ())
        cache.candidates(key, lambda: Candidates())
        assert metrics.scan_cache_hits == 0
        cache.candidates(key, lambda: Candidates())
        cache.candidates(key, lambda: Candidates())
        assert metrics.scan_cache_hits == 2

    def test_clear_makes_cache_cold(self):
        cache = ScanCache()
        key = ("doc", "tag", ())
        first = cache.candidates(key, lambda: Candidates([1]))
        cache.clear()
        assert len(cache) == 0
        second = cache.candidates(key, lambda: Candidates([1]))
        assert first is not second


class TestCandidates:
    def test_columns_start_unset(self):
        candidates = Candidates([1, 2], "t", ["a", "b"])
        assert candidates.starts is None
        assert candidates.levels is None
        assert candidates.items is None and not candidates.flat

    def test_ready_columns_start_unset(self):
        assert Candidates([1]).ready is None

    def test_slots_reject_arbitrary_attributes(self):
        candidates = Candidates()
        with pytest.raises(AttributeError):
            candidates.extra = 1

    def test_variants_are_created_on_access_only(self):
        """Index, slice and iteration build fresh slot-less variants off
        the columns; the view itself holds none."""
        candidates = Candidates([7, 8, 9], "t", ["a", "b", "c"])
        assert len(candidates) == 3
        one = candidates[1]
        assert (one.nid, one.tag, one.value, one.slots) == (8, "t", "b", [])
        assert candidates[1] is not one
        assert [m.nid for m in candidates[1:]] == [8, 9]
        assert [(m.nid, m.value) for m in candidates] == [
            (7, "a"), (8, "b"), (9, "c")
        ]
        assert candidates[-1].nid == 9

    def test_a_tag_column_serves_a_wildcard_scan(self):
        candidates = Candidates([1, 2], ["x", "y"], [None, "v"])
        assert [m.tag for m in candidates] == ["x", "y"]
        assert candidates[1].tag == "y"
        assert list(candidates.run_tags(0, 2)) == ["x", "y"]
        assert list(Candidates([1, 2], "t", [0, 0]).run_tags(0, 2)) == [
            "t", "t"
        ]

    def test_a_view_of_existing_variants_hands_them_out(self):
        items = list(Candidates([5, 6], "t", [None, None]))
        view = Candidates.of(items)
        assert view.ids == [5, 6] and view.items is items
        assert view[0] is items[0] and view[:] == items
        assert list(view) == items


class TestEngineIntegration:
    @pytest.fixture
    def engine(self):
        instance = Engine()
        instance.load_xml("auction.xml", TINY_AUCTION)
        return instance

    def test_cached_and_uncached_results_identical(self, engine):
        cached = [t.to_xml() for t in engine.run(QUERY)]
        uncached = [t.to_xml() for t in engine.run(QUERY, scan_cache=False)]
        assert cached == uncached

    def test_cache_is_query_scoped(self, engine):
        """A fresh Context gets a fresh cache: runs do not warm each other."""
        engine.db.reset_metrics()
        engine.run(QUERY)
        first = engine.db.metrics.index_lookups
        engine.db.reset_metrics()
        engine.run(QUERY)
        assert engine.db.metrics.index_lookups == first

    def test_cache_never_increases_work(self, engine):
        engine.db.reset_metrics()
        engine.run(QUERY, scan_cache=False)
        uncached = engine.db.metrics.snapshot()
        engine.db.reset_metrics()
        engine.run(QUERY)
        cached = engine.db.metrics.snapshot()
        for counter in (
            "index_lookups",
            "index_entries_scanned",
            "nodes_touched",
            "pages_read",
        ):
            assert cached.get(counter, 0) <= uncached.get(counter, 0)


def _run_xmark(engine, name, scan_cache):
    engine.db.reset_metrics()
    result = engine.run(QUERIES[name].text, engine="tlc", scan_cache=scan_cache)
    return [tree.to_xml() for tree in result], engine.db.metrics.snapshot()


@pytest.mark.parametrize("name", FIGURE15_ORDER)
def test_xmark_cache_is_invisible_except_in_the_work(xmark_engine, name):
    """Same trees in the same order, and never more metered work."""
    uncached, uncached_counters = _run_xmark(xmark_engine, name, False)
    cached, cached_counters = _run_xmark(xmark_engine, name, True)
    assert cached == uncached, f"{name}: scan cache changed the result"
    grew = {
        key: (uncached_counters.get(key, 0), cached_counters.get(key, 0))
        for key in WORK_COUNTERS
        if cached_counters.get(key, 0) > uncached_counters.get(key, 0)
    }
    assert not grew, f"{name}: scan cache increased work counters {grew}"


def test_cache_hits_observed_on_repeat_scans(xmark_engine):
    """A query that scans the same tag twice registers cache hits."""
    xmark_engine.db.reset_metrics()
    xmark_engine.run(QUERIES["x10"].text, engine="tlc")
    assert xmark_engine.db.metrics.scan_cache_hits > 0


def test_shared_columns_survive_every_query(xmark_engine):
    """Scans hand the index's own columns to the joins (and the cache
    hands one candidate list to several joins): after all 23 queries,
    cached and uncached, no index column may have been written to."""
    for name in FIGURE15_ORDER:
        for scan_cache in (True, False):
            _run_xmark(xmark_engine, name, scan_cache)
    document = xmark_engine.db.document("auction.xml")
    index = xmark_engine.db.tag_index("auction.xml")
    for tag in index.tags():
        postings = index.postings(tag)
        idxs = [i for i, t in enumerate(document.tags) if t == tag]
        assert list(postings.ids) == [document.ids[i] for i in idxs]
        assert postings.starts == [(n.doc, n.start) for n in postings.ids]
        assert list(postings.levels) == [n.level for n in postings.ids]
        assert list(postings.values) == [document.values[i] for i in idxs]


def test_cached_scan_columns_are_never_a_join_output(tiny_db):
    """Combination builds fresh lists: the cached candidates (whose
    columns alias the index) are not what a join's result is written to."""
    from repro.patterns import APT, PatternMatcher, pattern_node

    cache = ScanCache(tiny_db.metrics)
    matcher = PatternMatcher(tiny_db, scan_cache=cache)
    root = pattern_node("open_auction", 1)
    root.add_edge(pattern_node("bidder", 2), "pc", "*")
    memo = {}
    variants = matcher._match_node_db(root, "auction.xml", memo)
    index = tiny_db.tag_index("auction.xml")
    parents = cache.candidates(
        ("auction.xml", "open_auction", ()), lambda: None
    )
    children = cache.candidates(("auction.xml", "bidder", ()), lambda: None)
    assert children.starts is index.postings("bidder").starts
    assert children.levels is index.postings("bidder").levels
    assert children.ids is index.postings("bidder").ids
    assert children.values is index.postings("bidder").values
    assert variants is not parents and variants.starts is None
    assert parents.items is None and children.items is None
    # a leaf child's cluster is a run over the cached view's columns
    assert [m.slots[0] for m in variants] == [
        (children, 0, 3), (children, 3, 4), []
    ]
    assert all(m.slots == [] for m in [*parents, *children])
