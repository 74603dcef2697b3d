"""The column scan against a per-record reference scan.

``reference_scan`` is the scan the matcher used to run — one record
fetched through the buffer pool per posting — kept here as the test
oracle.  It shares no code with ``repro.patterns.match``: it talks to the
``Database`` facade only.  For every tag of the tiny and XMark fixtures
and every predicate shape, the matcher's scan must return the same
``(nid, tag, value)`` sequence, leave every counter and the pool's
residency order identical, and carry probe columns equal to the ones a
structural join would derive from the candidates themselves.
"""

import pytest

from repro.model.value import compare
from repro.patterns import PatternMatcher
from repro.patterns.predicates import NodeTest
from repro.physical.structural_join import child_columns
from repro.storage import Database
from repro.xmark import load_xmark
from tests.conftest import TINY_AUCTION

_INDEXABLE = ("=", "!=", "<", "<=", ">", ">=")


def reference_scan(db, doc_name, tag, comparisons):
    """Per-record scan: ``(nid, tag, value)`` of every matching node."""
    document = db.document(doc_name)
    if tag is None:
        nids = [document.node_id(idx) for idx in range(len(document))]
        rest = comparisons
    else:
        indexable = [c for c in comparisons if c[0] in _INDEXABLE]
        if indexable:
            nids = db.value_lookup(doc_name, tag, *indexable[0])
            rest = tuple(c for c in comparisons if c != indexable[0])
        else:
            nids = db.tag_lookup(doc_name, tag)
            rest = comparisons
    out = []
    for nid in nids:
        idx = document.index_of(nid)
        document.touch_range(idx, idx + 1)  # one record read
        value = document.values[idx]
        if all(compare(value, op, rhs) for op, rhs in rest):
            out.append((nid, document.tags[idx], value))
    return out


def _observe(db, scan):
    db.reset_metrics(cold_cache=True)
    result = scan()
    return result, db.metrics.snapshot(), list(db.pool._resident)


def _predicates(values):
    """No predicate, ``=``, range, ``!=``, two comparisons, non-indexable."""
    some = next((v for v in values if v is not None), "x")
    other = next((v for v in values if v not in (None, some)), "y")
    return (
        (),
        (("=", some),),
        ((">", some),),
        (("<=", some), (">=", other)),
        (("!=", some),),
        (("!=", some), ("contains", other[:2])),
        (("contains", some[:2]),),
        (("contains", some[:1]), ("contains", other[-1:])),
    )


@pytest.fixture(scope="module", params=["tiny", "xmark"])
def db(request):
    database = Database()
    if request.param == "tiny":
        database.load_xml("auction.xml", TINY_AUCTION)
    else:
        load_xmark(database, factor=0.002)
    return database


def _check(db, tag, comparisons):
    matcher = PatternMatcher(db)
    expected = _observe(
        db, lambda: reference_scan(db, "auction.xml", tag, comparisons)
    )
    candidates, counters, residency = _observe(
        db,
        lambda: matcher._scan_candidates(
            NodeTest(tag, comparisons), "auction.xml"
        ),
    )
    label = f"{tag}{comparisons}"
    assert [(m.nid, m.tag, m.value) for m in candidates] == expected[0], label
    assert counters == expected[1], label
    assert residency == expected[2], label
    derived = child_columns(list(candidates), lambda m: m.nid)
    adopted = child_columns(candidates, lambda m: m.nid)
    assert (list(adopted[0]), list(adopted[1])) == derived, label
    assert candidates.starts is adopted[0]
    assert candidates.levels is adopted[1]
    return candidates


def test_every_tag_and_predicate_shape(db):
    index = db.tag_index("auction.xml")
    scanned = 0
    for tag in index.tags():
        if tag == "doc_root":
            continue
        for comparisons in _predicates(index.postings(tag).values):
            scanned += len(_check(db, tag, comparisons))
    assert scanned > 0


def test_wildcard_scan(db):
    document = db.document("auction.xml")
    for comparisons in _predicates(document.values)[:5]:
        _check(db, None, comparisons)


def test_missing_tag_scans_empty(db):
    assert list(_check(db, "no-such-tag", ())) == []
    assert list(_check(db, "no-such-tag", (("contains", "x"),))) == []


def test_unfiltered_scan_shares_the_postings_columns(db):
    index = db.tag_index("auction.xml")
    tag = max(index.tags(), key=index.count)
    postings = index.postings(tag)
    candidates = _check(db, tag, ())
    assert candidates.starts is postings.starts
    assert candidates.levels is postings.levels
    assert candidates.ids is postings.ids
    assert candidates.values is postings.values
    assert candidates.tag == tag and candidates.flat is postings.flat
    assert candidates.items is None


def test_scan_under_a_small_pool_evicts_identically():
    small = Database(pool_pages=2)
    load_xmark(small, factor=0.002)
    for tag in ("item", "name", "text", "bidder"):
        for comparisons in ((), (("contains", "a"),)):
            _check(small, tag, comparisons)
