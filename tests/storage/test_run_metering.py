"""Run-length page metering is exactly the per-record metering.

``Document.touch_runs`` / ``touch_range`` replace one metered read per
record (what ``value_of`` does) in tag scans and subtree
materialisation.  The claim is not
"close": for any read sequence, any mix of documents sharing one pool
and any pool capacity — evictions in the middle of a run included —
``pages_read``, ``buffer_hits``, ``nodes_touched`` *and the pool's LRU
residency order* equal those of the per-record loop.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.document import Document
from repro.storage.page import NODES_PER_PAGE, BufferPool
from repro.storage.postings import Postings
from repro.storage.stats import Metrics
from repro.storage.xml_parser import parse_xml

#: three documents of 4-6 pages; the third is nested so its subtrees
#: span page boundaries at every size
_TEXTS = (
    "<r>" + "<a/>" * (4 * NODES_PER_PAGE) + "</r>",
    "<r>" + "<a><b/></a>" * (3 * NODES_PER_PAGE) + "</r>",
    "<r>"
    + ("<s>" + "<a><b/><b><c/></b></a>" * 23 + "</s>") * 4
    + "</r>",
)


def _documents():
    return [
        Document.from_parsed(f"d{i}.xml", i, parse_xml(text))
        for i, text in enumerate(_TEXTS)
    ]


#: two independent copies: per-record reference side, run-metered side
_REFERENCE, _RUNS = _documents(), _documents()


def _attach(documents, capacity):
    metrics = Metrics()
    pool = BufferPool(capacity, metrics)
    for document in documents:
        document.attach(pool, metrics)
    return pool, metrics


def _state(pool, metrics):
    return (
        metrics.pages_read,
        metrics.buffer_hits,
        metrics.nodes_touched,
        list(pool._resident),
    )


_read = st.tuples(
    st.integers(0, len(_TEXTS) - 1),
    st.lists(st.integers(0, 3 * NODES_PER_PAGE), max_size=40),
    st.booleans(),
)


@settings(max_examples=150, deadline=None)
@given(
    capacity=st.integers(1, 8),
    n_docs=st.integers(1, 3),
    reads=st.lists(_read, min_size=1, max_size=6),
)
def test_touch_runs_equals_fetch_per_record(capacity, n_docs, reads):
    ref_pool, ref_metrics = _attach(_REFERENCE, capacity)
    run_pool, run_metrics = _attach(_RUNS, capacity)
    for doc_no, record_idxs, in_order in reads:
        doc_no %= n_docs
        if in_order:  # the shape of a real posting list
            record_idxs = sorted(set(record_idxs))
        for idx in record_idxs:
            _read(_REFERENCE[doc_no], idx)
        document = _RUNS[doc_no]
        postings = Postings(
            [document.ids[idx] for idx in record_idxs],
            record_idxs,
            [document.values[idx] for idx in record_idxs],
        )
        document.touch_runs(postings.run_pages, len(postings))
        assert _state(run_pool, run_metrics) == _state(
            ref_pool, ref_metrics
        )


def _read(document, idx):
    """One metered record read, through the buffer pool."""
    document.value_of(document.ids[idx])


def _fetch_subtree(document, idx):
    """Pre-order, one read per record: the former ``subtree`` walk."""
    _read(document, idx)
    for child in document.child_indexes(idx):
        _fetch_subtree(document, child)


@settings(max_examples=150, deadline=None)
@given(
    capacity=st.integers(1, 8),
    roots=st.lists(
        st.tuples(st.integers(0, len(_TEXTS) - 1), st.integers(0, 10_000)),
        min_size=1,
        max_size=6,
    ),
)
def test_subtree_range_equals_fetch_per_record(capacity, roots):
    ref_pool, ref_metrics = _attach(_REFERENCE, capacity)
    run_pool, run_metrics = _attach(_RUNS, capacity)
    for doc_no, position in roots:
        idx = position % len(_RUNS[doc_no])
        _fetch_subtree(_REFERENCE[doc_no], idx)
        tree = _RUNS[doc_no].subtree(_RUNS[doc_no].ids[idx])
        assert tree.nid is _RUNS[doc_no].ids[idx]
        assert _state(run_pool, run_metrics) == _state(
            ref_pool, ref_metrics
        )


def test_run_pages_are_the_run_length_form_of_the_page_column():
    document = _RUNS[0]
    idxs = [0, 1, 63, 64, 65, 200, 10, 11, 64]
    postings = Postings(
        [document.ids[i] for i in idxs],
        idxs,
        [None] * len(idxs),
    )
    assert list(postings.run_pages) == [0, 1, 3, 0, 1]


def test_unattached_document_meters_nothing():
    document = Document.from_parsed("x.xml", 0, parse_xml("<r><a/></r>"))
    document.touch_runs([0], 3)  # no pool, no metrics: a no-op
    document.touch_range(0, 3)
    assert document.subtree(document.root_id).tag == "doc_root"
