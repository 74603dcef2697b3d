"""Tag-name and content-value indexes.

The paper's setup (Section 6.2): "We used an index on element tag name for
all the queries, which returns the node identifiers given a tag name.  On
all queries that had a condition on content we used a value index, which
returns the node ids given a content value."  No join-value index exists —
a limitation the paper calls out and we keep.

Both indexes are **columnar**: at build time the postings of each tag are
frozen into a :class:`~repro.storage.postings.Postings` view carrying the
parallel ``(doc, start)`` / ``end`` / ``level`` arrays the structural
joins probe, and the value index stores its sorted key column once, so no
lookup ever rebuilds a key array or copies a posting list.

Index leaf pages are metered through the buffer pool so that index scans
contribute to the I/O counts (one simulated page per ``ENTRIES_PER_PAGE``
postings).
"""

from __future__ import annotations

import bisect
from array import array
from typing import Dict, List, Optional, Sequence

from ..model.node_id import NodeId
from ..model.value import Atomic, sort_key
from .document import Document
from .page import BufferPool
from .postings import EMPTY_POSTINGS, Postings
from .stats import Metrics

#: Postings per simulated index leaf page.
ENTRIES_PER_PAGE = 256

_NO_ENTRIES = array("i")


class TagIndex:
    """tag name -> columnar postings of node ids in document order."""

    def __init__(self, document: Document) -> None:
        self._doc = document
        by_tag: Dict[str, List[int]] = {}
        for idx, tag in enumerate(document.tags):
            record_idxs = by_tag.get(tag)
            if record_idxs is None:
                record_idxs = by_tag[tag] = []
            record_idxs.append(idx)
        # document order == record order, already sorted; every column a
        # tag scan reads is frozen here, next to the document's own ids
        ids, values = document.ids, document.values
        self._postings: Dict[str, Postings] = {
            tag: Postings(
                [ids[idx] for idx in record_idxs],
                record_idxs,
                [values[idx] for idx in record_idxs],
            )
            for tag, record_idxs in by_tag.items()
        }

    def lookup(
        self,
        tag: str,
        pool: Optional[BufferPool] = None,
        metrics: Optional[Metrics] = None,
    ) -> Postings:
        """All nodes with the given tag, in document order (metered).

        Returns the index's own immutable :class:`Postings` view — no
        copy is taken, so callers must not (and cannot) mutate it.
        """
        postings = self._postings.get(tag, EMPTY_POSTINGS)
        _meter(("tagidx", self._doc.doc_id, tag), len(postings), pool, metrics)
        return postings

    def postings(self, tag: str) -> Postings:
        """The raw columnar view for ``tag`` (unmetered; optimizer use)."""
        return self._postings.get(tag, EMPTY_POSTINGS)

    def tags(self) -> List[str]:
        """All distinct tags in the document."""
        return sorted(self._postings)

    def count(self, tag: str) -> int:
        """Number of nodes with the given tag (no page touches)."""
        return len(self._postings.get(tag, ()))


class ValueIndex:
    """(tag, content value) -> node ids; supports equality and ranges.

    Postings for each tag are kept sorted by the total-order
    :func:`~repro.model.value.sort_key` of the content, so equality uses
    binary search and range predicates scan a contiguous run.  Each tag
    holds two parallel columns built once: the sorted keys and the
    record index of each entry.
    """

    def __init__(self, document: Document) -> None:
        self._doc = document
        positions: Dict[str, List[int]] = {}
        for idx, (tag, value) in enumerate(
            zip(document.tags, document.values)
        ):
            if value is not None:
                positions.setdefault(tag, []).append(idx)
        #: per-tag sorted key column
        self._keys: Dict[str, List[tuple]] = {}
        #: per-tag record indexes, parallel to the key column
        self._by_tag: Dict[str, array] = {}
        values = document.values
        for tag, record_idxs in positions.items():
            keys = [sort_key(values[idx]) for idx in record_idxs]
            # entries arrive in document order and the sort is stable,
            # so equal keys stay in document order
            order = sorted(range(len(keys)), key=keys.__getitem__)
            self._keys[tag] = [keys[i] for i in order]
            self._by_tag[tag] = array("i", [record_idxs[i] for i in order])

    def lookup(
        self,
        tag: str,
        op: str,
        value: Atomic,
        pool: Optional[BufferPool] = None,
        metrics: Optional[Metrics] = None,
    ) -> List[NodeId]:
        """Nodes whose tag is ``tag`` and content compares ``op value``.

        Supported operators: ``=  !=  <  <=  >  >=``.  Results are returned
        in document order (record order).  ``!=`` degrades to a full scan
        of the tag's postings (as a real B-tree would).

        Metering counts the entries the index actually scanned: the
        binary-search slice for ``=`` and the range operators (before the
        value-kind filter drops mixed-type entries), and the full posting
        list for ``!=``.
        """
        record_idxs = self._by_tag.get(tag, _NO_ENTRIES)
        keys = self._keys.get(tag, [])
        key = sort_key(value)
        hits: Sequence[int]
        if op == "!=":
            hits = [i for k, i in zip(keys, record_idxs) if k != key]
            scanned = len(keys)
        else:
            if op == "=":
                lo = bisect.bisect_left(keys, key)
                hi = bisect.bisect_right(keys, key)
            elif op == "<":
                lo, hi = 0, bisect.bisect_left(keys, key)
            elif op == "<=":
                lo, hi = 0, bisect.bisect_right(keys, key)
            elif op == ">":
                lo, hi = bisect.bisect_right(keys, key), len(keys)
            elif op == ">=":
                lo, hi = bisect.bisect_left(keys, key), len(keys)
            else:
                raise ValueError(f"unsupported index operator: {op!r}")
            scanned = hi - lo
            hits = record_idxs[lo:hi]
            if op != "=":
                # range operators must not match non-numeric content
                # against numbers
                kind = key[0]
                hits = [
                    i for k, i in zip(keys[lo:hi], hits) if k[0] == kind
                ]
        _meter(
            ("validx", self._doc.doc_id, tag),
            max(scanned, 1),
            pool,
            metrics,
        )
        ids = self._doc.ids
        return [ids[i] for i in sorted(hits)]


def _meter(
    key_prefix: tuple,
    n_entries: int,
    pool: Optional[BufferPool],
    metrics: Optional[Metrics],
) -> None:
    """Account one index lookup touching ceil(n/ENTRIES_PER_PAGE) pages."""
    if metrics is not None:
        metrics.index_lookups += 1
        metrics.index_entries_scanned += n_entries
    if pool is not None:
        n_pages = max(1, -(-n_entries // ENTRIES_PER_PAGE))
        for page_no in range(n_pages):
            pool.access(key_prefix + (page_no,))
