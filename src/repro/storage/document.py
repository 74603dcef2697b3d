"""Stored documents: interval-encoded node records behind the buffer pool.

A document is a flat array of :class:`NodeRecord` in document (pre-) order —
record index *i* is the *i*-th node of a depth-first walk, which means nodes
are "clustered with their children" on pages exactly as TIMBER stores them
(Section 6.3, footnote 8).  Interval ids are assigned with an enter/exit
counter so strict containment tests work for leaves as well.

Attributes are stored as child nodes tagged ``@name`` (preceding element
children), matching the paper's pattern trees where ``@id`` and ``@person``
appear as pattern nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..errors import StorageError
from ..model.node_id import NodeId
from ..model.tree import TNode
from .page import NODES_PER_PAGE, BufferPool
from .stats import Metrics
from .xml_parser import ParsedElement, parse_events


@dataclass
class NodeRecord:
    """On-"disk" representation of one node."""

    tag: str
    value: Optional[str]
    start: int
    end: int
    level: int
    parent: int  # record index of the parent; -1 for the root
    children: Tuple[int, ...]  # record indexes of children, document order

    __slots__ = ("tag", "value", "start", "end", "level", "parent", "children")


class RecordBuilder:
    """The one sink that turns element events into interval-encoded records.

    ``start(tag, attrs)`` / ``end(value)`` per element, from either event
    source: :func:`~repro.storage.xml_parser.parse_events` over XML text
    or :meth:`Document.from_parsed`'s walk of a parse tree.  The stored
    root is a synthetic ``doc_root`` element wrapping the document
    element, mirroring the paper's plans whose pattern trees start at
    ``doc_root``; attributes become ``@name`` children ahead of the
    element children.

    Interval ids are the enter/exit counter of the pre-order walk,
    computed from positions: before record *i* at level *L* the walk
    has entered *i* nodes and left *i − L*, so its start is
    ``2i − L + 1``; when it closes with *n* records stored, its end is
    ``2n − L``.
    """

    __slots__ = ("records", "_open", "_children")

    def __init__(self) -> None:
        self.records: List[NodeRecord] = [
            NodeRecord("doc_root", None, 1, 0, 0, -1, ())
        ]
        #: record indexes of the open elements, ``doc_root`` first
        self._open: List[int] = [0]
        #: child record indexes of each open element
        self._children: List[List[int]] = [[]]

    def start(self, tag: str, attrs: Dict[str, str]) -> None:
        records, open_ = self.records, self._open
        idx = len(records)
        level = len(open_)
        self._children[-1].append(idx)
        records.append(
            NodeRecord(tag, None, 2 * idx - level + 1, 0, level, open_[-1], ())
        )
        open_.append(idx)
        children: List[int] = []
        level += 1
        for name, value in attrs.items():
            attr_idx = len(records)
            attr_start = 2 * attr_idx - level + 1
            children.append(attr_idx)
            records.append(
                NodeRecord(
                    "@" + name, value, attr_start, attr_start + 1, level,
                    idx, (),
                )
            )
        self._children.append(children)

    def end(self, value: Optional[str]) -> None:
        rec = self.records[self._open.pop()]
        rec.value = value
        rec.end = 2 * len(self.records) - rec.level
        rec.children = tuple(self._children.pop())

    def finish(self) -> List[NodeRecord]:
        """Close ``doc_root`` and hand over the records."""
        self.end(None)
        return self.records


class Document:
    """One stored XML document with metered record access."""

    def __init__(self, name: str, doc_id: int) -> None:
        self.name = name
        self.doc_id = doc_id
        self.records: List[NodeRecord] = []
        #: the one :class:`NodeId` object of each record, aligned with
        #: ``records`` — indexes, scans and materialised subtrees all
        #: hand out these, never a second id for the same node
        self.ids: Tuple[NodeId, ...] = ()
        self._by_start: Dict[int, int] = {}
        self._pool: Optional[BufferPool] = None
        self._metrics: Optional[Metrics] = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_xml(cls, name: str, doc_id: int, text: str) -> "Document":
        """Build a document from XML text in one pass of parse events."""
        builder = RecordBuilder()
        parse_events(text, builder.start, builder.end)
        return cls.from_records(name, doc_id, builder.finish())

    @classmethod
    def from_parsed(
        cls, name: str, doc_id: int, root: ParsedElement
    ) -> "Document":
        """Build a document from a parse tree, walked without recursion."""
        builder = RecordBuilder()
        start, end = builder.start, builder.end
        # ``None`` on the to-do stack closes the innermost open element
        todo: List[Optional[ParsedElement]] = [root]
        opened: List[ParsedElement] = []
        while todo:
            element = todo.pop()
            if element is None:
                end(opened.pop().text)
                continue
            start(element.tag, element.attrs)
            if element.children:
                opened.append(element)
                todo.append(None)
                todo.extend(reversed(element.children))
            else:
                end(element.text)
        return cls.from_records(name, doc_id, builder.finish())

    @classmethod
    def from_records(
        cls, name: str, doc_id: int, records: List[NodeRecord]
    ) -> "Document":
        """Adopt an already interval-encoded record array."""
        doc = cls(name, doc_id)
        doc.records = records
        doc.ids = tuple(
            [NodeId(doc_id, r.start, r.end, r.level) for r in records]
        )
        doc._by_start = {r.start: i for i, r in enumerate(records)}
        return doc

    def attach(self, pool: BufferPool, metrics: Metrics) -> None:
        """Connect this document to a database's buffer pool and metrics."""
        self._pool = pool
        self._metrics = metrics

    # ------------------------------------------------------------------
    # metered access
    # ------------------------------------------------------------------
    def _touch(self, record_idx: int) -> None:
        if self._pool is not None:
            self._pool.access((self.doc_id, record_idx // NODES_PER_PAGE))
        if self._metrics is not None:
            self._metrics.nodes_touched += 1

    def touch_runs(self, run_pages: Sequence[int], total: int) -> None:
        """Meter ``total`` record reads whose page runs are ``run_pages``.

        ``run_pages`` is the run-length form of the records' page numbers
        in read order: one entry per maximal run of consecutive reads
        that fall on the same page.  This is *exactly* :meth:`_touch`
        per record: only a run's first read can miss — the page is then
        the pool's most recent entry, so the rest of the run are hits
        whose ``move_to_end`` changes nothing — hence residency order,
        ``pages_read``, ``buffer_hits`` and ``nodes_touched`` come out
        the same, evictions inside the scan included.
        """
        pool = self._pool
        if pool is not None:
            doc_id = self.doc_id
            for page_no in run_pages:
                pool.access((doc_id, page_no))
            pool.metrics.buffer_hits += total - len(run_pages)
        if self._metrics is not None:
            self._metrics.nodes_touched += total

    def touch_range(self, first: int, stop: int) -> None:
        """Meter reading the contiguous records ``first..stop-1`` in order."""
        if first < stop:
            self.touch_runs(
                range(
                    first // NODES_PER_PAGE,
                    (stop - 1) // NODES_PER_PAGE + 1,
                ),
                stop - first,
            )

    def node_id(self, record_idx: int) -> NodeId:
        """Interval id of the record at ``record_idx`` (no page touch)."""
        return self.ids[record_idx]

    def index_of(self, nid: NodeId) -> int:
        """Record index of a node id belonging to this document."""
        if nid.doc != self.doc_id:
            raise StorageError(
                f"node {nid} does not belong to document {self.name}"
            )
        try:
            return self._by_start[nid.start]
        except KeyError:
            raise StorageError(f"unknown node id {nid}") from None

    def fetch(self, record_idx: int) -> NodeRecord:
        """Read one record through the buffer pool."""
        self._touch(record_idx)
        return self.records[record_idx]

    def fetch_by_id(self, nid: NodeId) -> NodeRecord:
        """Read the record for a node id through the buffer pool."""
        return self.fetch(self.index_of(nid))

    @property
    def root_id(self) -> NodeId:
        """Id of the synthetic ``doc_root`` node."""
        return self.node_id(0)

    def children_ids(self, nid: NodeId) -> List[NodeId]:
        """Ids of the children of ``nid``, in document order (metered)."""
        rec = self.fetch_by_id(nid)
        out = []
        for child_idx in rec.children:
            self._touch(child_idx)
            out.append(self.node_id(child_idx))
        return out

    def parent_id(self, nid: NodeId) -> Optional[NodeId]:
        """Id of the parent of ``nid`` or ``None`` for the root (metered)."""
        rec = self.fetch_by_id(nid)
        if rec.parent < 0:
            return None
        return self.node_id(rec.parent)

    def value_of(self, nid: NodeId) -> Optional[str]:
        """Atomic content of ``nid`` (metered)."""
        return self.fetch_by_id(nid).value

    def tag_of(self, nid: NodeId) -> str:
        """Tag of ``nid`` (metered)."""
        return self.fetch_by_id(nid).tag

    def subtree(
        self, nid: NodeId, lcls: Optional[Iterable[int]] = None
    ) -> TNode:
        """Materialise the full subtree rooted at ``nid`` as in-memory tree.

        Every record in the subtree is read through the buffer pool — this
        is the "data materialization cost" the paper discusses; TAX pays it
        early for every bound variable, TLC/GTP only at Construct time.
        """
        root_idx = self.index_of(nid)
        records, ids = self.records, self.ids
        # a subtree is one contiguous pre-order record range, ending at
        # its last child's last child ..., and ``build`` reads it in order
        last_idx = root_idx
        while records[last_idx].children:
            last_idx = records[last_idx].children[-1]
        self.touch_range(root_idx, last_idx + 1)

        def build(idx: int) -> TNode:
            rec = records[idx]
            node = TNode(rec.tag, rec.value, ids[idx])
            for child_idx in rec.children:
                node.add_child(build(child_idx))
            return node

        node = build(root_idx)
        if lcls:
            node.lcls.update(lcls)
        return node

    def iter_ids(self) -> Iterator[NodeId]:
        """All node ids in document order (unmetered; used by index builds)."""
        return iter(self.ids)

    def __len__(self) -> int:
        return len(self.records)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Document {self.name!r} nodes={len(self.records)}>"
