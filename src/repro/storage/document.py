"""Stored documents: interval-encoded node columns behind the buffer pool.

A document is one struct-of-arrays in document (pre-) order — record index
*i* is the *i*-th node of a depth-first walk, which means nodes are
"clustered with their children" on pages exactly as TIMBER stores them
(Section 6.3, footnote 8).  Interval ids are assigned with an enter/exit
counter so strict containment tests work for leaves as well.

The columns are ``tags`` and ``values`` (lists of shared strings) and
``ends``, ``levels`` and ``parents`` (``array('i')``).  No object exists
per node but the node's :class:`NodeId`: the start is ``2i − level + 1``
by construction, a record's subtree is the contiguous range up to
``(end + level) // 2``, and its children are read off that range.
Readers go through the metered accessors (:meth:`Document.value_of`,
:meth:`~Document.tag_of`, :meth:`~Document.children_ids`,
:meth:`~Document.parent_id`, :meth:`~Document.subtree`) or read the
columns directly.

Attributes are stored as child nodes tagged ``@name`` (preceding element
children), matching the paper's pattern trees where ``@id`` and ``@person``
appear as pattern nodes.
"""

from __future__ import annotations

from array import array
from itertools import repeat
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..errors import StorageError
from ..model.node_id import NodeId
from ..model.tree import TNode
from .page import NODES_PER_PAGE, BufferPool
from .stats import Metrics
from .xml_parser import ParsedElement, parse_events


class Columns:
    """The parallel per-node columns of one document, in record order."""

    __slots__ = ("tags", "values", "ends", "levels", "parents")

    def __init__(self) -> None:
        self.tags: List[str] = []
        self.values: List[Optional[str]] = []
        self.ends = array("i")
        self.levels = array("i")
        self.parents = array("i")

    def append(
        self, tag: str, value: Optional[str], end: int, level: int,
        parent: int,
    ) -> None:
        """Add one record at the next index."""
        self.tags.append(tag)
        self.values.append(value)
        self.ends.append(end)
        self.levels.append(level)
        self.parents.append(parent)

    @classmethod
    def from_levels(
        cls, tags: List[str], values: List[Optional[str]], levels: array
    ) -> "Columns":
        """Columns whose ends and parents follow from the levels.

        In a pre-order store the levels fix the tree: a record's parent
        is the innermost record still open one level up, and a record
        closes (end ``2n − level`` with *n* records before the closing
        point) when a later record comes at its level or above.  Raises
        :class:`StorageError` unless the levels are one pre-order tree:
        record 0 at level 0, each later one at a level from 1 to its
        predecessor's + 1.
        """
        columns = cls()
        columns.tags, columns.values, columns.levels = tags, values, levels
        ends = columns.ends = array("i", [0]) * len(levels)
        parents = columns.parents
        #: the records still open, root first
        open_: List[int] = []
        for idx, level in enumerate(levels):
            if not (0 < level <= len(open_) if idx else level == 0):
                raise StorageError(
                    f"record {idx} at level {level} is out of place"
                )
            while len(open_) > level:
                closed = open_.pop()
                ends[closed] = 2 * idx - levels[closed]
            parents.append(open_[-1] if open_ else -1)
            open_.append(idx)
        for closed in open_:
            ends[closed] = 2 * len(levels) - levels[closed]
        return columns


class RecordBuilder:
    """The one sink that turns element events into interval-encoded columns.

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

    __slots__ = ("columns", "_open", "_attr_tags")

    def __init__(self) -> None:
        self.columns = Columns()
        self.columns.append("doc_root", None, 0, 0, -1)
        #: record indexes of the open elements, ``doc_root`` first
        self._open: List[int] = [0]
        #: ``@name`` tag of each attribute name seen, shared by its nodes
        self._attr_tags: Dict[str, str] = {}

    def start(self, tag: str, attrs: Dict[str, str]) -> None:
        columns, open_ = self.columns, self._open
        idx = len(columns.tags)
        level = len(open_)
        columns.append(tag, None, 0, level, open_[-1])
        open_.append(idx)
        level += 1
        for name, value in attrs.items():
            attr_tag = self._attr_tags.get(name)
            if attr_tag is None:
                attr_tag = self._attr_tags[name] = "@" + name
            # a leaf closes where it opens: its end is its start + 1
            end = 2 * len(columns.tags) - level + 2
            columns.append(attr_tag, value, end, level, idx)

    def end(self, value: Optional[str]) -> None:
        columns = self.columns
        idx = self._open.pop()
        columns.values[idx] = value
        columns.ends[idx] = 2 * len(columns.tags) - columns.levels[idx]

    def finish(self) -> Columns:
        """Close ``doc_root`` and hand over the columns."""
        self.end(None)
        return self.columns


class Document:
    """One stored XML document with metered record access."""

    def __init__(self, name: str, doc_id: int, columns: Columns) -> None:
        """Adopt already interval-encoded columns (a valid pre-order)."""
        self.name = name
        self.doc_id = doc_id
        self.tags = columns.tags
        self.values = columns.values
        self.ends = columns.ends
        self.levels = columns.levels
        self.parents = columns.parents
        #: the one :class:`NodeId` object of each record, aligned with the
        #: columns — indexes, scans and materialised subtrees all hand
        #: out these, never a second id for the same node
        starts = [2 * i - level + 1 for i, level in enumerate(self.levels)]
        self.ids: Tuple[NodeId, ...] = tuple(
            map(NodeId, repeat(doc_id), starts, self.ends, self.levels)
        )
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
        return cls(name, doc_id, builder.finish())

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
        return cls(name, doc_id, builder.finish())

    def attach(self, pool: BufferPool, metrics: Metrics) -> None:
        """Connect this document to a database's buffer pool and metrics."""
        self._pool = pool
        self._metrics = metrics

    # ------------------------------------------------------------------
    # layout arithmetic (unmetered)
    # ------------------------------------------------------------------
    def subtree_stop(self, record_idx: int) -> int:
        """One past the last record of ``record_idx``'s subtree."""
        return (self.ends[record_idx] + self.levels[record_idx]) // 2

    def child_indexes(self, record_idx: int) -> List[int]:
        """Children of ``record_idx``: the first follows it, each next
        sibling follows the previous one's subtree."""
        ends, levels = self.ends, self.levels
        out = []
        child = record_idx + 1
        stop = (ends[record_idx] + levels[record_idx]) // 2
        while child < stop:
            out.append(child)
            child = (ends[child] + levels[child]) // 2
        return out

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
        """Record index of a node id belonging to this document.

        Arithmetic on the layout: ``start = 2i − level + 1`` for every
        record, and the whole id must match the one stored there.
        """
        if nid.doc != self.doc_id:
            raise StorageError(
                f"node {nid} does not belong to document {self.name}"
            )
        idx = (nid.start + nid.level - 1) // 2
        if 0 <= idx < len(self.ids):
            stored = self.ids[idx]
            if stored is nid or stored == nid:
                return idx
        raise StorageError(f"unknown node id {nid}")

    def _fetch_index(self, nid: NodeId) -> int:
        idx = self.index_of(nid)
        self._touch(idx)
        return idx

    @property
    def root_id(self) -> NodeId:
        """Id of the synthetic ``doc_root`` node."""
        return self.node_id(0)

    def children_ids(self, nid: NodeId) -> List[NodeId]:
        """Ids of the children of ``nid``, in document order (metered)."""
        ids = self.ids
        out = []
        for child_idx in self.child_indexes(self._fetch_index(nid)):
            self._touch(child_idx)
            out.append(ids[child_idx])
        return out

    def parent_id(self, nid: NodeId) -> Optional[NodeId]:
        """Id of the parent of ``nid`` or ``None`` for the root (metered)."""
        parent = self.parents[self._fetch_index(nid)]
        return None if parent < 0 else self.ids[parent]

    def value_of(self, nid: NodeId) -> Optional[str]:
        """Atomic content of ``nid`` (metered)."""
        return self.values[self._fetch_index(nid)]

    def tag_of(self, nid: NodeId) -> str:
        """Tag of ``nid`` (metered)."""
        return self.tags[self._fetch_index(nid)]

    def subtree(
        self, nid: NodeId, lcls: Optional[Iterable[int]] = None
    ) -> TNode:
        """Materialise the full subtree rooted at ``nid`` as in-memory tree.

        Every record in the subtree is read through the buffer pool — this
        is the "data materialization cost" the paper discusses; TAX pays it
        early for every bound variable, TLC/GTP only at Construct time.
        """
        root_idx = self.index_of(nid)
        self.touch_range(root_idx, self.subtree_stop(root_idx))
        node = self.tree(root_idx)
        if lcls:
            node.lcls.update(lcls)
        return node

    def tree(self, root_idx: int) -> TNode:
        """The subtree at ``root_idx`` as a tree (unmetered).

        One loop over the subtree's contiguous pre-order record range:
        ``path[d]`` is the open node ``d`` levels below the root.
        """
        tags, values, ids = self.tags, self.values, self.ids
        levels = self.levels
        root = TNode(tags[root_idx], values[root_idx], ids[root_idx])
        path = [root]
        base = levels[root_idx]
        for idx in range(root_idx + 1, self.subtree_stop(root_idx)):
            depth = levels[idx] - base
            node = TNode(tags[idx], values[idx], ids[idx])
            path[depth - 1].children.append(node)
            path[depth:] = [node]
        return root

    def __len__(self) -> int:
        return len(self.tags)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Document {self.name!r} nodes={len(self.tags)}>"
