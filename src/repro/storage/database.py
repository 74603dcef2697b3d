"""The database: documents, indexes, buffer pool and metrics.

This is the TIMBER-substrate facade every engine talks to.  All stored-node
access is metered through one shared buffer pool so that the relative I/O
behaviour of TLC, TAX, GTP and the navigational evaluator is comparable.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional

from ..errors import StorageError
from ..model.node_id import NodeId
from ..model.tree import TNode
from ..model.value import Atomic
from .document import Document
from .indexes import TagIndex, ValueIndex
from .page import BufferPool
from .postings import Postings
from .seal import bulk_load
from .stats import Metrics
from .xml_parser import ParsedElement

#: Default pool size: 2048 pages × 64 records ≈ 128k resident records,
#: the spirit of the paper's 128 MB pool scaled to the simulation.
DEFAULT_POOL_PAGES = 2048


class Database:
    """A collection of stored XML documents with tag and value indexes."""

    def __init__(self, pool_pages: int = DEFAULT_POOL_PAGES) -> None:
        self.metrics = Metrics()
        self.pool = BufferPool(pool_pages, self.metrics)
        self._by_name: Dict[str, Document] = {}
        self._by_id: Dict[int, Document] = {}
        self._tag_indexes: Dict[int, TagIndex] = {}
        self._value_indexes: Dict[int, ValueIndex] = {}
        #: bumped on every (re)load; compiled plans embed document
        #: structure assumptions, so the service layer's plan cache
        #: treats entries from an older generation as stale
        self.generation = 0

    # ------------------------------------------------------------------
    # loading
    # ------------------------------------------------------------------
    def load_xml(self, name: str, text: str) -> Document:
        """Parse ``text`` and store it under ``name`` (replaces existing)."""
        return self._install(
            name, lambda doc_id: Document.from_xml(name, doc_id, text)
        )

    def load_parsed(self, name: str, root: ParsedElement) -> Document:
        """Store an already-parsed tree under ``name``."""
        return self._install(
            name, lambda doc_id: Document.from_parsed(name, doc_id, root)
        )

    def _install(
        self, name: str, build: Callable[[int], Document]
    ) -> Document:
        """Build, attach and index a document: the one way in.

        ``build`` receives the document id (a reloaded name keeps its
        id) and runs inside the :func:`~repro.storage.seal.bulk_load`
        pause together with the index builds, so parsing or snapshot
        decoding, the records and both indexes are sealed as one.
        """
        with bulk_load():
            existing = self._by_name.get(name)
            doc_id = (
                existing.doc_id if existing is not None else len(self._by_id)
            )
            document = build(doc_id)
            document.attach(self.pool, self.metrics)
            self._by_name[name] = document
            self._by_id[doc_id] = document
            self._tag_indexes[doc_id] = TagIndex(document)
            self._value_indexes[doc_id] = ValueIndex(document)
            self.generation += 1
        return document

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    def document(self, name: str) -> Document:
        """The document stored under ``name``."""
        try:
            return self._by_name[name]
        except KeyError:
            raise StorageError(f"no document named {name!r}") from None

    def document_names(self) -> List[str]:
        """Names of all stored documents."""
        return sorted(self._by_name)

    def owner(self, nid: NodeId) -> Document:
        """The document a node id belongs to."""
        try:
            return self._by_id[nid.doc]
        except KeyError:
            raise StorageError(f"node {nid} belongs to no document") from None

    # ------------------------------------------------------------------
    # metered node access (delegates to the owning document)
    # ------------------------------------------------------------------
    def tag_of(self, nid: NodeId) -> str:
        """Tag of a stored node."""
        return self.owner(nid).tag_of(nid)

    def value_of(self, nid: NodeId) -> Optional[str]:
        """Atomic content of a stored node."""
        return self.owner(nid).value_of(nid)

    def children(self, nid: NodeId) -> List[NodeId]:
        """Children of a stored node, in document order."""
        return self.owner(nid).children_ids(nid)

    def parent(self, nid: NodeId) -> Optional[NodeId]:
        """Parent of a stored node (None for a doc_root)."""
        return self.owner(nid).parent_id(nid)

    def subtree(
        self, nid: NodeId, lcls: Optional[Iterable[int]] = None
    ) -> TNode:
        """Materialise the full subtree under ``nid`` (pays full I/O)."""
        return self.owner(nid).subtree(nid, lcls)

    # ------------------------------------------------------------------
    # indexes
    # ------------------------------------------------------------------
    def tag_lookup(self, doc_name: str, tag: str) -> Postings:
        """Postings with ``tag`` in the named document (via tag index).

        Returns the index's immutable columnar
        :class:`~repro.storage.postings.Postings` view — node ids in
        document order, with the precomputed ``starts``/``ends``/``levels``
        columns the structural joins consume directly.  The view is shared,
        not copied; callers must not mutate it (they cannot).
        """
        document = self.document(doc_name)
        return self._tag_indexes[document.doc_id].lookup(
            tag, self.pool, self.metrics
        )

    def value_lookup(
        self, doc_name: str, tag: str, op: str, value: Atomic
    ) -> List[NodeId]:
        """Node ids with ``tag`` whose content satisfies ``op value``."""
        document = self.document(doc_name)
        return self._value_indexes[document.doc_id].lookup(
            tag, op, value, self.pool, self.metrics
        )

    def tag_index(self, doc_name: str) -> TagIndex:
        """The raw tag index of a document (statistics, optimizers)."""
        return self._tag_indexes[self.document(doc_name).doc_id]

    # ------------------------------------------------------------------
    # bench support
    # ------------------------------------------------------------------
    def reset_metrics(self, cold_cache: bool = False) -> None:
        """Zero counters; optionally also evict the buffer pool."""
        self.metrics.reset()
        if cold_cache:
            self.pool.clear()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Database docs={self.document_names()}>"
