"""Columnar posting lists: the storage side of the structural-join fast path.

The paper's performance argument (Sections 5-6) rests on interval-encoded
structural joins being cheap.  In the original Python substrate every join
call rebuilt a ``(doc, start)`` key array from its input node ids and every
index lookup copied its posting list — pure interpreter overhead on the
hottest primitive.  A :class:`Postings` object fixes both: it is an
**immutable, columnar view** of one tag's node ids, carrying the parallel
``starts`` / ``ends`` / ``levels`` arrays, so joins binary-search
ready-made columns instead of rebuilding them per call.

The join columns are built **lazily** and stored compactly: ``ends`` is
a C-typed integer column (``array('l')``, or a numpy array when the
batch runtime's numpy flag is on — see :mod:`repro.columns.arrays`),
``levels`` always an ``array('l')`` (the join cursor indexes it element
by element, which numpy is slower at than the list it would replace),
and nothing is derived until a consumer first touches it, so callers
that only iterate ``ids`` (containment checks, the value index's sorted
probes) never pay for columns they do not read.  ``starts`` stays a
list of ``(doc, start)`` tuples because the join cursors probe it with
tuple keys through ``bisect``.

The *storage* columns of a tag-index view are built with it:
``record_indexes`` and ``values`` are aligned with ``ids``, and
``run_pages`` is the run-length form of the postings' page numbers —
everything a tag scan reads, so it touches no node record and meters
its page accesses once per run (:meth:`Document.touch_runs
<repro.storage.document.Document.touch_runs>`) instead of once per
posting.  ``flat`` — no posting contains another — is computed with
them: it is what lets a structural join over these postings as
*parents* skip a childless stretch with one binary search
(:func:`repro.physical.structural_join.probe`), and it is eager
because a view shared between threads must not cache it lazily.

``at_level`` additionally partitions the postings by tree level (lazily,
cached) — the level-split trick of the structural-join lineage
(Al-Khalifa et al., survey in "A Survey of XML Tree Patterns").  The
joins no longer need it (their one probe loop filters the ``levels``
column, a C-speed ``count`` when the whole range is children); it stays
as the storage-level way to ask for one level's postings.  Partitions
are carved out of the parent's already-built columns by index positions
instead of re-deriving every column from the node ids.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from itertools import groupby, islice
from typing import (
    Any,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..columns.arrays import int_column, take
from ..model.node_id import NodeId
from .page import NODES_PER_PAGE


def is_flat(ids: Sequence[NodeId]) -> bool:
    """Whether each id ends before the next one starts.

    Tree intervals nest or are disjoint, so for ids in document order
    this is exactly "no id contains another" (a container would contain
    its immediate successor too); ids out of document order are never
    flat, so a flat sequence is also a sorted one.
    """
    return all(
        (a.doc, a.end) < (b.doc, b.start)
        for a, b in zip(ids, islice(ids, 1, None))
    )


class Postings(Sequence[NodeId]):
    """Immutable columnar view of a sorted node-id posting list.

    Behaves as a read-only ``Sequence[NodeId]`` (so existing callers that
    iterated or indexed the old list results keep working, and ``== []``
    style comparisons still hold), while exposing the parallel columns the
    structural joins consume directly:

    * ``ids``     — the node ids themselves, document order;
    * ``starts``  — ``(doc, start)`` probe keys, sorted ascending;
    * ``ends``    — interval ends, aligned with ``ids``;
    * ``levels``  — tree levels, aligned with ``ids``;
    * ``record_indexes`` / ``values`` — the document record index and
      the atomic content of each posting, aligned with ``ids``;
    * ``run_pages`` — one page number per maximal run of consecutive
      postings stored on the same page (what a scan of the postings
      meters, see :meth:`Document.touch_runs`);
    * ``flat``    — whether every posting ends before the next one
      starts (:func:`is_flat`), true of most tags and of every subset
      of a flat view.

    The three before ``flat`` are the storage columns of a tag-index
    view; an id-only view (``Postings(ids)``, a join input) has ``None``
    there.
    ``starts``/``ends``/``levels`` are properties over lazily-built
    compact columns; reading them is idempotent and cheap after the
    first touch.
    """

    __slots__ = ("ids", "record_indexes", "values", "run_pages", "flat",
                 "_starts", "_ends", "_levels", "_by_level")

    def __init__(
        self,
        ids: Sequence[NodeId],
        record_indexes: Optional[Sequence[int]] = None,
        values: Optional[Sequence[Any]] = None,
    ) -> None:
        self.ids: Tuple[NodeId, ...] = tuple(ids)
        self.record_indexes: Optional[array] = None
        self.values: Optional[Tuple[Any, ...]] = None
        self.run_pages: Optional[array] = None
        self.flat: bool = is_flat(self.ids)
        if record_indexes is not None:
            self.record_indexes = array("l", record_indexes)
            self.values = tuple(values or ())
            if not (
                len(self.ids) == len(self.record_indexes) == len(self.values)
            ):
                raise ValueError("posting columns must align with the ids")
            self.run_pages = array(
                "l",
                [
                    page
                    for page, _ in groupby(
                        [idx // NODES_PER_PAGE for idx in self.record_indexes]
                    )
                ],
            )
        self._starts: Optional[List[Tuple[int, int]]] = None
        self._ends = None
        self._levels: Optional[array] = None
        self._by_level: Optional[Dict[int, "Postings"]] = None

    # ------------------------------------------------------------------
    # lazy columns
    # ------------------------------------------------------------------
    @property
    def starts(self) -> List[Tuple[int, int]]:
        """``(doc, start)`` probe keys, built on first touch."""
        if self._starts is None:
            self._starts = [(n.doc, n.start) for n in self.ids]
        return self._starts

    @property
    def ends(self):
        """Interval ends as a compact integer column (lazy)."""
        if self._ends is None:
            self._ends = int_column([n.end for n in self.ids])
        return self._ends

    @property
    def levels(self) -> array:
        """Tree levels as an ``array('l')`` column (lazy)."""
        if self._levels is None:
            self._levels = array("l", [n.level for n in self.ids])
        return self._levels

    # ------------------------------------------------------------------
    # level partitions
    # ------------------------------------------------------------------
    def _partition(self, positions: List[int]) -> "Postings":
        """A sub-view at the given index positions, sharing built columns.

        Columns the parent has already materialised are *sliced* (taken
        by position) rather than re-derived from the node ids; columns
        never touched stay lazy in the child too.
        """
        ids = self.ids
        record_indexes, values = self.record_indexes, self.values
        child = Postings(
            [ids[i] for i in positions],
            [record_indexes[i] for i in positions]
            if record_indexes is not None
            else None,
            [values[i] for i in positions] if values is not None else None,
        )
        if self._starts is not None:
            child._starts = [self._starts[i] for i in positions]
        if self._ends is not None:
            child._ends = take(self._ends, positions)
        # levels are constant within a partition and rarely read: lazy
        return child

    def at_level(self, level: int) -> "Postings":
        """The sub-postings at exactly ``level``, document order.

        Partitions are built lazily on first use and cached; a level with
        no postings returns the shared empty view.
        """
        if self._by_level is None:
            groups: Dict[int, List[int]] = {}
            for position, node_level in enumerate(self.levels):
                groups.setdefault(node_level, []).append(position)
            self._by_level = {
                node_level: self._partition(positions)
                for node_level, positions in groups.items()
            }
        return self._by_level.get(level, EMPTY_POSTINGS)

    def levels_present(self) -> List[int]:
        """Distinct tree levels with at least one posting (ascending)."""
        return sorted(set(self.levels))

    # ------------------------------------------------------------------
    # Sequence protocol (read-only)
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(
        self, index: Union[int, slice]
    ) -> Union[NodeId, Tuple[NodeId, ...]]:
        return self.ids[index]

    def __iter__(self) -> Iterator[NodeId]:
        return iter(self.ids)

    def __contains__(self, item: object) -> bool:
        """Membership by binary search over the sorted ``starts`` column.

        ``ids`` are sorted by ``(doc, start)``, so a stored node id is
        found in logarithmic time instead of the former O(n) tuple scan.
        Non-:class:`NodeId` probes (temporary ids, arbitrary objects)
        keep the linear fallback — they are never in a posting list, but
        equality semantics stay exactly list-like.
        """
        if isinstance(item, NodeId):
            starts = self.starts
            position = bisect_left(starts, (item.doc, item.start))
            ids = self.ids
            while position < len(ids):
                if starts[position] != (item.doc, item.start):
                    return False
                if ids[position] == item:
                    return True
                position += 1
            return False
        return item in self.ids

    def __eq__(self, other: object) -> bool:
        """Element-wise equality against any sequence of node ids.

        Keeps ``lookup(tag) == []`` and list-result comparisons working
        now that lookups return views instead of fresh lists.
        """
        if isinstance(other, Postings):
            return self.ids == other.ids
        if isinstance(other, (list, tuple)):
            return list(self.ids) == list(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.ids)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Postings n={len(self.ids)}>"


#: Shared empty view (missing tags, empty level partitions); scannable,
#: so its storage columns are present and empty.
EMPTY_POSTINGS = Postings((), (), ())
