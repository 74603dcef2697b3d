"""Columnar posting lists: the storage side of the structural-join fast path.

The paper's performance argument (Sections 5-6) rests on interval-encoded
structural joins being cheap.  In the original Python substrate every join
call rebuilt a ``(doc, start)`` key array from its input node ids and every
index lookup copied its posting list — pure interpreter overhead on the
hottest primitive.  A :class:`Postings` object fixes both: it is an
**immutable, columnar view** of one tag's node ids, carrying the parallel
``starts`` / ``levels`` columns, so joins binary-search ready-made
columns instead of rebuilding them per call.

The join columns are built **lazily**: ``levels`` is an ``array('l')``,
``starts`` a list of ``(doc, start)`` tuples because the join cursors
probe it with tuple keys through ``bisect``, and neither is derived
until a consumer first touches it, so callers that only iterate ``ids``
(containment checks, the value index's sorted probes) never pay for
columns they do not read.

The *storage* columns of a tag-index view are built with it:
``values`` is aligned with ``ids``, and ``run_pages`` is the
run-length form of the postings' page numbers (from their record
indexes, which are not kept) —
everything a tag scan reads, so it touches no node record and meters
its page accesses once per run (:meth:`Document.touch_runs
<repro.storage.document.Document.touch_runs>`) instead of once per
posting.  ``flat`` — no posting contains another — is computed with
them: it is what lets a structural join over these postings as
*parents* skip a childless stretch with one binary search
(:func:`repro.physical.structural_join.probe`), and it is eager
because a view shared between threads must not cache it lazily.
"""

from __future__ import annotations

from array import array
from itertools import groupby, islice
from typing import Any, Iterator, List, Optional, Sequence, Tuple, Union

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

    Behaves as a read-only ``Sequence[NodeId]`` (so callers that iterate
    or index a posting list, or take one as a join input, need no
    columns), while exposing the parallel columns the structural joins
    consume directly:

    * ``ids``     — the node ids themselves, document order;
    * ``starts``  — ``(doc, start)`` probe keys, sorted ascending;
    * ``levels``  — tree levels, aligned with ``ids``;
    * ``values`` — the atomic content of each posting, aligned with
      ``ids``;
    * ``run_pages`` — one page number per maximal run of consecutive
      postings stored on the same page (what a scan of the postings
      meters, see :meth:`Document.touch_runs`);
    * ``flat``    — whether every posting ends before the next one
      starts (:func:`is_flat`), true of most tags and of every subset
      of a flat view.

    The two before ``flat`` are the storage columns of a tag-index
    view; an id-only view (``Postings(ids)``, a join input) has ``None``
    there.
    ``starts``/``levels`` are properties over lazily-built columns;
    reading them is idempotent and cheap after the first touch.
    """

    __slots__ = ("ids", "values", "run_pages", "flat", "_starts", "_levels")

    def __init__(
        self,
        ids: Sequence[NodeId],
        record_indexes: Optional[Sequence[int]] = None,
        values: Optional[Sequence[Any]] = None,
    ) -> None:
        self.ids: Tuple[NodeId, ...] = tuple(ids)
        self.values: Optional[Tuple[Any, ...]] = None
        self.run_pages: Optional[array] = None
        self.flat: bool = is_flat(self.ids)
        if record_indexes is not None:
            self.values = tuple(values or ())
            if not len(self.ids) == len(record_indexes) == len(self.values):
                raise ValueError("posting columns must align with the ids")
            self.run_pages = array(
                "l",
                [
                    page
                    for page, _ in groupby(
                        [idx // NODES_PER_PAGE for idx in record_indexes]
                    )
                ],
            )
        self._starts: Optional[List[Tuple[int, int]]] = None
        self._levels: Optional[array] = None

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
    def levels(self) -> array:
        """Tree levels as an ``array('l')`` column (lazy)."""
        if self._levels is None:
            self._levels = array("l", [n.level for n in self.ids])
        return self._levels

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

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Postings n={len(self.ids)}>"


#: Shared empty view (missing tags); scannable, so its storage columns
#: are present and empty.
EMPTY_POSTINGS = Postings((), (), ())
