"""Node identifiers: interval encoding plus temporary ids.

Section 5.1 of the paper lists four properties a node identifier must
satisfy:

1. uniqueness,
2. structural-relationship testing (for structural joins),
3. absolute document order within a tree,
4. sortability within all nodes of the same logical class.

Stored nodes use the classic ``(doc, start, end, level)`` interval encoding,
which satisfies all four.  *Temporary* nodes created during query execution
(join roots, constructed elements) only need properties 1 and 4 — the paper's
key observation that avoids renumbering in-memory trees ("Dynamic-Intervals"
style) — so they carry a monotonically increasing sequence number instead.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass
from typing import Tuple, Union


@dataclass(frozen=True)
class NodeId:
    """Interval-encoded identifier of a node stored in the database.

    ``start`` and ``end`` delimit the node's extent in document order:
    node *a* is an ancestor of *b* iff ``a.start < b.start`` and
    ``b.end < a.end`` (within the same document).  ``level`` is the depth
    from the document root (root = 0) and turns ancestor tests into
    parent tests.
    """

    doc: int
    start: int
    end: int
    level: int

    # one id object exists per stored node (``Document.ids``), so the
    # per-instance ``__dict__`` is worth dropping; ``slots=True`` needs
    # Python 3.10, hence the explicit form
    __slots__ = ("doc", "start", "end", "level")

    def __reduce__(self):
        # default slot pickling restores fields with ``setattr``, which
        # a frozen dataclass refuses
        return (NodeId, (self.doc, self.start, self.end, self.level))

    def contains(self, other: "NodeId") -> bool:
        """True iff ``self`` is a proper ancestor of ``other``."""
        return (
            self.doc == other.doc
            and self.start < other.start
            and other.end < self.end
        )

    def is_parent_of(self, other: "NodeId") -> bool:
        """True iff ``self`` is the parent of ``other``."""
        return self.contains(other) and other.level == self.level + 1

    def precedes(self, other: "NodeId") -> bool:
        """True iff ``self`` comes before ``other`` in document order.

        An ancestor precedes its descendants (the same convention the paper
        uses for assigning node ids: "The same holds for element A
        containing B", footnote 4).
        """
        return (self.doc, self.start) < (other.doc, other.start)

    @property
    def order_key(self) -> Tuple[int, int, int]:
        """Sort key implementing Properties 3 and 4 for stored nodes.

        Stored nodes sort before all temporary nodes (group 0).
        """
        return (0, self.doc, self.start)


@dataclass(frozen=True)
class TempId:
    """Identifier of a temporary node created during query execution.

    Satisfies Property 1 (unique) and Property 4 (nodes of one logical class
    are sortable by creation order), but deliberately *not* Properties 2 and
    3 — temporary nodes are not part of any stored document.
    """

    seq: int

    __slots__ = ("seq",)

    def __reduce__(self):
        return (TempId, (self.seq,))

    @property
    def order_key(self) -> Tuple[int, int, int]:
        """Sort key: temporary nodes order after stored nodes, by creation."""
        return (1, 0, self.seq)


AnyNodeId = Union[NodeId, TempId]


class TempIdAllocator:
    """Thread-safe allocator of :class:`TempId` values.

    A single process-wide allocator (``DEFAULT_TEMP_IDS``) backs normal
    execution; tests may construct private allocators for deterministic ids.
    """

    def __init__(self) -> None:
        self._counter = itertools.count()
        self._lock = threading.Lock()

    def next(self) -> TempId:
        """Allocate a fresh temporary id.

        Lockless: ``next()`` on :func:`itertools.count` is atomic in
        CPython, and id allocation is hot enough (one per constructed
        tree node) for lock overhead to show up in profiles.  The lock
        still guards :meth:`reset`, which swaps the counter object.
        """
        return TempId(next(self._counter))

    def reset(self) -> None:
        """Restart numbering from zero (test isolation only)."""
        with self._lock:
            self._counter = itertools.count()


DEFAULT_TEMP_IDS = TempIdAllocator()


def new_temp_id() -> TempId:
    """Allocate a temporary id from the process-wide allocator."""
    return DEFAULT_TEMP_IDS.next()


def structurally_related(
    ancestor: AnyNodeId, descendant: AnyNodeId, axis: str
) -> bool:
    """Test the structural relationship required by a pattern edge.

    ``axis`` is ``"pc"`` (parent-child) or ``"ad"`` (ancestor-descendant).
    Temporary ids carry no structural information (Property 2 waived), so
    any test involving one is False — in-memory structure must be consulted
    instead, which is exactly what logical classes are for.
    """
    if not isinstance(ancestor, NodeId) or not isinstance(descendant, NodeId):
        return False
    if axis == "pc":
        return ancestor.is_parent_of(descendant)
    if axis == "ad":
        return ancestor.contains(descendant)
    raise ValueError(f"unknown axis: {axis!r}")
