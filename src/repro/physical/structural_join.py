"""Structural joins over interval-encoded node ids.

The basic primitive of Section 5.2: given two node-id lists sorted in
document order, find the (ancestor, descendant) or (parent, child) pairs.
Both inputs arrive sorted by ``(doc, start)`` — the tag index returns them
that way — so the probe cost is merge-like.

Four result shapes implement the four matching specifications (Section 5.2):

========  =======================  =============================
mSpec     algorithm                function
========  =======================  =============================
``-``     structural join          :func:`pair_join`
``?``     left-outer join          :func:`pair_join` (outer)
``+``     nest-structural-join     :func:`nest_join`
``*``     left-outer-nest-join     :func:`nest_join` (outer)
========  =======================  =============================

The joins consume precomputed ``(doc, start)`` / ``level`` columns when
the child input carries them (a :class:`~repro.storage.postings.Postings`
view from the tag index, or any container with cached ``starts``/``levels``
attributes — see :func:`child_columns`), and probe with a merge-style
cursor that skips ahead monotonically across sorted parents (stack-tree
style: the lower bound of each parent's descendant range never moves
backwards, so every binary search runs over the unconsumed suffix only).
Parent-child joins over raw postings probe the ``parent.level + 1`` level
partition instead of scanning the full ancestor range and filtering.

Items may be bare :class:`NodeId` values or any objects with
``parent_id``/``child_id`` extractors (the pattern matcher passes
``_MTree`` match variants).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

from ..model.node_id import NodeId
from ..storage.postings import Postings
from ..storage.stats import Metrics

Item = TypeVar("Item")

_identity: Callable = lambda x: x


# ----------------------------------------------------------------------
# columnar probe machinery
# ----------------------------------------------------------------------
def child_columns(
    children: Sequence[Item],
    child_id: Callable[[Item], NodeId] = _identity,
    metrics: Optional[Metrics] = None,
) -> Tuple[Sequence[Tuple[int, int]], Sequence[int]]:
    """The ``(doc, start)`` and ``level`` columns of a child input.

    A container that already carries ``starts``/``levels`` attributes (a
    tag-index :class:`Postings` view, or a candidate list a previous join
    annotated) is consumed as-is — metered as ``postings_reused``.
    Otherwise the columns are computed once — or adopted from the
    container's ``ready`` pair when its producer already held them (a
    tag scan shares its postings' columns this way) — and, when the
    container accepts attributes (the pattern matcher's ``Candidates``
    lists do), cached on it so the next join over the same input skips
    the rebuild.

    The columns always describe the *node ids* of the items (whatever
    ``child_id`` extracts), which is well-defined because every caller's
    extractor returns the item's one node id.
    """
    starts = getattr(children, "starts", None)
    levels = getattr(children, "levels", None)
    if starts is not None and levels is not None:
        if metrics is not None:
            metrics.postings_reused += 1
        return starts, levels
    ready = getattr(children, "ready", None)
    if ready is not None:
        starts, levels = ready
    else:
        starts = []
        levels = []
        for child in children:
            cid = child_id(child)
            starts.append((cid.doc, cid.start))
            levels.append(cid.level)
    try:
        children.starts = starts  # type: ignore[union-attr]
        children.levels = levels  # type: ignore[union-attr]
    except AttributeError:
        pass  # plain lists/tuples cannot cache; nothing lost but the reuse
    return starts, levels


def _iter_matches(
    parents: Sequence[Item],
    children: Sequence[Item],
    axis: str,
    metrics: Optional[Metrics],
    parent_id: Callable[[Item], NodeId],
    child_id: Callable[[Item], NodeId],
    child_starts: Optional[Sequence[Tuple[int, int]]] = None,
    child_levels: Optional[Sequence[int]] = None,
) -> Iterator[Tuple[Item, List[Item]]]:
    """Yield ``(parent, matched_children)`` per parent, in parent order.

    The workhorse of every join.  Parents are expected sorted by
    ``(doc, start)`` (the documented contract); the cursor then only
    moves forward.  An out-of-order parent is still answered correctly —
    the cursor resets — it merely costs the skip optimisation.
    """
    if axis not in ("ad", "pc"):
        raise ValueError(f"unknown axis: {axis!r}")
    if axis == "pc" and isinstance(children, Postings):
        yield from _iter_matches_pc_partitioned(
            parents, children, parent_id, metrics
        )
        return
    if child_starts is not None:
        starts: Sequence[Tuple[int, int]] = child_starts
        levels = child_levels
        if metrics is not None:
            metrics.postings_reused += 1
    else:
        starts, levels = child_columns(children, child_id, metrics)
    cursor = 0
    prev_key: Optional[Tuple[int, int]] = None
    for parent in parents:
        pid = parent_id(parent)
        key = (pid.doc, pid.start)
        if prev_key is not None and key < prev_key:
            cursor = 0  # unsorted parent: fall back to a full probe
        prev_key = key
        lo = bisect_right(starts, key, cursor)
        cursor = lo
        hi = bisect_left(starts, (pid.doc, pid.end), lo)
        if axis == "ad":
            matched = list(children[lo:hi])
        elif levels is not None:
            want = pid.level + 1
            matched = [
                children[idx] for idx in range(lo, hi)
                if levels[idx] == want
            ]
        else:
            want = pid.level + 1
            matched = [
                children[idx] for idx in range(lo, hi)
                if child_id(children[idx]).level == want
            ]
        yield parent, matched


def _iter_matches_pc_partitioned(
    parents: Sequence[Item],
    children: Postings,
    parent_id: Callable[[Item], NodeId],
    metrics: Optional[Metrics],
) -> Iterator[Tuple[Item, List[Item]]]:
    """Parent-child matching against level-partitioned raw postings.

    For each parent only the ``parent.level + 1`` partition is probed:
    containment plus the level equality is exactly the parent-child test,
    so no per-child axis filter runs at all.  One forward-only cursor per
    partition preserves the stack-tree skipping within each level.
    """
    if metrics is not None:
        metrics.postings_reused += 1
    cursors: Dict[int, int] = {}
    prev_key: Optional[Tuple[int, int]] = None
    for parent in parents:
        pid = parent_id(parent)
        key = (pid.doc, pid.start)
        if prev_key is not None and key < prev_key:
            cursors.clear()
        prev_key = key
        level = pid.level + 1
        part = children.at_level(level)
        lo = bisect_right(part.starts, key, cursors.get(level, 0))
        cursors[level] = lo
        hi = bisect_left(part.starts, (pid.doc, pid.end), lo)
        yield parent, list(part.ids[lo:hi])


# ----------------------------------------------------------------------
# public joins
# ----------------------------------------------------------------------
def pair_join(
    parents: Sequence[Item],
    children: Sequence[Item],
    axis: str,
    metrics: Optional[Metrics] = None,
    parent_id: Callable[[Item], NodeId] = _identity,
    child_id: Callable[[Item], NodeId] = _identity,
    outer: bool = False,
) -> List[Tuple[Item, Optional[Item]]]:
    """Structural join producing one output pair per match.

    With ``outer`` (the ``?`` semantics) a parent with no matching child
    yields a single ``(parent, None)`` pair — the witness tree "is let
    through" as in Figure 4.

    Inputs must be sorted in document order of their node ids.
    """
    if metrics is not None:
        metrics.structural_joins += 1
    out: List[Tuple[Item, Optional[Item]]] = []
    for parent, matched in _iter_matches(
        parents, children, axis, metrics, parent_id, child_id
    ):
        if matched:
            for child in matched:
                out.append((parent, child))
        elif outer:
            out.append((parent, None))
    return out


def nest_join(
    parents: Sequence[Item],
    children: Sequence[Item],
    axis: str,
    metrics: Optional[Metrics] = None,
    parent_id: Callable[[Item], NodeId] = _identity,
    child_id: Callable[[Item], NodeId] = _identity,
    outer: bool = False,
) -> List[Tuple[Item, List[Item]]]:
    """Nest-structural-join (Definition 8): cluster all matches per parent.

    One output per parent holding *all* its matching children; parents with
    no match are dropped (``+``) or kept with an empty cluster when
    ``outer`` is set (``*`` — the left-outer-nest variant).
    """
    if metrics is not None:
        metrics.structural_joins += 1
        metrics.nest_joins += 1
    out: List[Tuple[Item, List[Item]]] = []
    for parent, matched in _iter_matches(
        parents, children, axis, metrics, parent_id, child_id
    ):
        if matched or outer:
            out.append((parent, matched))
    return out


def join_for_mspec(
    parents: Sequence[Item],
    children: Sequence[Item],
    axis: str,
    mspec: str,
    metrics: Optional[Metrics] = None,
    parent_id: Callable[[Item], NodeId] = _identity,
    child_id: Callable[[Item], NodeId] = _identity,
    child_starts: Optional[Sequence[Tuple[int, int]]] = None,
    child_levels: Optional[Sequence[int]] = None,
) -> List[Tuple[Item, List[List[Item]]]]:
    """Dispatch a pattern edge to the right join and normalise the output.

    Returns, for each surviving parent, the list of *alternatives*; each
    alternative is the list of children to place in the witness tree:

    * ``-``  one alternative per matching child (cross-product semantics),
    * ``?``  like ``-`` plus one empty alternative when nothing matched,
    * ``+``  exactly one alternative holding the whole cluster,
    * ``*``  one alternative holding the (possibly empty) cluster.

    This normal form is what the pattern matcher combines across edges.

    ``child_starts`` / ``child_levels`` may carry the pre-sorted probe
    columns of ``children`` when the caller computed them out of band;
    containers that cache their own columns (``Postings``, the matcher's
    ``Candidates``) need neither — the join discovers and reuses the
    attached columns automatically.
    """
    if mspec not in ("-", "?", "+", "*"):
        raise ValueError(f"unknown matching specification: {mspec!r}")
    if metrics is not None:
        metrics.structural_joins += 1
        if mspec in ("+", "*"):
            metrics.nest_joins += 1
    out: List[Tuple[Item, List[List[Item]]]] = []
    for parent, matched in _iter_matches(
        parents, children, axis, metrics, parent_id, child_id,
        child_starts, child_levels,
    ):
        if mspec == "-":
            if matched:
                out.append((parent, [[m] for m in matched]))
        elif mspec == "?":
            out.append(
                (parent, [[m] for m in matched] if matched else [[]])
            )
        elif mspec == "+":
            if matched:
                out.append((parent, [matched]))
        else:  # "*"
            out.append((parent, [matched]))
    return out
