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

Every join runs the one probe loop, :func:`probe`, which works on
*positions*: it reads the parents' node ids and the children's
``(doc, start)`` / ``level`` columns (see :func:`child_columns`) and
yields, per parent position, the positions of its matching children — a
``range`` whenever they are contiguous, so a consumer can keep the
cluster as a column slice.  The pattern matcher consumes it directly and
materialises a match only for what a join kept; the public joins below
wrap it and return items.

The probe is merge-style (stack-tree lineage): across sorted parents the
lower bound of each descendant range never moves backwards, so every
binary search runs over the unconsumed suffix only, and when the parents
are *flat* — no parent contains another, a per-tag fact
:class:`~repro.storage.postings.Postings` carries — a parent without
descendants jumps straight to the last parent that starts before the
next child instead of visiting the stretch between.

Items may be bare :class:`NodeId` values or any objects with
``parent_id``/``child_id`` extractors.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import (
    Callable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
    Union,
    cast,
)

from ..model.node_id import NodeId
from ..storage.stats import Metrics

Item = TypeVar("Item")

_identity: Callable = lambda x: x

#: Child positions one parent matched: a ``range`` when contiguous.
Matched = Union[range, List[int]]

_NO_MATCH = range(0)


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
    tag-index :class:`Postings` view, or a candidate view a previous join
    annotated) is consumed as-is — metered as ``postings_reused``.
    Otherwise the columns are computed once — or adopted from the
    container's ``ready`` pair when its producer already held them (a
    tag scan shares its postings' columns this way) — and, when the
    container accepts attributes (the pattern matcher's ``Candidates``
    views do), cached on it so the next join over the same input skips
    the rebuild.

    The columns always describe the *node ids* of the items: the
    container's own ``ids`` column when it has one (reading it creates
    no item), else whatever ``child_id`` extracts.
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
        ids = getattr(children, "ids", None)
        if ids is None:
            ids = [child_id(child) for child in children]
        starts = [(cid.doc, cid.start) for cid in ids]
        levels = [cid.level for cid in ids]
    try:
        children.starts = starts  # type: ignore[attr-defined]
        children.levels = levels  # type: ignore[attr-defined]
    except AttributeError:
        pass  # plain lists/tuples cannot cache; nothing lost but the reuse
    return starts, levels


def probe(
    parent_ids: Sequence[NodeId],
    child_starts: Sequence[Tuple[int, int]],
    child_levels: Sequence[int],
    axis: str,
    outer: bool = False,
    flat_starts: Optional[Sequence[Tuple[int, int]]] = None,
) -> Iterator[Tuple[int, Matched]]:
    """Yield ``(parent position, matching child positions)``.

    The workhorse of every join.  Positions come in parent order; a
    parent that matched nothing is yielded (with an empty ``range``)
    only under ``outer``.  On the ``pc`` axis the descendant range is
    filtered by level — and still reported as a ``range`` when every
    descendant in it is a child.

    Parents are expected sorted by ``(doc, start)`` (the documented
    contract); the cursor then only moves forward.  An out-of-order
    parent is still answered correctly — the cursor resets — it merely
    costs the skip optimisation.

    ``flat_starts`` is the parents' own ``(doc, start)`` column, passed
    only when they are *flat* (sorted, none contains another).  Then a
    parent with no descendant among the children lets the loop jump:
    every parent that starts before the next child ``c`` ends before the
    parent after it starts, hence before ``c`` — except the last of
    them, the only one that can still contain ``c``.  One ``bisect``
    over ``flat_starts`` finds it; the parents in between are exactly
    the childless ones, reported under ``outer`` and otherwise never
    visited.  With the children exhausted that stretch is the rest.
    """
    if axis not in ("ad", "pc"):
        raise ValueError(f"unknown axis: {axis!r}")
    pc = axis == "pc"
    total = len(parent_ids)
    n_children = len(child_starts)
    cursor = 0
    prev_key: Optional[Tuple[int, int]] = None
    position = 0
    while position < total:
        pid = parent_ids[position]
        key = (pid.doc, pid.start)
        if prev_key is not None and key < prev_key:
            cursor = 0  # unsorted parent: fall back to a full probe
        prev_key = key
        lo = bisect_right(child_starts, key, cursor)
        cursor = lo
        hi = bisect_left(child_starts, (pid.doc, pid.end), lo)
        if lo < hi:
            matched: Matched = range(lo, hi)
            if pc:
                want = pid.level + 1
                if child_levels[lo:hi].count(want) != hi - lo:
                    matched = [
                        idx for idx in matched if child_levels[idx] == want
                    ]
            if matched or outer:
                yield position, matched
            position += 1
            continue
        after = position + 1
        if flat_starts is not None:
            if lo == n_children:
                after = total
            else:
                after = max(
                    after,
                    bisect_left(flat_starts, child_starts[lo], after) - 1,
                )
        if outer:
            for skipped in range(position, after):
                yield skipped, _NO_MATCH
        position = after


def _matches(
    parents: Sequence[Item],
    children: Sequence[Item],
    axis: str,
    metrics: Optional[Metrics],
    parent_id: Callable[[Item], NodeId],
    child_id: Callable[[Item], NodeId],
    outer: bool,
    child_starts: Optional[Sequence[Tuple[int, int]]] = None,
    child_levels: Optional[Sequence[int]] = None,
) -> List[Tuple[Item, List[Item]]]:
    """:func:`probe` over items: ``(parent, matched_children)`` pairs."""
    if child_starts is not None and child_levels is not None:
        starts, levels = child_starts, child_levels
        if metrics is not None:
            metrics.postings_reused += 1
    else:
        starts, levels = child_columns(children, child_id, metrics)
    items = list(parents)  # one C-speed copy; indexed per parent below
    parent_ids: Sequence[NodeId] = (
        cast(List[NodeId], items)
        if parent_id is _identity
        else [parent_id(parent) for parent in items]
    )
    flat_starts: Optional[Sequence[Tuple[int, int]]] = (
        getattr(parents, "starts", None)
        if getattr(parents, "flat", False)
        else None
    )
    return [
        (
            items[position],
            list(children[matched.start:matched.stop])
            if type(matched) is range
            else [children[idx] for idx in matched],
        )
        for position, matched in probe(
            parent_ids, starts, levels, axis, outer, flat_starts
        )
    ]


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
    for parent, matched in _matches(
        parents, children, axis, metrics, parent_id, child_id, outer
    ):
        if matched:
            for child in matched:
                out.append((parent, child))
        else:
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
    return _matches(
        parents, children, axis, metrics, parent_id, child_id, outer
    )


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
    nested = mspec in ("+", "*")
    return [
        (parent, [matched] if nested or not matched
         else [[m] for m in matched])
        for parent, matched in _matches(
            parents, children, axis, metrics, parent_id, child_id,
            mspec in ("?", "*"), child_starts, child_levels,
        )
    ]
