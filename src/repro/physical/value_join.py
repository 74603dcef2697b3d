"""Value joins with the sort–merge–sort strategy of Section 5.1.

The paper avoids nested-loop joins (the naive way to preserve document
order) by exploiting Property 3 of its node identifiers: sort both inputs by
join value, merge, then re-sort the output by the node id of the left
input's root.  Node ids encode document order, so the final cheap sort
restores it, "achieving better performance and linear scalability without
sacrificing document ordering".

Equality merges (:func:`merge_equi_join`); the inequalities ``<``, ``<=``,
``>`` and ``>=`` are a *band join* — the right side sorted once, one
bisection per left item (:func:`_band_clusters`); only ``!=`` and
``contains``, which no sort order serves, compare every pair.

The nest variant (Definition 8's :func:`nest_merge`) clusters *all* matching
right items under each left item — the Nest-Value-Join — and the outer
variants keep left items with no match (Left-Outer-Nest-Value-Join).
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
)

from ..model.value import atomize, compare, sort_key
from ..storage.stats import Metrics

Item = TypeVar("Item")
Key = Callable[[Item], object]

#: Operators answered by bisecting a sorted right side.
BAND_OPS = ("<", "<=", ">", ">=")


def _sorted_by_value(
    items: Sequence[Item], key: Key
) -> List[Tuple[tuple, Item]]:
    """Items with a non-NULL join value, stably sorted by ``sort_key``
    (NULL never matches, so it never enters the merge)."""
    decorated = []
    for item in items:
        value = atomize(key(item))
        if value is not None:
            decorated.append((sort_key(value), item))
    decorated.sort(key=lambda pair: pair[0])
    return decorated


def _equal_runs(
    left: Sequence[Item], right: Sequence[Item], left_key: Key, right_key: Key
) -> Iterator[Tuple[List[Item], List[Item]]]:
    """``(left run, right run)`` per join value both sides hold, in value
    order; each run keeps its side's input order (the sorts are stable)."""
    lsorted = _sorted_by_value(left, left_key)
    rsorted = _sorted_by_value(right, right_key)
    i = j = 0
    while i < len(lsorted) and j < len(rsorted):
        lk, rk = lsorted[i][0], rsorted[j][0]
        if lk < rk:
            i += 1
        elif lk > rk:
            j += 1
        else:
            j_end = j
            while j_end < len(rsorted) and rsorted[j_end][0] == lk:
                j_end += 1
            i_end = i
            while i_end < len(lsorted) and lsorted[i_end][0] == lk:
                i_end += 1
            yield (
                [item for _, item in lsorted[i:i_end]],
                [item for _, item in rsorted[j:j_end]],
            )
            i, j = i_end, j_end


def merge_equi_join(
    left: Sequence[Item],
    right: Sequence[Item],
    left_key: Key,
    right_key: Key,
    metrics: Optional[Metrics] = None,
) -> List[Tuple[Item, Item]]:
    """Equi-join two sequences by atomized value (sort-merge).

    Output order is by join value; callers re-sort by node id afterwards
    (the second "sort" of sort–merge–sort).
    """
    if metrics is not None:
        metrics.value_joins += 1
        metrics.sort_ops += 2
    return [
        (litem, ritem)
        for lrun, rrun in _equal_runs(left, right, left_key, right_key)
        for litem in lrun
        for ritem in rrun
    ]


def _band(keys: List, positions: List[int], op: str, probe) -> List[int]:
    """Positions of the sorted ``keys`` ``k`` with ``probe op k``."""
    if op == "<":
        return positions[bisect_right(keys, probe):]
    if op == "<=":
        return positions[bisect_left(keys, probe):]
    if op == ">":
        return positions[:bisect_left(keys, probe)]
    return positions[:bisect_right(keys, probe)]


def _column(entries: List[Tuple[object, int]]) -> Tuple[List, List[int]]:
    """``(keys, positions)`` of ``(key, position)`` entries sorted by key."""
    entries.sort()
    return [key for key, _ in entries], [pos for _, pos in entries]


def _band_clusters(
    left: Sequence[Item],
    right: Sequence[Item],
    op: str,
    left_key: Key,
    right_key: Key,
) -> List[List[Item]]:
    """Per left item, its matches under an inequality, in right order.

    Exactly :func:`~repro.model.value.compare` on atomized values: two
    floats compare numerically, anything else as ``str`` — so a float
    facing a string compares through ``str(float)`` — and NULL never
    matches.  The right side is sorted once into three columns: its
    floats by value (NaN left out: it fails every numeric test), its
    floats by their text, and its strings; each left item bisects the
    two columns its type meets.  Matched positions are re-sorted into
    right-input order, so the pair sequence is the nested loop's.
    Cluster lists are read-only and may be shared between left items.
    """
    numbers: List[Tuple[float, int]] = []
    number_texts: List[Tuple[str, int]] = []
    texts: List[Tuple[str, int]] = []
    valid: List[int] = []
    for position, item in enumerate(right):
        value = atomize(right_key(item))
        if value is None:
            continue
        valid.append(position)
        if isinstance(value, float):
            if value == value:
                numbers.append((value, position))
            number_texts.append((str(value), position))
        else:
            texts.append((value, position))
    number_keys, number_pos = _column(numbers)
    number_text_keys, number_text_pos = _column(number_texts)
    text_keys, text_pos = _column(texts)
    everything = [right[position] for position in valid]
    out: List[List[Item]] = []
    for item in left:
        value = atomize(left_key(item))
        if value is None:
            out.append([])
            continue
        if isinstance(value, float):
            hits = _band(text_keys, text_pos, op, str(value))
            if value == value:
                hits = _band(number_keys, number_pos, op, value) + hits
        else:
            hits = _band(number_text_keys, number_text_pos, op, value)
            hits += _band(text_keys, text_pos, op, value)
        if len(hits) == len(valid):
            out.append(everything)
        else:
            hits.sort()
            out.append([right[position] for position in hits])
    return out


def _loop_clusters(
    left: Sequence[Item],
    right: Sequence[Item],
    op: str,
    left_key: Key,
    right_key: Key,
) -> List[List[Item]]:
    """Per left item, its matches by comparing every pair (``!=`` and
    ``contains``, which no sort order answers)."""
    rvals = [(atomize(right_key(r)), r) for r in right]
    out: List[List[Item]] = []
    for litem in left:
        lval = atomize(left_key(litem))
        out.append([ritem for rval, ritem in rvals if compare(lval, op, rval)])
    return out


def theta_clusters(
    left: Sequence[Item],
    right: Sequence[Item],
    op: str,
    left_key: Key,
    right_key: Key,
    metrics: Optional[Metrics] = None,
) -> List[List[Item]]:
    """General comparison join, one cluster of right matches per left item.

    ``out[i]`` holds the right items matching ``left[i]`` in right-input
    order — the Nest-Value-Join's clusters without a per-pair grouping
    step.  Equality merges, the inequalities band-join and ``!=`` /
    ``contains`` compare every pair; the work counters are the same as
    :func:`theta_join`'s.  Cluster lists are read-only and may be shared.
    """
    if op == "=":
        if metrics is not None:
            metrics.value_joins += 1
            metrics.sort_ops += 2
        positions = range(len(left))
        out: List[List[Item]] = [[] for _ in positions]
        for lrun, rrun in _equal_runs(
            positions, right, lambda at: left_key(left[at]), right_key
        ):
            for at in lrun:
                out[at] = rrun
        return out
    if metrics is not None:
        metrics.value_joins += 1
    if op in BAND_OPS:
        return _band_clusters(left, right, op, left_key, right_key)
    return _loop_clusters(left, right, op, left_key, right_key)


def theta_join(
    left: Sequence[Item],
    right: Sequence[Item],
    op: str,
    left_key: Key,
    right_key: Key,
    metrics: Optional[Metrics] = None,
) -> List[Tuple[Item, Item]]:
    """General comparison join, as pairs.

    Equality is the sort-merge path (pairs in join-value order); every
    other operator emits its pairs in nested-loop order — left order,
    then right order — through :func:`theta_clusters`.
    """
    if op == "=":
        return merge_equi_join(left, right, left_key, right_key, metrics)
    clusters = theta_clusters(left, right, op, left_key, right_key, metrics)
    return [
        (litem, ritem)
        for litem, cluster in zip(left, clusters)
        for ritem in cluster
    ]


def nest_merge(
    matched: Sequence[Tuple[Item, List[Item]]],
    all_left: Sequence[Item],
    outer: bool = False,
    metrics: Optional[Metrics] = None,
) -> List[Tuple[Item, List[Item]]]:
    """Shape clusters into the Nest-Value-Join output.

    ``matched`` holds ``(left item, cluster)`` for a subsequence of
    ``all_left`` (the items a join could key), in ``all_left`` order.
    Each left item appears at most once, with its cluster; an item with
    an empty or no cluster is dropped, or kept with ``[]`` by the outer
    variant.
    """
    if metrics is not None:
        metrics.nest_joins += 1
    out: List[Tuple[Item, List[Item]]] = []
    at = 0
    for litem in all_left:
        cluster: List[Item] = []
        if at < len(matched) and matched[at][0] is litem:
            cluster = matched[at][1]
            at += 1
        if cluster or outer:
            out.append((litem, cluster))
    return out
