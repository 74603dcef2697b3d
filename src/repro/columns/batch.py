"""The batch currency of the columnar runtime: flattened tree columns.

A :class:`ColumnBatch` represents a sequence of result trees without
building a single :class:`~repro.model.tree.TNode`.  Every tree is
flattened into *rows of nodes in pre-order*; the batch holds the rows of
all trees concatenated, as parallel columns:

* ``tags`` / ``values`` — element name and atomic content per node;
* ``nids``    — node identifiers (stored interval ids, rarely temp ids);
* ``labels``  — the node's Logical Class Label (0 = unlabelled), one
  per node: witness construction marks each matched node with exactly
  its pattern node's class, which is what makes a single-label column
  lossless for batch-built trees;
* ``parents`` — row-relative parent offsets (root = -1), which make a
  row's slice self-contained: batches can drop, duplicate and reorder
  rows by copying slices, with no pointer fixups;
* ``offsets`` — row boundaries: row ``i`` occupies columns
  ``offsets[i]:offsets[i+1]``.

Because rows are pre-order, a node's subtree is a *contiguous slice* —
the invariant the extension-Select splicer and the columnar Project
exploit — and per-class node lists read off the columns in exactly the
order a materialised tree's LC index would produce.

Materialisation (:meth:`ColumnBatch.materialize`) is the boundary
adapter: it builds the actual ``XTree`` objects — once, cached — for
operators without a batch form and for the final result of a plan.
Trees materialise with their LC index pre-derived from the label
column, so downstream per-tree operators skip the index-building walk.

The module-level ``batch`` switch is process-wide: :func:`use_batch`
pins a configuration for the equivalence sweeps.
"""

from __future__ import annotations

import os
from bisect import bisect_right
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Sequence

from ..model.sequence import TreeSequence
from ..model.tree import TNode, XTree

#: Module switch for the batch-at-a-time runtime.
_BATCH = os.environ.get("REPRO_BATCH", "").strip().lower() not in (
    "0", "false", "no", "off"
)


def batch_enabled() -> bool:
    """Whether operators evaluate batch-at-a-time when possible."""
    return _BATCH


def set_batch(enabled: bool) -> bool:
    """Switch the batch runtime on or off; returns the previous setting."""
    global _BATCH
    previous = _BATCH
    _BATCH = bool(enabled)
    return previous


@contextmanager
def use_batch(enabled: bool = True) -> Iterator[None]:
    """Scoped :func:`set_batch` (equivalence sweeps, benchmarks)."""
    previous = set_batch(enabled)
    try:
        yield
    finally:
        set_batch(previous)


class ColumnBatch:
    """A sequence of trees in flattened columnar form (see module doc)."""

    __slots__ = (
        "offsets", "tags", "values", "nids", "labels", "parents", "_trees"
    )

    def __init__(
        self,
        offsets: Sequence[int],
        tags: List[str],
        values: list,
        nids: list,
        labels: Sequence[int],
        parents: Sequence[int],
    ) -> None:
        self.offsets = list(offsets)
        self.tags = tags
        self.values = values
        self.nids = nids
        self.labels = labels
        self.parents = parents
        #: materialised TreeSequence, cached after the first boundary hit
        self._trees: Optional[TreeSequence] = None

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def empty(cls) -> "ColumnBatch":
        """A batch of zero rows."""
        return cls([0], [], [], [], [], [])

    # ------------------------------------------------------------------
    # row access
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.offsets) - 1

    def __bool__(self) -> bool:
        return len(self) > 0

    def row_order_key(self, row: int):
        """Document-order key of the row's root node."""
        return self.nids[self.offsets[row]].order_key

    def class_positions(self, row: int, lcl: int) -> List[int]:
        """Column positions of the row's class-``lcl`` nodes (pre-order).

        Equals the order of ``XTree.nodes_in_class`` on the materialised
        tree: rows are stored in pre-order.
        """
        start, end = self.offsets[row], self.offsets[row + 1]
        labels = self.labels
        return [j for j in range(start, end) if labels[j] == lcl]

    def row_classes(self, row: int) -> Dict[int, List[int]]:
        """Column positions of each labelled class of the row, pre-order:
        one read of the row's labels for a consumer of many classes."""
        classes: Dict[int, List[int]] = {}
        labels = self.labels
        for position in range(self.offsets[row], self.offsets[row + 1]):
            label = labels[position]
            if label:
                if label in classes:
                    classes[label].append(position)
                else:
                    classes[label] = [position]
        return classes

    def class_values(self, row: int, lcl: int) -> list:
        """Content of the row's class-``lcl`` nodes, pre-order."""
        return [self.values[j] for j in self.class_positions(row, lcl)]

    def canonical_node(self, position: int, by_content: bool = True):
        """``TNode.canonical`` of the node at ``position``, off the columns.

        Children spans are discovered by scanning the contiguous subtree
        slice; batch-built rows carry no shadowed nodes, so no
        visibility filtering applies.
        """
        children = []
        end = self._subtree_end(position)
        child = position + 1
        while child < end:
            children.append(self.canonical_node(child, by_content))
            child = self._subtree_end(child)
        kids = tuple(children)
        if by_content:
            return (self.tags[position], self.values[position], kids)
        return (
            self.tags[position], self.values[position],
            self.nids[position], kids,
        )

    def subtree_node(self, position: int) -> TNode:
        """Build the ``TNode`` subtree rooted at ``position`` off the
        columns (the splice form for content that has no stored id)."""
        end = self._subtree_end(position)
        offsets = self.offsets
        base = offsets[bisect_right(offsets, position) - 1]
        tags, values, nids = self.tags, self.values, self.nids
        labels, parents = self.labels, self.parents
        nodes: List[TNode] = []
        for j in range(position, end):
            label = labels[j]
            node = TNode.__new__(TNode)
            node.tag = tags[j]
            node.value = values[j]
            node.nid = nids[j]
            node.children = []
            node.shadowed = False
            node.lcls = {label} if label else set()
            if j > position:
                # row-relative parents always land inside the slice here:
                # a subtree is contiguous and self-contained
                nodes[base + parents[j] - position].children.append(node)
            nodes.append(node)
        return nodes[0]

    def _subtree_end(self, position: int) -> int:
        """One past the last column of the subtree rooted at ``position``.

        Walks forward while parents point at or after ``position`` —
        valid because rows are pre-order and parents are row-relative
        (converted through the row base).
        """
        offsets = self.offsets
        # locate the row containing the position (rows are small; the
        # callers always pass positions of the row they are scanning)
        row = bisect_right(offsets, position) - 1
        base, end = offsets[row], offsets[row + 1]
        parents = self.parents
        j = position + 1
        while j < end:
            parent = parents[j]
            if parent >= 0 and base + parent >= position:
                j += 1
            else:
                break
        return j

    # ------------------------------------------------------------------
    # row algebra (the kernels batch operators build on)
    # ------------------------------------------------------------------
    def select_rows(self, rows: Sequence[int]) -> "ColumnBatch":
        """A new batch holding the given rows, in the given order.

        Row-relative parents make this a pure slice copy, and runs of
        consecutive rows — the common shape for filters that keep most
        of their input — copy as single column slices.
        """
        total = len(rows)
        if total == len(self):
            for i, row in enumerate(rows):
                if row != i:
                    break
            else:
                # identity selection: batches are immutable, share it
                return self
        src_offsets = self.offsets
        offsets = [0]
        tags: List[str] = []
        values: list = []
        nids: list = []
        labels: List[int] = []
        parents: List[int] = []
        i = 0
        while i < total:
            first = rows[i]
            last = first
            i += 1
            while i < total and rows[i] == last + 1:
                last = rows[i]
                i += 1
            start, end = src_offsets[first], src_offsets[last + 1]
            tags.extend(self.tags[start:end])
            values.extend(self.values[start:end])
            nids.extend(self.nids[start:end])
            labels.extend(self.labels[start:end])
            parents.extend(self.parents[start:end])
            base = offsets[-1] - src_offsets[first]
            for row in range(first, last + 1):
                offsets.append(src_offsets[row + 1] + base)
        return ColumnBatch(offsets, tags, values, nids, labels, parents)

    @classmethod
    def concat(cls, batches: Sequence["ColumnBatch"]) -> "ColumnBatch":
        """Concatenate batches row-wise, preserving order."""
        offsets = [0]
        tags: List[str] = []
        values: list = []
        nids: list = []
        labels: List[int] = []
        parents: List[int] = []
        for batch in batches:
            base = offsets[-1]
            tags.extend(batch.tags)
            values.extend(batch.values)
            nids.extend(batch.nids)
            labels.extend(batch.labels)
            parents.extend(batch.parents)
            offsets.extend(
                offset + base for offset in batch.offsets[1:]
            )
        return cls(offsets, tags, values, nids, labels, parents)

    # ------------------------------------------------------------------
    # boundary adapter
    # ------------------------------------------------------------------
    def materialize(self, metrics=None) -> TreeSequence:
        """Build (and cache) the actual trees this batch represents.

        Trees are built in one pass per row, with the LC index derived
        from the label column as the nodes are created (creation order
        is pre-order, which is exactly the order a lazy index build
        would record).  ``metrics.trees_built`` advances per tree, as
        the per-tree path does at its own build sites.
        """
        if self._trees is not None:
            return self._trees
        out = TreeSequence()
        offsets = self.offsets
        tags, values, nids = self.tags, self.values, self.nids
        labels, parents = self.labels, self.parents
        for row in range(len(offsets) - 1):
            start, end = offsets[row], offsets[row + 1]
            nodes: List[TNode] = []
            index: Dict[int, List[TNode]] = {}
            for j in range(start, end):
                label = labels[j]
                node = TNode.__new__(TNode)
                node.tag = tags[j]
                node.value = values[j]
                node.nid = nids[j]
                node.children = []
                node.shadowed = False
                if label:
                    node.lcls = {label}
                    index.setdefault(label, []).append(node)
                else:
                    node.lcls = set()
                parent = parents[j]
                if parent >= 0:
                    nodes[parent].children.append(node)
                nodes.append(node)
            tree = XTree(nodes[0])
            tree._lc_index = index
            tree._saw_shadowed = False
            out.append(tree)
            if metrics is not None:
                metrics.trees_built += 1
        self._trees = out
        return out

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<ColumnBatch rows={len(self)} "
            f"nodes={len(self.tags)}>"
        )


def as_tree_sequence(
    result, metrics=None, fallback: bool = False
) -> TreeSequence:
    """Boundary adapter: a ``TreeSequence`` for either representation.

    With ``fallback`` the conversion is metered as ``batch_fallbacks``
    — an operator without a batch form forced the materialisation.  The
    final result of a plan converts without the fallback stamp (that
    boundary is inherent, not a missing batch form).
    """
    if isinstance(result, ColumnBatch):
        if (
            fallback
            and metrics is not None
            and result._trees is None
        ):
            metrics.batch_fallbacks += 1
        return result.materialize(metrics)
    return result


__all__ = [
    "ColumnBatch",
    "as_tree_sequence",
    "batch_enabled",
    "set_batch",
    "use_batch",
]
