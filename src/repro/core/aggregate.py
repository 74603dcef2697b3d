"""Aggregate-Function ``AF[fname, LCL_a, newLCL]`` (Section 2.3).

Applies an aggregate (count, sum, avg, min, max) over all nodes of one
logical class per tree, and adds a result node *as a sibling of the class
nodes*, marked with a fresh class label.  "If LCa maps to the empty set,
the generated node will contain 0 for count and the flag 'empty' for all
other functions" — in that case the node attaches under the tree root (the
paper leaves the sibling position undefined when the class is empty).

The operator has two shapes:

* **Fold** (no ``pattern``): the class is already in the input witnesses
  and the aggregate folds its members.  It reads no stored data itself,
  but an upstream extension Select fetched and spliced every member
  first.  Value aggregates, counts over multi-step paths and counts
  over constructed content take this shape.
* **Index count** (a ``pattern``): ``count`` over a one-edge ``*``
  extension pattern below a stored anchor class, the translation of a
  RETURN ``count($v/step)``.  The counted class is never built.  The
  count is the length of the anchor's run in one interval probe over
  the leaf's index columns (for a tag test, the postings' ``starts`` /
  ``levels`` — an index lookup, no record read), which is Section 6.3's
  "without touching the data" taken literally.  The result node lands
  where the fold would put it: the anchor's last child when the count is
  positive, the root's when it is 0.  An input with a row holding
  several anchors, or a temporary (constructed) anchor, takes the fold
  shape instead: the extension runs and the fold counts its witnesses.

The output tree is a path copy of its input (DESIGN §10): only the nodes
from the root down to the result's host are new, so the cost per tree is
that path plus the fold (or probe), not the size of the witness.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, cast

from ..columns.batch import ColumnBatch
from ..errors import AlgebraError
from ..model.node_id import NodeId
from ..model.sequence import TreeSequence
from ..model.tree import SpineEntry, TNode, XTree
from ..model.value import coerce_number
from ..patterns.apt import APT
from .base import Context, Operator
from .select import SelectOp

#: Aggregate functions of the Figure 5 grammar.
FUNCTIONS = ("count", "sum", "avg", "min", "max")


class AggregateOp(Operator):
    """Per-tree aggregate over a logical class, materialised as a node."""

    name = "Aggregate"

    def __init__(
        self,
        fname: str,
        lcl: int,
        new_lcl: int,
        input_op: Operator = None,
        pattern: Optional[APT] = None,
    ) -> None:
        super().__init__([input_op] if input_op is not None else [])
        if fname not in FUNCTIONS:
            raise AlgebraError(f"unknown aggregate function {fname!r}")
        if pattern is not None:
            root = pattern.root
            edges = root.edges
            if not (
                fname == "count"
                and root.lc_ref is not None
                and not root.test.comparisons
                and len(edges) == 1
                and edges[0].mspec == "*"
                and not edges[0].child.edges
                and edges[0].child.lcl == lcl
            ):
                raise AlgebraError(
                    "an index count is count over one '*' edge from a "
                    f"class reference to a leaf labelled ({lcl})"
                )
        self.fname = fname
        self.lcl = lcl
        self.new_lcl = new_lcl
        #: the one-edge extension pattern an index count probes, or None
        #: for the fold shape (see the module docstring)
        self.pattern = pattern

    # ------------------------------------------------------------------
    def _compute(self, nodes: Sequence[TNode]) -> Optional[object]:
        return self._fold(len(nodes), (n.value for n in nodes))

    def _fold(self, count: int, contents) -> Optional[object]:
        """The aggregate itself, over node count and node contents."""
        if self.fname == "count":
            return count
        values = [
            number
            for number in (coerce_number(value) for value in contents)
            if number is not None
        ]
        if not values:
            return "empty"
        if self.fname == "sum":
            return sum(values)
        if self.fname == "avg":
            return sum(values) / len(values)
        if self.fname == "min":
            return min(values)
        return max(values)

    def execute(
        self, ctx: Context, inputs: List[TreeSequence]
    ) -> TreeSequence:
        trees = inputs[0]
        if self.pattern is None:
            return self._fold_trees(trees)
        lc_ref = cast(int, self.pattern.root.lc_ref)
        anchors = [tree.class_nodes(lc_ref) for tree in trees]
        if not all(
            _countable([node.nid for node in nodes]) for nodes in anchors
        ):
            return self._fold_trees(ctx.matcher.extend(self.pattern, trees))
        sizes = iter(
            ctx.matcher.count_below(
                self.pattern, [nodes[0].nid for nodes in anchors if nodes]
            )
        )
        out = TreeSequence()
        for tree, nodes in zip(trees, anchors):
            size = next(sizes) if nodes else 0
            out.append(
                self._attach(tree, tree.spine(nodes) if size else [], size)
            )
        return out

    def _fold_trees(self, trees: TreeSequence) -> TreeSequence:
        out = TreeSequence()
        for tree in trees:
            nodes = tree.class_nodes(self.lcl)
            # the host is the first class node's parent (the root when
            # the class is empty or is the root)
            path = tree.spine(nodes[:1])[:-1]
            out.append(self._attach(tree, path, self._compute(nodes)))
        return out

    def _attach(self, tree: XTree, path: List[SpineEntry], value) -> XTree:
        """``tree`` with the result node appended to the children of the
        spine's last node (the root for an empty spine): the path is
        copied, everything else shared with the input tree."""
        result = TNode(
            self.fname, value, lcls={self.new_lcl} if self.new_lcl else None
        )
        host = path[-1][0] if path else tree.root
        copy, mapping = tree.path_copy(path)
        mapping[id(host)].add_child(result)
        copy.adopt_index(
            tree, mapping, [(lcl, result) for lcl in result.lcls]
        )
        return copy

    def execute_batch(self, ctx: Context, inputs: list):
        """Columnar form: the aggregate node splices into the row slice.

        Per row the result node — tag ``fname``, fresh class label, no
        stored id — is inserted at the end of its host's subtree slice,
        which is exactly "as a sibling of the class nodes" (the per-tree
        path appends it as the host's last child).  The fold reads the
        class values straight off the value column; an index count
        reads each row's one anchor and probes.
        """
        source = inputs[0]
        if not isinstance(source, ColumnBatch) or not self.new_lcl:
            return super().execute_batch(ctx, inputs)
        placed = None
        if self.pattern is not None:
            placed = self._index_placement(ctx, source, self.pattern)
            if placed is None:
                source = SelectOp(self.pattern).execute_batch(ctx, [source])
                if not isinstance(source, ColumnBatch):
                    return self._fold_trees(source)
        if placed is None:
            placed = self._fold_placement(source)
        out = self._splice(source, placed)
        self.note_batch(ctx, out)
        return out

    def _fold_placement(self, source: ColumnBatch) -> List[Tuple[object, int]]:
        """Per row, the folded value and its host: the first class node's
        parent, or the row root."""
        values, parents = source.values, source.parents
        placed = []
        for row in range(len(source)):
            positions = source.class_positions(row, self.lcl)
            value = self._fold(len(positions), (values[j] for j in positions))
            host = parents[positions[0]] if positions else 0
            placed.append((value, max(host, 0)))
        return placed

    @staticmethod
    def _index_placement(
        ctx: Context, source: ColumnBatch, pattern: APT
    ) -> Optional[List[Tuple[object, int]]]:
        """Per row, the index count and its host: the anchor when the
        count is positive, else the row root.  None when some row needs
        the fold shape."""
        lc_ref = cast(int, pattern.root.lc_ref)
        nids, offsets = source.nids, source.offsets
        anchors = []
        for row in range(len(source)):
            found = source.class_positions(row, lc_ref)
            if not _countable([nids[j] for j in found]):
                return None
            anchors.append(found[0] if found else None)
        sizes = iter(
            ctx.matcher.count_below(
                pattern, [nids[j] for j in anchors if j is not None]
            )
        )
        placed: List[Tuple[object, int]] = []
        for row, anchor in enumerate(anchors):
            size = 0 if anchor is None else next(sizes)
            host = anchor - offsets[row] if anchor is not None and size else 0
            placed.append((size, host))
        return placed

    def _splice(
        self, source: ColumnBatch, placed: List[Tuple[object, int]]
    ) -> ColumnBatch:
        """``source`` with each row's ``(value, host)`` result node
        inserted at the end of the host's subtree slice."""
        src_offsets = source.offsets
        src_tags, src_values = source.tags, source.values
        src_nids, src_labels = source.nids, source.labels
        src_parents = source.parents
        offsets = [0]
        tags: List[str] = []
        values: list = []
        nids: list = []
        labels: List[int] = []
        parents: List[int] = []
        for row, (result, host) in enumerate(placed):
            start, end = src_offsets[row], src_offsets[row + 1]
            if host == 0:
                insert = end - start
            else:
                insert = source._subtree_end(start + host) - start
            tags.extend(src_tags[start:start + insert])
            values.extend(src_values[start:start + insert])
            nids.extend(src_nids[start:start + insert])
            labels.extend(src_labels[start:start + insert])
            parents.extend(src_parents[start:start + insert])
            tags.append(self.fname)
            values.append(result)
            nids.append(None)
            labels.append(self.new_lcl)
            parents.append(host)
            tags.extend(src_tags[start + insert:end])
            values.extend(src_values[start + insert:end])
            nids.extend(src_nids[start + insert:end])
            labels.extend(src_labels[start + insert:end])
            for j in range(start + insert, end):
                parent = src_parents[j]
                parents.append(parent + 1 if parent >= insert else parent)
            offsets.append(len(tags))
        return ColumnBatch(offsets, tags, values, nids, labels, parents)

    def lc_produced(self):
        return {self.new_lcl} if self.new_lcl else set()

    def lc_consumed(self):
        if self.pattern is not None:
            return {self.pattern.root.lc_ref}
        return {self.lcl}

    def params(self) -> str:
        text = f"{self.fname}(({self.lcl})) -> ({self.new_lcl})"
        if self.pattern is None:
            return text
        root = self.pattern.root
        edge = root.edges[0]
        step = "//" if edge.axis == "ad" else "/"
        leaf = edge.child.test.describe()
        return f"{text} index ({root.lc_ref}){step}{leaf}"


def _countable(anchors: Sequence[object]) -> bool:
    """Whether a row's anchors suit an index count: at most one, stored."""
    return len(anchors) < 2 and all(
        isinstance(nid, NodeId) for nid in anchors
    )
