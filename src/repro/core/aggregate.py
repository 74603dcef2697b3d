"""Aggregate-Function ``AF[fname, LCL_a, newLCL]`` (Section 2.3).

Applies an aggregate (count, sum, avg, min, max) over all nodes of one
logical class per tree, and adds a result node *as a sibling of the class
nodes*, marked with a fresh class label.  "If LCa maps to the empty set,
the generated node will contain 0 for count and the flag 'empty' for all
other functions" — in that case the node attaches under the tree root (the
paper leaves the sibling position undefined when the class is empty).

This operator runs entirely on in-memory witness trees — no data access —
which is why TLC computes counts "without touching the data in a fraction
of a second" while navigation iterates over all nodes (Section 6.3).  The
output tree is a path copy of its input (DESIGN §10): only the nodes from
the root down to the result's host are new, so the cost per tree is that
path plus the fold over the class, not the size of the witness.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..columns.batch import ColumnBatch
from ..errors import AlgebraError
from ..model.sequence import TreeSequence
from ..model.tree import TNode
from ..model.value import coerce_number
from .base import Context, Operator

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
    ) -> None:
        super().__init__([input_op] if input_op is not None else [])
        if fname not in FUNCTIONS:
            raise AlgebraError(f"unknown aggregate function {fname!r}")
        self.fname = fname
        self.lcl = lcl
        self.new_lcl = new_lcl

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
        out = TreeSequence()
        for tree in inputs[0]:
            nodes = tree.class_nodes(self.lcl)
            result = TNode(
                self.fname,
                self._compute(nodes),
                lcls={self.new_lcl} if self.new_lcl else None,
            )
            # the host is the first class node's parent (the root when
            # the class is empty or is the root): copy the path down to
            # it, share everything else with the input tree
            path = tree.spine(nodes[:1])[:-1]
            host = path[-1][0] if path else tree.root
            copy, mapping = tree.path_copy(path)
            mapping[id(host)].add_child(result)
            copy.adopt_index(
                tree, mapping, [(lcl, result) for lcl in result.lcls]
            )
            out.append(copy)
        return out

    def execute_batch(self, ctx: Context, inputs: list):
        """Columnar form: the aggregate node splices into the row slice.

        Per row the class values fold straight off the value column and
        the result node — tag ``fname``, fresh class label, no stored
        id — is inserted at the end of the host's subtree slice, which
        is exactly "as a sibling of the class nodes" (the per-tree path
        appends it as the host's last child).
        """
        source = inputs[0]
        if not isinstance(source, ColumnBatch) or not self.new_lcl:
            return super().execute_batch(ctx, inputs)
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
        for row in range(len(source)):
            start, end = src_offsets[row], src_offsets[row + 1]
            positions = [
                j for j in range(start, end) if src_labels[j] == self.lcl
            ]
            result = self._fold(
                len(positions), (src_values[j] for j in positions)
            )
            if positions:
                first_parent = src_parents[positions[0]]
                host = first_parent if first_parent >= 0 else 0
            else:
                host = 0
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
        out = ColumnBatch(offsets, tags, values, nids, labels, parents)
        self.note_batch(ctx, out)
        return out

    def lc_produced(self):
        return {self.new_lcl} if self.new_lcl else set()

    def lc_consumed(self):
        return {self.lcl}

    def params(self) -> str:
        return f"{self.fname}(({self.lcl})) -> ({self.new_lcl})"
