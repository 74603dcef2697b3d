"""Shadow and Illuminate (Definitions 6 and 7).

Shadow behaves like Flatten — one output tree per (p, c) pair — but instead
of *dropping* the other members of C it marks them (and their subtrees)
**shadowed**: still members of their logical classes, but invisible to
every operator except Illuminate.  Illuminate renders all shadowed nodes of
one class active again; it does not change the number of trees.

Together they let a plan evaluate a join on the one-pair-per-tree structure
and afterwards recover *all* clustered members without a second trip to the
database (Section 4.3's rewrite).

Neither writes to its input: outputs are path copies (DESIGN §10).  Shadow
copies the root→``p`` path per output tree and swaps in shadowed twins of
the hidden members (the members' subtrees stay shared); Illuminate copies
the paths to the shadowed class nodes and clears the flag on the copies.
"""

from __future__ import annotations

from typing import Dict, List

from ..model.sequence import TreeSequence
from ..model.tree import TNode
from .base import Context, Operator
from .flatten import cluster


class ShadowOp(Operator):
    """Like Flatten, but hides siblings in C instead of dropping them."""

    name = "Shadow"

    def __init__(
        self, parent_lcl: int, child_lcl: int, input_op: Operator = None
    ) -> None:
        super().__init__([input_op] if input_op is not None else [])
        self.parent_lcl = parent_lcl
        self.child_lcl = child_lcl

    def execute(
        self, ctx: Context, inputs: List[TreeSequence]
    ) -> TreeSequence:
        out = TreeSequence()
        for tree in inputs[0]:
            parent, members = cluster(
                tree, self.parent_lcl, self.child_lcl, self.name
            )
            # one shadowed twin per member, shared by every output tree
            # of this input that hides it
            hidden: Dict[int, TNode] = {}
            for member in members:
                twin = hidden[id(member)] = member.copy_node()
                twin.shadowed = True
            spine = tree.spine([parent])
            for keep in members:
                copy, mapping = tree.path_copy(spine)
                mapping[id(parent)].children = [
                    child if child is keep else hidden.get(id(child), child)
                    for child in parent.children
                ]
                out.append(copy)
                ctx.metrics.trees_built += 1
        return out

    def lc_consumed(self):
        return {self.parent_lcl, self.child_lcl}

    def params(self) -> str:
        return f"({self.parent_lcl}, {self.child_lcl})"


class IlluminateOp(Operator):
    """Render all shadowed nodes of one class (and their subtrees) active."""

    name = "Illuminate"

    def __init__(self, lcl: int, input_op: Operator = None) -> None:
        super().__init__([input_op] if input_op is not None else [])
        self.lcl = lcl

    def execute(
        self, ctx: Context, inputs: List[TreeSequence]
    ) -> TreeSequence:
        out = TreeSequence()
        for tree in inputs[0]:
            hidden = [
                node
                for node in tree.class_nodes(self.lcl, include_shadowed=True)
                if node.shadowed
            ]
            if not hidden:
                out.append(tree)
                continue
            copy, mapping = tree.path_copy(tree.spine(hidden))
            for node in hidden:
                mapping[id(node)].shadowed = False
            out.append(copy)
        return out

    def lc_consumed(self):
        return {self.lcl}

    def params(self) -> str:
        return f"({self.lcl})"
