"""The Flatten operator ``FL[LCL_P, LCL_C]`` (Definition 5).

Breaks nested trees apart *without going back to the database*: for every
tree and every pair (p ∈ P, c ∈ C) it emits one output tree identical to
the input except only ``c`` is retained among C — all other members of C,
with their subtrees, are dropped.  P must bind to a singleton per tree and
C must map to children of P.

This is the second half of the Flatten rewrite (Section 4.2): evaluate the
``*``-edge once, run the aggregate, then flatten to recover the
one-pair-per-tree structure the join needs.

Each output tree is a path copy of the input (DESIGN §10): the nodes from
the root down to ``p`` are new, ``p``'s copy gets the thinned child list,
and every retained subtree is shared with the input and with the sibling
outputs.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from ..errors import AlgebraError
from ..model.sequence import TreeSequence
from ..model.tree import TNode, XTree
from .base import Context, Operator


def cluster(
    tree: XTree, parent_lcl: int, child_lcl: int, operator: str
) -> Tuple[TNode, Sequence[TNode]]:
    """The validated ``(p, C)`` of one tree, for Flatten and Shadow.

    P must bind to a singleton and every visible member of C must be
    one of its children.
    """
    parent = tree.singleton(parent_lcl, operator)
    members = tree.class_nodes(child_lcl)
    child_ids = {id(child) for child in parent.children}
    if not all(id(member) in child_ids for member in members):
        raise AlgebraError(
            f"{operator}: class {child_lcl} must map to children "
            f"of class {parent_lcl}"
        )
    return parent, members


class FlattenOp(Operator):
    """Emit one tree per member of class C, dropping its siblings in C."""

    name = "Flatten"

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
            member_ids = {id(member) for member in members}
            spine = tree.spine([parent])
            for keep in members:
                copy, mapping = tree.path_copy(spine)
                mapping[id(parent)].children = [
                    child
                    for child in parent.children
                    if child is keep or id(child) not in member_ids
                ]
                out.append(copy)
                ctx.metrics.trees_built += 1
        return out

    def lc_consumed(self):
        return {self.parent_lcl, self.child_lcl}

    def params(self) -> str:
        return f"({self.parent_lcl}, {self.child_lcl})"
