"""Pattern-tree reuse as common-sub-expression elimination (Section 4.1).

The TLC execution model already shares the *results* of a pattern match
between consumers (the evaluator memoises shared sub-plans).  This pass
creates that sharing structurally: leaf Selects whose annotated pattern
trees are identical up to class labels collapse to one operator instance;
the eliminated pattern's labels are renamed to the surviving pattern's
labels throughout the plan, so the match runs once and all consumers read
the same logical classes.

Two Selects that feed opposite inputs of one Join are never shared: the
Join puts both outputs in one tree, where the shared labels would bind
twice (a singleton class would hold two nodes).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..core.base import Operator
from ..core.join import JoinOp
from ..core.select import SelectOp
from ..patterns.apt import APTNode
from .base import rename_lcl


def _shape_signature(node: APTNode) -> tuple:
    """Structural fingerprint of a pattern subtree, ignoring labels."""
    return (
        node.test.tag,
        node.test.comparisons,
        node.lc_ref,
        tuple(
            (edge.axis, edge.mspec, _shape_signature(edge.child))
            for edge in node.edges
        ),
    )


def _label_pairs(
    keep: APTNode, drop: APTNode, out: List[Tuple[int, int]]
) -> None:
    """Collect (dropped label -> kept label) pairs over isomorphic trees."""
    out.append((drop.lcl, keep.lcl))
    for keep_edge, drop_edge in zip(keep.edges, drop.edges):
        _label_pairs(keep_edge.child, drop_edge.child, out)


def _meet_at_a_join(root: Operator, a: SelectOp, b: SelectOp) -> bool:
    """Do ``a`` and ``b`` feed opposite inputs of one Join?"""
    for op in root.walk():
        if isinstance(op, JoinOp):
            left, right = (
                {id(node) for node in side.walk()} for side in op.inputs
            )
            if (id(a) in left and id(b) in right) or (
                id(b) in left and id(a) in right
            ):
                return True
    return False


def share_common_selects(root: Operator) -> int:
    """Collapse structurally identical leaf Selects to shared instances.

    Returns the number of operators eliminated.  The plan becomes a DAG;
    the evaluator's memoisation executes each shared node once.
    """
    canonical: Dict[tuple, SelectOp] = {}
    eliminated = 0
    for op in list(root.walk()):
        for index, child in enumerate(op.inputs):
            if not isinstance(child, SelectOp):
                continue
            if child.apt.root.lc_ref is not None or child.inputs:
                continue
            signature = (child.apt.doc, _shape_signature(child.apt.root))
            existing = canonical.get(signature)
            if existing is None:
                canonical[signature] = child
            elif existing is not child and not _meet_at_a_join(
                root, existing, child
            ):
                pairs: List[Tuple[int, int]] = []
                _label_pairs(existing.apt.root, child.apt.root, pairs)
                op.inputs[index] = existing
                for old, new in pairs:
                    if old == new:
                        continue
                    for plan_op in root.walk():
                        rename_lcl(plan_op, old, new)
                eliminated += 1
    return eliminated
