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

Like Flatten and Illuminate, the rewrite has two phases: a pure scan
(:func:`find_reuse_sites`) and the in-place edit (:func:`apply_reuse`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Set, Tuple

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


def _meet_at_a_join(
    root: Operator, group: List[SelectOp], b: SelectOp
) -> bool:
    """Does ``b`` feed the opposite input of one Join from any of ``group``?"""
    members = {id(a) for a in group}
    for op in root.walk():
        if isinstance(op, JoinOp):
            left, right = (
                {id(node) for node in side.walk()} for side in op.inputs
            )
            if (members & left and id(b) in right) or (
                members & right and id(b) in left
            ):
                return True
    return False


@dataclass
class ReuseSite:
    """One consumer input whose leaf Select an identical one replaces."""

    consumer: Operator
    index: int  # position of ``drop`` in ``consumer.inputs``
    keep: SelectOp  # the first instance of the pattern: survives
    drop: SelectOp  # the identical instance it replaces


def find_reuse_sites(root: Operator) -> List[ReuseSite]:
    """Phase 1: every leaf Select an earlier identical one can replace.

    Pure: the plan is not touched.  A Select joins its pattern's group
    unless it meets a member of the group at a Join, so the sites are
    exactly those :func:`apply_reuse` can take in order.
    """
    canonical: Dict[tuple, SelectOp] = {}
    groups: Dict[int, List[SelectOp]] = {}
    sites: List[ReuseSite] = []
    seen: Set[int] = set()
    for op in root.walk():
        if id(op) in seen:  # a sub-plan read twice: scanned already
            continue
        seen.add(id(op))
        for index, child in enumerate(op.inputs):
            if not isinstance(child, SelectOp):
                continue
            if child.apt.root.lc_ref is not None or child.inputs:
                continue
            signature = (child.apt.doc, _shape_signature(child.apt.root))
            keep = canonical.setdefault(signature, child)
            if keep is child:
                continue
            group = groups.setdefault(id(keep), [keep])
            if not _meet_at_a_join(root, group, child):
                group.append(child)
                sites.append(ReuseSite(op, index, keep, child))
    return sites


def apply_reuse(root: Operator, site: ReuseSite) -> None:
    """Phase 2, in place: the consumer reads ``site.keep``, not ``drop``.

    The dropped pattern's labels are renamed to the kept one's
    throughout the plan, so every consumer reads the shared classes.
    """
    pairs: List[Tuple[int, int]] = []
    _label_pairs(site.keep.apt.root, site.drop.apt.root, pairs)
    site.consumer.inputs[site.index] = site.keep
    for old, new in pairs:
        if old == new:
            continue
        for plan_op in root.walk():
            rename_lcl(plan_op, old, new)


def share_common_selects(root: Operator) -> int:
    """Collapse structurally identical leaf Selects to shared instances.

    Returns the number of operators eliminated.  The plan becomes a DAG;
    the evaluator's memoisation executes each shared node once.
    """
    sites = find_reuse_sites(root)
    for site in sites:
        apply_reuse(root, site)
    return len(sites)
