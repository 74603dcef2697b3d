"""Path utilities: SPtoAPT and friends (Figure 6 helpers).

``SPtoAPT`` turns a Simple Path into a chain of annotated pattern nodes
("use Rel from StepAxis, use mSpec for all edges"); ``graft_steps`` is the
working part of ``addToAPT``, attaching such a chain below an existing
pattern node.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from ..patterns.apt import APTNode
from ..patterns.logical_class import LCLAllocator
from ..patterns.predicates import NodeTest
from .ast_nodes import PathExpr, Step

#: Mirror of each comparison operator when its operands are swapped.
FLIPPED_OP = {"=": "=", "!=": "!=", "<": ">", ">": "<", "<=": ">=", ">=": "<="}


def graft_steps(
    base: APTNode,
    steps: Sequence[Step],
    mspec: str,
    lcls: LCLAllocator,
    class_tags: Optional[Dict[int, str]] = None,
) -> APTNode:
    """Attach a chain of pattern nodes for ``steps`` below ``base``.

    Every edge gets the same matching specification, per Figure 6's
    ``SPtoAPT``.  Existing children are reused when an identical plain step
    (same tag, axis and mspec, no predicate) is already present — the
    within-pattern sharing that keeps one ``$var`` pointing at one node
    when several clauses mention the same prefix.

    Returns the leaf pattern node.  ``class_tags`` (label -> tag) is
    updated for every node created.
    """
    current = base
    for step in steps:
        reuse = None
        for edge in current.edges:
            same_shape = (
                edge.axis == step.axis
                and edge.mspec == mspec
                and edge.child.test.tag == step.name
                and not edge.child.test.comparisons
            )
            if same_shape:
                reuse = edge.child
                break
        if reuse is not None:
            current = reuse
            continue
        child = APTNode(NodeTest(step.name), lcls.allocate())
        current.add_edge(child, step.axis, mspec)
        if class_tags is not None:
            class_tags[child.lcl] = step.name
        current = child
    return current


def sp_to_apt(
    path: PathExpr,
    mspec: str,
    lcls: LCLAllocator,
    class_tags: Optional[Dict[int, str]] = None,
) -> APTNode:
    """``SPtoAPT`` for a document-rooted path: build a fresh pattern chain.

    The root is a ``doc_root`` node (the paper's plans all start there);
    the caller wraps it into an :class:`~repro.patterns.apt.APT` bound to
    ``path.doc``.
    """
    root = APTNode(NodeTest("doc_root"), lcls.allocate())
    if class_tags is not None:
        class_tags[root.lcl] = "doc_root"
    graft_steps(root, path.steps, mspec, lcls, class_tags)
    return root

