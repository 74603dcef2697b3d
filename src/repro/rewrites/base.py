"""Plan-analysis utilities for the Section 4 rewrite rules.

The rewrite detectors need to know, for every operator, which logical
classes it *uses* and which it *defines*; and they need to walk and edit
the operator tree (parent links, chain extraction, label renames).
"""

from __future__ import annotations

from typing import Dict, List, Set

from ..core.aggregate import AggregateOp
from ..core.base import Operator
from ..core.construct import CClassRef, CElement, ConstructOp
from ..core.dedup import DedupOp
from ..core.filter import FilterOp, TreeFilterOp
from ..core.flatten import FlattenOp
from ..core.join import JoinOp
from ..core.project import ProjectOp
from ..core.select import SelectOp
from ..core.shadow import IlluminateOp, ShadowOp
from ..core.sort_op import SortOp
from ..core.union import UnionOp


def used_lcls(op: Operator) -> Set[int]:
    """Classes whose members this operator reads.

    Thin wrapper over the :meth:`Operator.lc_consumed` protocol, kept as a
    function because the rewrite detectors predate the protocol.
    """
    return op.lc_consumed()


def defined_lcls(op: Operator) -> Set[int]:
    """Classes this operator introduces (``Operator.lc_produced``)."""
    return op.lc_produced()


def parent_map(root: Operator) -> Dict[int, Operator]:
    """Map ``id(op) -> consumer`` over an operator tree."""
    parents: Dict[int, Operator] = {}
    for op in root.walk():
        for child in op.inputs:
            parents[id(child)] = op
    return parents


def consumers_above(
    root: Operator, start: Operator
) -> List[Operator]:
    """The chain of operators from ``start``'s consumer up to the root."""
    parents = parent_map(root)
    chain: List[Operator] = []
    current = parents.get(id(start))
    while current is not None:
        chain.append(current)
        current = parents.get(id(current))
    return chain


def rename_lcl(op: Operator, old: int, new: int) -> None:
    """Rewrite references of class ``old`` to ``new`` in one operator."""
    if isinstance(op, FilterOp) and op.predicate.lcl == old:
        from ..core.base import ClassPredicate

        op.predicate = ClassPredicate(
            new, op.predicate.op, op.predicate.value
        )
    elif isinstance(op, JoinOp):
        from ..core.base import JoinPredicate

        op.predicates = [
            JoinPredicate(
                new if p.left_lcl == old else p.left_lcl,
                p.op,
                new if p.right_lcl == old else p.right_lcl,
                p.by_id,
            )
            for p in op.predicates
        ]
    elif isinstance(op, ProjectOp):
        op.keep_lcls = [new if l == old else l for l in op.keep_lcls]
    elif isinstance(op, DedupOp):
        op.lcls = [new if l == old else l for l in op.lcls]
        if old in op.bases:
            op.bases[new] = op.bases.pop(old)
    elif isinstance(op, AggregateOp):
        if op.lcl == old:
            op.lcl = new
        if op.pattern is not None and op.pattern.root.lc_ref == old:
            op.pattern.root.lc_ref = new
    elif isinstance(op, SortOp):
        op.lcls = [new if l == old else l for l in op.lcls]
    elif isinstance(op, SelectOp):
        if op.apt.root.lc_ref == old:
            op.apt.root.lc_ref = new
    elif isinstance(op, ConstructOp):
        _rename_in_construct(op.ctree, old, new)
    elif isinstance(op, TreeFilterOp):
        # the predicate closure itself is opaque and cannot be renamed;
        # keeping the declared class list current preserves the analysis
        op.lcls = [new if l == old else l for l in op.lcls]
    elif isinstance(op, (FlattenOp, ShadowOp)):
        if op.parent_lcl == old:
            op.parent_lcl = new
        if op.child_lcl == old:
            op.child_lcl = new
    elif isinstance(op, IlluminateOp):
        if op.lcl == old:
            op.lcl = new
    elif isinstance(op, UnionOp):
        if op.dedup_lcl == old:
            op.dedup_lcl = new


def _rename_in_construct(spec, old: int, new: int) -> None:
    if isinstance(spec, CClassRef):
        if spec.lcl == old:
            spec.lcl = new
        return
    if isinstance(spec, CElement):
        for index, (name, value) in enumerate(spec.attrs):
            if isinstance(value, CClassRef) and value.lcl == old:
                value.lcl = new
        for child in spec.children:
            _rename_in_construct(child, old, new)


def splice_above(
    root: Operator,
    below: Operator,
    new_chain: List[Operator],
) -> Operator:
    """Insert operators between ``below`` and its consumer.

    ``new_chain`` is ordered bottom-up; each element must accept its input
    as ``inputs[0]`` (pre-wired by the caller except the first).  Returns
    the (possibly new) plan root.
    """
    parents = parent_map(root)
    consumer = parents.get(id(below))
    current = below
    for op in new_chain:
        op.inputs = [current]
        current = op
    if consumer is None:
        return current
    consumer.replace_input(below, current)
    return root
