"""Cardinality interval bounds (LC3xx) over a plan.

The interval half of :func:`~repro.analysis.analyze`: given per-tag node
counts (:class:`~repro.storage.stats.CardinalityStats`), the analyzer's
walk runs the plan over *intervals of tree counts* instead of tree
sequences — every operator's output edge gets a ``[lo, hi]`` bound from
its :func:`transfer` function.  ``hi is None`` means unbounded.

Two warnings fall out (:func:`check_bounds`):

* **LC301** — an operator's upper bound is provably zero against the
  target database (a tag that never occurs, a join with an empty side):
  the branch is dead weight and the query author should know;
* **LC302** — an operator *introduces* an unbounded or explosive upper
  bound (beyond :data:`BLOWUP_FACTOR` × the database node count) from
  bounded inputs: the fingerprint of a cross-product-like join or a
  missed selective rewrite.

Bounds are conservative upper bounds, never estimates: each embedding
of a pattern (or pairing of join inputs) is counted as if every choice
were independent.  Flatten and Shadow emit one tree per child-class
member: their bound counts the source Select's nested edge as ``-``
(only Filter, Aggregate, Sort, Project and Dedup between), else the
input bound times the child tag's node count.  The bounds are exposed
through ``repro explain --lint``; ``tests/analysis/test_sweep.py``
bounds every XMark plan, and ``tests/analysis/test_cardinality.py``
holds every bound to the traced output cardinality.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Union

from ..core.aggregate import AggregateOp
from ..core.base import Operator
from ..core.construct import ConstructOp
from ..core.dedup import DedupOp
from ..core.filter import FilterOp, TreeFilterOp
from ..core.flatten import FlattenOp
from ..core.join import JoinOp
from ..core.project import ProjectOp
from ..core.select import SelectOp
from ..core.shadow import IlluminateOp, ShadowOp
from ..core.sort_op import SortOp
from ..core.union import UnionOp
from ..patterns.apt import APTNode
from ..storage.stats import CardinalityStats
from .diagnostics import (
    CARDINALITY_BLOWUP,
    EMPTY_BRANCH,
    Diagnostic,
    describe_op,
)

#: The LC302 threshold: a join bound beyond ``10000 ×`` the database
#: node count is treated as explosive even though finite.  Predicated
#: value joins are still counted as cross products (value selectivity is
#: unknown), so the factor leaves headroom for legitimate plans.
BLOWUP_FACTOR = 10_000


@dataclass(frozen=True)
class Interval:
    """A closed cardinality interval; ``hi=None`` means unbounded."""

    lo: int = 0
    hi: Optional[int] = None

    def render(self) -> str:
        upper = "inf" if self.hi is None else str(self.hi)
        return f"[{self.lo}, {upper}]"

    @property
    def empty(self) -> bool:
        return self.hi == 0


def _mul(a: Optional[int], b: Optional[int]) -> Optional[int]:
    if a is None or b is None:
        return 0 if a == 0 or b == 0 else None
    return a * b


def _add(a: Optional[int], b: Optional[int]) -> Optional[int]:
    if a is None or b is None:
        return None
    return a + b


def _edge_factor(
    edge, doc: Optional[str], stats: CardinalityStats, flat_lcl=None
) -> Optional[int]:
    """How one pattern edge multiplies its parent's witness count.

    Required edges (``-``) contribute one witness per child embedding;
    optional-single edges (``?``) contribute the child embeddings plus
    the absent case; nested edges (``+``/``*``) group all matches into
    one witness (``+`` with a provably empty child zeroes the parent).
    The edge into the node labelled ``flat_lcl`` counts as ``-``.
    """
    child = _pattern_embeddings(edge.child, doc, stats, flat_lcl)
    mspec = _mspec(edge, flat_lcl)
    if mspec == "-":
        return child
    if mspec == "?":
        return None if child is None else child + 1
    if mspec == "+" and child == 0:
        return 0
    return 1  # '*' and non-empty '+': nesting, no multiplication


def _mspec(edge, flat_lcl: Optional[int]) -> str:
    flat = flat_lcl is not None and edge.child.lcl == flat_lcl
    return "-" if flat else edge.mspec


def _pattern_embeddings(
    node: APTNode, doc: Optional[str], stats: CardinalityStats, flat_lcl=None
) -> Optional[int]:
    """Upper bound on embeddings of the pattern subtree at ``node``.

    Each embedding picks one match for the node plus one embedding per
    non-nested child, so choices multiply.  When some required
    parent-child edge has a bounded child, the child match *determines*
    the parent (every node has exactly one parent), so the node's own
    count drops out of the product — this is what keeps a deep required
    chain bounded by its leaves instead of the product of every level.
    """
    count = stats.tag_count(doc, node.test.tag)
    if count == 0:
        return 0
    product: Optional[int] = 1
    anchored = False
    for edge in node.edges:
        factor = _edge_factor(edge, doc, stats, flat_lcl)
        product = _mul(product, factor)
        if (
            _mspec(edge, flat_lcl) == "-"
            and edge.axis == "pc"
            and factor is not None
        ):
            anchored = True
    if anchored:
        return product
    return _mul(count, product)


def check_bounds(
    op: Operator,
    ins: List[Interval],
    out: Interval,
    threshold: int,
    diagnostics: List[Diagnostic],
) -> None:
    """LC301/LC302 for one operator, from its input and output bounds."""
    if out.empty and not any(i.empty for i in ins):
        diagnostics.append(
            Diagnostic(
                code=EMPTY_BRANCH,
                message=(
                    "output bounded at 0 trees against the loaded database"
                ),
                operator=describe_op(op),
                op_id=id(op),
            )
        )
        return
    # LC302 fires where a blowup is *introduced*: a bound that becomes
    # unbounded from bounded inputs, or a Join whose output bound
    # explodes past the threshold while both sides were fine.  A
    # Select's large product bound is the declared pattern shape, not a
    # plan defect, so it does not trip by itself.
    if not all(i.hi is not None and i.hi <= threshold for i in ins):
        return
    if out.hi is None:
        diagnostics.append(
            Diagnostic(
                code=CARDINALITY_BLOWUP,
                message="upper bound becomes unbounded here",
                operator=describe_op(op),
                op_id=id(op),
            )
        )
    elif isinstance(op, JoinOp) and out.hi > threshold:
        diagnostics.append(
            Diagnostic(
                code=CARDINALITY_BLOWUP,
                message=(
                    f"join output bound {out.render()} exceeds "
                    f"{BLOWUP_FACTOR}x the database node count"
                ),
                operator=describe_op(op),
                op_id=id(op),
            )
        )


def transfer(
    op: Operator, ins: List[Interval], stats: CardinalityStats
) -> Interval:
    """One operator's interval transfer function."""
    if isinstance(op, SelectOp):
        return _select_bound(op, ins, stats)
    if isinstance(op, JoinOp):
        return _join_bound(op, ins)
    if isinstance(op, UnionOp):
        lo: Optional[int] = 0
        hi: Optional[int] = 0
        for interval in ins:
            lo = (lo or 0) + interval.lo
            hi = _add(hi, interval.hi)
        if getattr(op, "dedup_lcl", None) is not None:
            lo = min(lo or 0, 1) if (lo or 0) > 0 else 0
        return Interval(lo or 0, hi)
    if isinstance(op, (FilterOp, TreeFilterOp)):
        return Interval(0, ins[0].hi if ins else None)
    if isinstance(op, DedupOp):
        source = ins[0] if ins else Interval()
        return Interval(min(source.lo, 1), source.hi)
    if isinstance(op, (FlattenOp, ShadowOp)):
        return _flatten_bound(op, ins, stats)
    if isinstance(op, (AggregateOp, SortOp, ProjectOp, IlluminateOp)):
        return ins[0] if ins else Interval()
    if isinstance(op, ConstructOp):
        # one constructed tree per input tree; a leaf Construct emits one
        return ins[0] if ins else Interval(1, 1)
    # unknown operator: conservative
    if len(ins) == 1:
        return Interval(0, ins[0].hi)
    return Interval(0, None)


def _select_bound(
    op: SelectOp, ins: List[Interval], stats: CardinalityStats
) -> Interval:
    root = op.apt.root
    if root.lc_ref is not None:
        # extension: each input tree is extended below its class nodes;
        # the choices below the anchor multiply per input tree
        source = ins[0] if ins else Interval(0, None)
        factor: Optional[int] = 1
        for edge in root.edges:
            factor = _mul(factor, _edge_factor(edge, op.apt.doc, stats))
        return Interval(0, _mul(source.hi, factor))
    if not op.inputs:
        return Interval(0, _pattern_embeddings(root, op.apt.doc, stats))
    # in-memory match over constructed content: per-tree multiplicity
    # is not derivable from document statistics
    return Interval(0, None)


#: At most one tree out per tree in, and no class gains a member.
_NON_GROWING = (AggregateOp, DedupOp, FilterOp, ProjectOp, SortOp,
                TreeFilterOp)


def _flatten_bound(
    op: Union[FlattenOp, ShadowOp],
    ins: List[Interval],
    stats: CardinalityStats,
) -> Interval:
    """Flatten and Shadow emit one tree per member of the child class.

    Above non-growing operators over the leaf Select that labels the
    class, that is at most the Select's embeddings with the class's
    nested edge counted as ``-``; otherwise, per input tree, at most
    the database's node count of the class's tag.
    """
    if not op.inputs:
        return Interval(0, None)
    source = op.inputs[0]
    while isinstance(source, _NON_GROWING):
        source = source.inputs[0]
    if isinstance(source, SelectOp) and not source.inputs:
        root, doc = source.apt.root, source.apt.doc
        if root.lc_ref is None and root.find(op.child_lcl) is not None:
            bound = _pattern_embeddings(root, doc, stats, op.child_lcl)
            return Interval(0, bound)
    for below in op.walk():
        if isinstance(below, SelectOp):
            node = below.apt.root.find(op.child_lcl)
            if node is not None:
                tags = stats.tag_count(below.apt.doc, node.test.tag)
                return Interval(0, _mul(ins[0].hi, tags))
    return Interval(0, None)


def _join_bound(op: JoinOp, ins: List[Interval]) -> Interval:
    left = ins[0] if ins else Interval()
    right = ins[1] if len(ins) > 1 else Interval()
    mspec = getattr(op, "right_mspec", "-")
    if mspec == "-":
        return Interval(0, _mul(left.hi, right.hi))
    if mspec == "?":
        # left outer, single right per output: every left tree survives
        hi = _mul(
            left.hi, None if right.hi is None else max(right.hi, 1)
        )
        return Interval(left.lo, hi)
    if mspec == "+":
        # nest: matching rights group under one output per left tree
        return Interval(0, left.hi)
    # '*': outer nest — exactly one output per left tree
    return Interval(left.lo, left.hi)
