"""Operator base classes and predicate forms for the TLC algebra.

Every operator "maps one or more sets of trees to one set of trees"
(Section 2.3).  Plans are operator trees evaluated bottom-up,
set-at-a-time; shared sub-plans are evaluated once (the evaluator memoises
by operator identity, matching the paper's pattern-tree-reuse execution
where "the results of a pattern tree evaluation persist and are shared").
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import List, Optional, Sequence, Set, Union

from ..columns.batch import as_tree_sequence
from ..errors import CardinalityError
from ..model.sequence import TreeSequence
from ..model.tree import TNode, XTree
from ..model.value import Atomic, compare
from ..patterns.match import PatternMatcher
from ..patterns.scan_cache import ScanCache
from ..storage.database import Database
from ..storage.stats import Metrics
from .limits import ExecutionLimits


class Context:
    """Evaluation context: the database, its matcher and metrics.

    One context is created per plan execution, so the attached
    :class:`~repro.patterns.scan_cache.ScanCache` is **query-scoped**:
    identical index scans and APT-leaf matches issued by different
    operators of the same plan are answered from the memo, and nothing
    survives into the next query.  Pass ``scan_cache=False`` to reproduce
    the uncached behaviour (every pattern node re-scans), or an existing
    :class:`ScanCache` instance to share one across executions of
    *immutable* data (benchmark warm runs) — never across *concurrent*
    executions; the cache asserts its single-query lifetime.

    ``limits`` (a :class:`~repro.core.limits.ExecutionLimits`) arms the
    cooperative deadline / output-budget / cancellation checks in the
    evaluator loop and the pattern matcher; ``None`` (the default) runs
    unbudgeted with zero checking overhead.
    """

    def __init__(
        self,
        db: Database,
        scan_cache: Union[bool, ScanCache, None] = True,
        limits: Optional[ExecutionLimits] = None,
    ) -> None:
        self.db = db
        if scan_cache is True:
            scan_cache = ScanCache(db.metrics)
        elif scan_cache is False:
            scan_cache = None
        self.scan_cache: Optional[ScanCache] = scan_cache
        self.limits = limits
        self.matcher = PatternMatcher(db, scan_cache=scan_cache, limits=limits)

    @property
    def metrics(self) -> Metrics:
        """The database's shared metrics bundle."""
        return self.db.metrics


class Operator(ABC):
    """A logical TLC operator with zero or more input operators."""

    #: Operator name used by the plan pretty-printer.
    name = "operator"

    #: Cost-based planner annotation (``repro.planner``), on the plan
    #: root only: the full decision record.  ``None`` = unplanned.
    planner_decision: Optional[object] = None

    def __init__(self, inputs: Sequence["Operator"] = ()) -> None:
        self.inputs: List[Operator] = list(inputs)

    @abstractmethod
    def execute(
        self, ctx: Context, inputs: List[TreeSequence]
    ) -> TreeSequence:
        """Produce this operator's output from already-evaluated inputs."""

    def execute_batch(self, ctx: Context, inputs: list):
        """Batch-at-a-time execution: inputs and output may be
        :class:`~repro.columns.batch.ColumnBatch` objects.

        The base implementation is the **fallback boundary**: it
        materialises any batch inputs into trees (metered as
        ``batch_fallbacks``) and delegates to the per-tree
        :meth:`execute`.  Operators with a vectorised form override this
        and call :meth:`note_batch` on the batches they emit.
        """
        return self.execute(
            ctx,
            [
                as_tree_sequence(item, ctx.metrics, fallback=True)
                for item in inputs
            ],
        )

    def note_batch(self, ctx: Context, result) -> None:
        """Meter one batch-form execution (``batch_ops``/``batch_rows``)."""
        metrics = ctx.metrics
        metrics.batch_ops += 1
        metrics.batch_rows += len(result)

    def lc_produced(self) -> Set[int]:
        """Logical class labels this operator introduces into its output.

        The static counterpart of the paper's "each operator names the
        nodes it touches via LC labels": a Select produces the labels of
        its pattern nodes, an Aggregate its fresh result label, and so on.
        Label 0 is the "unlabelled" sentinel and is never reported.
        """
        return set()

    def lc_consumed(self) -> Set[int]:
        """Logical class labels this operator reads from its input trees."""
        return set()

    def params(self) -> str:
        """One-line parameter description for plan explainers."""
        return ""

    def describe(self, depth: int = 0) -> str:
        """Indented rendering of the plan rooted at this operator."""
        pad = "  " * depth
        header = f"{pad}{self.name}"
        if self.params():
            header += f" {self.params()}"
        lines = [header]
        for child in self.inputs:
            lines.append(child.describe(depth + 1))
        return "\n".join(lines)

    def walk(self):
        """Pre-order traversal of the plan."""
        yield self
        for child in self.inputs:
            yield from child.walk()

    def replace_input(self, old: "Operator", new: "Operator") -> None:
        """Swap one input operator for another (used by rewrites)."""
        self.inputs = [new if op is old else op for op in self.inputs]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} {self.params()}>"


@dataclass(frozen=True)
class ClassPredicate:
    """Predicate comparing the content of a class's nodes to a constant.

    This is the predicate form of the Filter operator: ``(11) > 5``,
    ``EVERY (15) > 2`` and friends.
    """

    lcl: int
    op: str
    value: Atomic

    def test(self, node: TNode) -> bool:
        """Evaluate the comparison on one node's content."""
        return compare(node.value, self.op, self.value)

    def describe(self) -> str:
        """Render as the paper writes it: ``(11) > 5``."""
        return f"({self.lcl}) {self.op} {self.value!r}"


@dataclass(frozen=True)
class JoinPredicate:
    """Value-join predicate between a left and a right logical class.

    Both classes must bind to singleton sets in their trees (Section 2.3's
    Join contract).  With ``by_id`` the predicate compares stored *node
    identifiers* instead of content — the identity join the TAX baseline
    uses to stitch RETURN-path selections back onto bound variables
    (Section 6.1).
    """

    left_lcl: int
    op: str
    right_lcl: int
    by_id: bool = False

    def describe(self) -> str:
        """Render as the paper writes it: ``(7) = (9)``."""
        kind = "id" if self.by_id else ""
        return f"({self.left_lcl}) {self.op}{kind} ({self.right_lcl})"


def class_node_id(tree: XTree, lcl: int, operator: str):
    """Node id of the singleton node of ``lcl`` (None when empty)."""
    nodes = tree.class_nodes(lcl)
    if not nodes:
        return None
    if len(nodes) > 1:
        raise CardinalityError(lcl, len(nodes), operator)
    return nodes[0].nid


def class_value(tree: XTree, lcl: int, operator: str) -> Optional[Atomic]:
    """Content of the singleton node of ``lcl`` (None when class is empty).

    Raises :class:`~repro.errors.CardinalityError` when the class holds
    more than one node — the singleton contract of the Join and
    Duplicate-Elimination operators.  Shadowed members are visible here:
    a join may read the hidden correlation classes a nested query's
    construct carries for its benefit (see ``CClassRef.hidden``).
    """
    nodes = tree.class_nodes(lcl, include_shadowed=True)
    if not nodes:
        return None
    if len(nodes) > 1:
        raise CardinalityError(lcl, len(nodes), operator)
    return nodes[0].value
