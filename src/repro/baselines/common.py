"""TAX and GTP plans (Section 6.1): the Figure 6 block with flat branches.

Both competitors are pattern-tree algebras without annotated edges.
:class:`BaselineBlock` is therefore the TLC translator's own block with
every graft flattened (``FLAT``) and every place TLC uses a nest-edge or
an extension Select replaced by a *branch*:

1. a fresh flat Select from the database for the branch path,
2. a GroupBy collecting the branch members per anchor node,
3. a re-attachment to the main pipeline — a cheap hash **Merge** for GTP
   (which reuses its single generalized pattern), or a full **identity
   Join** for TAX ("a join operator will be used to stitch together the
   RETURN clause paths with the FOR/WHERE parts").

TAX additionally materialises the complete subtree of every bound
variable right after its selection (``Project`` with subtrees + duplicate
elimination), the early-materialisation cost the paper charges it with.
Nested FLWORs join flat and are re-nested with a grouping step
(:class:`~repro.baselines.ops.NestJoinResultsOp`) instead of TLC's
nest-join.  WHERE dispatch, value joins, constructed content, assembly
and RETURN construction are the TLC block's code, unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from ..core.aggregate import AggregateOp
from ..core.base import ClassPredicate, JoinPredicate, Operator
from ..core.construct import CClassRef
from ..core.dedup import DedupOp
from ..core.filter import FilterOp
from ..core.join import JoinOp
from ..core.project import ProjectOp
from ..core.select import SelectOp
from ..core.sort_op import SortOp
from ..errors import TranslationError
from ..patterns.apt import APT, APTNode
from ..patterns.predicates import NodeTest
from ..xquery.ast_nodes import BoolExpr, PathExpr, SimplePredicate, Step
from ..xquery.parser import parse_query
from ..xquery.translator import (
    TLCTranslator,
    TranslationResult,
    _Binding,
    _Block,
    _DocSource,
    var_of,
)
from .ops import GroupByOp, MergeOp, NestJoinResultsOp

#: How nested edges are flattened: mandatory stays ``-``, nested/optional
#: parts become outer flat matches.
FLAT = {"-": "-", "?": "?", "+": "-", "*": "?"}


@dataclass
class _TaxSource(_DocSource):
    """A TAX document source: the flat Select, materialised early.

    The whole subtree of every bound variable (``var_lcls``) is fetched
    and duplicates are eliminated (Section 6.1); join-participating
    classes (``keep_lcls``) key by content so that distinct join
    partners survive the duplicate elimination.
    """

    var_lcls: List[int] = field(default_factory=list)
    keep_lcls: List[int] = field(default_factory=list)

    def build(self) -> Operator:
        keep = sorted(set(self.var_lcls + self.keep_lcls))
        top: Operator = ProjectOp(keep, SelectOp(self.apt), with_subtrees=True)
        bases = {lcl: "content" for lcl in self.keep_lcls}
        top = DedupOp(keep, "id", top, bases=bases)
        for builder in self.branch_builders:
            top = builder(top)
        return top


def _steps_to(node: APTNode, target: APTNode) -> Optional[List[Step]]:
    """The path steps from ``node`` down to ``target``, if below it."""
    if node is target:
        return []
    for edge in node.edges:
        below = _steps_to(edge.child, target)
        if below is not None:
            return [Step(edge.axis, edge.child.test.tag)] + below
    return None


class BaselineBlock(_Block):
    """One FLWOR block translated in the TAX or GTP style."""

    def graft(
        self, base: APTNode, steps: Sequence[Step], mspec: str
    ) -> APTNode:
        return super().graft(base, steps, FLAT[mspec])

    def _materialise(self, index: int, lcl: int, by_content: bool) -> None:
        """Keep ``lcl`` in TAX's early materialisation of source ``index``.

        ``by_content`` marks a join class (deduplicated by content); a
        GTP source materialises nothing, so this is a no-op there.
        """
        source = self.sources[index]
        if isinstance(source, _TaxSource):
            kept = source.keep_lcls if by_content else source.var_lcls
            kept.append(lcl)

    # ------------------------------------------------------------------
    # branches (the split / group / merge-or-join machinery)
    # ------------------------------------------------------------------
    def _branch(
        self, binding: _Binding, steps: Sequence[Step]
    ) -> Tuple[Callable[[Operator], Operator], int]:
        """Build a branch select for ``binding``'s var extended by ``steps``.

        Returns ``(builder, leaf_lcl)`` where ``builder`` maps the main
        pipeline top to the merged/joined pipeline.
        """
        apt = self.sources[binding.source_index].apt
        root_steps = _steps_to(apt.root, binding.apt_node)
        root = APTNode(NodeTest("doc_root"), self.lcls.allocate())
        self.class_tags[root.lcl] = "doc_root"
        anchor = self.graft(root, root_steps, "-")
        if self.translator.style == "tax":
            # TAX re-applies the anchor's predicates: "redoing the same
            # selection on bidder time and time again"
            anchor.test = NodeTest(
                anchor.test.tag, binding.apt_node.test.comparisons
            )
        leaf = self.graft(root, root_steps + list(steps), "-")
        grouped = GroupByOp(anchor.lcl, leaf.lcl, SelectOp(APT(root, apt.doc)))
        anchor_lcl = anchor.lcl
        main_anchor = binding.label

        if self.translator.style == "gtp":
            def builder(top: Operator) -> Operator:
                return MergeOp(top, grouped, main_anchor, anchor_lcl)
        else:
            def builder(top: Operator) -> Operator:
                return JoinOp(
                    top,
                    grouped,
                    [JoinPredicate(main_anchor, "=", anchor_lcl, by_id=True)],
                    root_lcl=self.lcls.allocate(),
                    right_mspec="?",
                )
        return builder, leaf.lcl

    def _group_key_lcl(self) -> int:
        """Class identifying 'one left tree' when regrouping join output."""
        for var in self.flwor.for_vars():
            binding = self.bindings.get(var)
            if binding is not None and binding.apt_node is not None:
                return binding.label
        raise TranslationError(
            "nested LET requires a document-bound FOR variable to group by"
        )

    def _stored(self, path: PathExpr) -> Optional[_Binding]:
        """``path``'s binding if this block's and over stored nodes.

        That is the case a branch replaces; None sends the caller to the
        TLC block's handling (constructed content, or an error).
        """
        owner, binding = self.lookup(var_of(path))
        if owner is self and binding.apt_node is not None:
            return binding
        return None

    # ------------------------------------------------------------------
    # FOR / LET
    # ------------------------------------------------------------------
    def _bind_path(self, var: str, path: PathExpr, mspec: str) -> None:
        if path.doc is None:
            super()._bind_path(var, path, mspec)
        else:
            # a document path is a flat ``-`` match, FOR and LET alike
            root = APTNode(NodeTest("doc_root"), self.lcls.allocate())
            self.class_tags[root.lcl] = "doc_root"
            leaf = self.graft(root, path.steps, "-")
            tax = self.translator.style == "tax"
            source = (_TaxSource if tax else _DocSource)(APT(root, path.doc))
            self.sources.append(source)
            self.bindings[var] = _Binding(
                len(self.sources) - 1, apt_node=leaf
            )
        binding = self.bindings[var]
        self._materialise(binding.source_index, binding.label, False)

    # ------------------------------------------------------------------
    # WHERE
    # ------------------------------------------------------------------
    def _aggr_predicate(self, pred) -> None:
        binding = self._stored(pred.path)
        if binding is None:
            super()._aggr_predicate(pred)
            return
        new_lcl = self.lcls.allocate()
        self.class_tags[new_lcl] = pred.fname
        predicate = ClassPredicate(new_lcl, pred.op, pred.value)
        builder, leaf_lcl = self._branch(binding, pred.path.steps)
        self.sources[binding.source_index].branch_builders += [
            builder,
            lambda top, f=pred.fname, l=leaf_lcl, n=new_lcl: AggregateOp(
                f, l, n, top
            ),
            lambda top, p=predicate: FilterOp(p, "ALO", top),
        ]

    def _resolve_join_side(self, path: PathExpr):
        owner, index, lcl = super()._resolve_join_side(path)
        owner._materialise(index, lcl, True)
        return owner, index, lcl

    def _quantifier(self, quant) -> None:
        binding = self._stored(quant.path)
        if binding is None:
            super()._quantifier(quant)
            return
        mode = "E" if quant.kind == "every" else "ALO"
        steps = list(quant.path.steps) + list(quant.predicate.path.steps)
        builder, leaf_lcl = self._branch(binding, steps)
        predicate = ClassPredicate(
            leaf_lcl, quant.predicate.op, quant.predicate.value
        )
        self.sources[binding.source_index].branch_builders += [
            builder,
            lambda top, p=predicate, m=mode: FilterOp(p, m, top),
        ]

    def _where_or(self, expr: BoolExpr) -> None:
        self._check_disjuncts(expr)
        super()._where_or(expr)

    def _check_disjuncts(self, expr) -> None:
        """Accept only simple disjuncts over this block's stored nodes.

        Grafting each one here (the TLC block re-grafts onto the same
        pattern nodes) lets TAX keep the classes the OR filter reads.
        """
        if isinstance(expr, BoolExpr) and expr.op == "or":
            self._check_disjuncts(expr.left)
            self._check_disjuncts(expr.right)
            return
        if not isinstance(expr, SimplePredicate):
            raise TranslationError(
                "baseline OR supports simple predicates only"
            )
        binding = self._stored(expr.path)
        if binding is None:
            raise TranslationError("baseline OR over outer/constructed")
        leaf = self.graft(binding.apt_node, expr.path.steps, "*")
        self._materialise(binding.source_index, leaf.lcl, True)

    # ------------------------------------------------------------------
    # assembly, ORDER BY and RETURN
    # ------------------------------------------------------------------
    def _join_source(
        self,
        top: Operator,
        right: Operator,
        preds: List[JoinPredicate],
        root_lcl: int,
        source,
    ) -> Operator:
        # the baselines join flat; LET nesting is recovered by an
        # explicit grouping step over the join results
        if source.mspec_join != "*":
            return super()._join_source(top, right, preds, root_lcl, source)
        joined = JoinOp(top, right, preds, root_lcl=root_lcl, right_mspec="?")
        return NestJoinResultsOp(self._group_key_lcl(), root_lcl, joined)

    def _apply_order(self, top: Operator) -> Operator:
        order = self.flwor.order
        key_lcls: List[int] = []
        for path in order.paths:
            owner, binding = self.lookup(var_of(path))
            if owner is not self:
                raise TranslationError("ORDER BY over outer variables")
            if binding.apt_node is None:
                key_lcls.append(self.resolve_constructed_path(binding, path))
            elif not path.steps:
                key_lcls.append(binding.label)
            else:
                builder, leaf_lcl = self._branch(binding, path.steps)
                top = builder(top)
                key_lcls.append(leaf_lcl)
        return SortOp(key_lcls, order.descending, top)

    def _value_ref(self, expr, spec, text: bool) -> CClassRef:
        binding = None
        if isinstance(expr, PathExpr) and expr.steps:
            binding = self._stored(expr)
        if binding is None:
            return super()._value_ref(expr, spec, text)
        builder, leaf_lcl = self._branch(binding, expr.steps)
        spec["selects"].append(builder)
        spec["keep"].append(binding.label)
        return CClassRef(leaf_lcl, text_only=text)

    def _count_pattern(self, expr, spec) -> None:
        # no index counts: an aggregate counts its return path's branch
        return None

    def _counts_only(self, var: str) -> bool:
        # no counting joins: a LET's items are built and counted
        return False


class BaselineTranslator(TLCTranslator):
    """Translates queries in the TAX or GTP style."""

    block_class = BaselineBlock

    def __init__(self, style: str) -> None:
        if style not in ("tax", "gtp"):
            raise ValueError(f"unknown baseline style {style!r}")
        super().__init__()
        self.style = style

    def translate_text(self, text: str) -> TranslationResult:
        return self.translate(parse_query(text))
