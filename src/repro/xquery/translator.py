"""XQuery → TLC plan translation (the Algorithm TLC of Figure 6).

One :class:`_Block` per FLWOR block.  Processing follows the paper's
per-reduction cases:

* **FOR/LET over a document path** creates (or extends) a leaf Select's
  annotated pattern tree — FOR edges use ``-``, LET edges use ``*``;
  multiple document sources combine through a cartesian Join whose
  predicates are filled in later (boxes 1, 2, 5 of Figure 7).
* **Simple predicates** add content comparisons to the pattern leaf.
* **Aggregate predicates** graft a ``*`` path and insert
  Aggregate + Filter(ALO) on that source's branch (boxes 3, 4).
* **Value joins** graft ``-`` paths on both sides and register the
  predicate at the join covering both sources; a side that references an
  *outer* block's variable becomes a deferred predicate applied at the
  outer↔inner join (Figure 8's Join 9).
* **Quantifiers** graft a ``*`` path and emit a Filter in EVERY/ALO mode
  (box 10 of Figure 8); predicates over constructed content are placed
  after the join.
* **ORDER BY / RETURN** emit Project (keep bound variables + join root +
  classes the return needs), NodeIDDE on FOR variables, one extension
  Select per bound class per run of adjacent return paths (one ``*`` edge
  per path, in argument order), Aggregates for aggregate returns (a
  one-step ``count`` over a FOR variable counts from the index, with no
  extension Select below it), a Sort, and the final Construct (boxes
  6–10 of Figure 7).
* **Nested FLWORs** translate recursively and join to the outer plan with
  a ``-`` (FOR) or ``*`` (LET / RETURN) edge; inner projections and the
  inner construct are widened so deferred join classes and
  outer-referenced classes survive (Figure 8's Project 5 keeping (9),
  Project 11 keeping (12)).

Deviations from the figure, documented in DESIGN.md: OR is implemented as
optional (``*``/``?``) grafts plus one disjunctive filter rather than a
plan union, and the inner duplicate-elimination of a nested query also
keys on deferred join classes (keying only on the FOR variable, as drawn
in Figure 8, would drop join partners).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..core.aggregate import AggregateOp
from ..core.base import ClassPredicate, JoinPredicate, Operator
from ..core.construct import CClassRef, CElement, CText
from ..core.dedup import DedupOp
from ..core.filter import (
    FilterOp,
    TreeFilterOp,
    cross_class_predicate,
    disjunctive_predicate,
)
from ..core.join import JoinOp
from ..core.project import ProjectOp
from ..core.select import SelectOp
from ..core.sort_op import SortOp
from ..errors import TranslationError, XQuerySyntaxError
from ..patterns.apt import APT, APTNode
from ..patterns.logical_class import LCLAllocator
from ..patterns.predicates import NodeTest
from .ast_nodes import (
    AggrExpr,
    AggrPredicate,
    BoolExpr,
    ElementConstructor,
    FLWOR,
    ForClause,
    LetClause,
    PathExpr,
    Quantifier,
    SimplePredicate,
    Step,
    TextLiteral,
    ValueJoin,
)
from .parser import MAX_NESTING, parse_query
from .paths import FLIPPED_OP, graft_steps


@dataclass
class TranslationResult:
    """A translated query: the plan plus bookkeeping for tools and tests."""

    plan: Operator
    var_lcls: Dict[str, int]
    class_tags: Dict[int, str]

    def explain(self) -> str:
        """Readable plan rendering."""
        return self.plan.describe()

    def lint(self):
        """Run the static LC-flow analyzer over this plan.

        Returns a :class:`repro.analysis.PlanAnalysis`.
        """
        from ..analysis import analyze  # local import: avoids a cycle

        return analyze(self.plan)


# ----------------------------------------------------------------------
# sources
# ----------------------------------------------------------------------
@dataclass
class _DocSource:
    """A leaf Select over one stored document."""

    apt: APT
    mspec_join: str = "-"  # how this source joins into the block
    branch_builders: List = field(default_factory=list)

    def build(self) -> Operator:
        top: Operator = SelectOp(self.apt)
        for builder in self.branch_builders:
            top = builder(top)
        return top


@dataclass
class _FlworSource:
    """A nested FLWOR acting as a source (LET/FOR over a sub-query)."""

    block: "_Block"
    mspec_join: str  # "-" for FOR, "*" for LET / RETURN
    branch_builders: List = field(default_factory=list)

    def build(self) -> Operator:
        top = self.block.finish()
        for builder in self.branch_builders:
            top = builder(top)
        return top


@dataclass
class _Binding:
    """Where a variable points: a pattern node or a resolved class."""

    source_index: int
    apt_node: Optional[APTNode] = None  # for document sources
    lcl: Optional[int] = None  # for flwor-derived bindings

    @property
    def label(self) -> int:
        return self.apt_node.lcl if self.apt_node is not None else self.lcl


class _Block:
    """Translation state for one FLWOR block."""

    def __init__(
        self,
        translator: "TLCTranslator",
        flwor: FLWOR,
        parent: Optional["_Block"] = None,
    ) -> None:
        self.translator = translator
        self.flwor = flwor
        self.parent = parent
        # a fork shares the translator's counter: labels allocated while
        # building this block can never collide with a sibling block's
        self.lcls = translator.lcls.fork()
        self.class_tags = translator.class_tags
        self.sources: List[Union[_DocSource, _FlworSource]] = []
        self.bindings: Dict[str, _Binding] = {}
        self.join_preds: List[Tuple[int, int, str, int, int]] = []
        # deferred predicates this block imposes on its parent's join:
        # (outer_lcl, op, inner_lcl)
        self.deferred: List[Tuple[int, str, int]] = []
        self.post_join: List = []  # operator builders applied after the join
        self.extra_keep: List[int] = []  # classes Project must retain
        self.return_joins: List[_FlworSource] = []
        self.construct_spec = None  # set by finish()
        self._finished: Optional[Operator] = None

    def graft(
        self, base: APTNode, steps: Sequence[Step], mspec: str
    ) -> APTNode:
        """Attach ``steps`` below ``base`` with matching spec ``mspec``."""
        return graft_steps(base, steps, mspec, self.lcls, self.class_tags)

    # ------------------------------------------------------------------
    # variable lookup across block nesting
    # ------------------------------------------------------------------
    def lookup(self, var: str) -> Tuple["_Block", _Binding]:
        block: Optional[_Block] = self
        while block is not None:
            if var in block.bindings:
                return block, block.bindings[var]
            block = block.parent
        raise TranslationError(f"unbound variable ${var}")

    # ------------------------------------------------------------------
    # FOR / LET
    # ------------------------------------------------------------------
    def process_clauses(self) -> None:
        for clause in self.flwor.clauses:
            mspec = "-" if isinstance(clause, ForClause) else "*"
            if isinstance(clause.source, FLWOR):
                self._bind_nested(clause.var, clause.source, mspec)
            else:
                self._bind_path(clause.var, clause.source, mspec)

    def _bind_path(self, var: str, path: PathExpr, mspec: str) -> None:
        if path.doc is not None:
            apt_root = APTNode(NodeTest("doc_root"), self.lcls.allocate())
            self.class_tags[apt_root.lcl] = "doc_root"
            leaf = self.graft(apt_root, path.steps, mspec)
            self.sources.append(_DocSource(APT(apt_root, path.doc)))
            self.bindings[var] = _Binding(
                len(self.sources) - 1, apt_node=leaf
            )
            return
        owner_block, binding = self.lookup(var_of(path))
        if owner_block is not self:
            raise TranslationError(
                f"FOR/LET over an outer-block variable ${path.var} is not "
                "supported by the Figure 5 fragment"
            )
        if binding.apt_node is not None:
            leaf = self.graft(binding.apt_node, path.steps, mspec)
            self.bindings[var] = _Binding(
                binding.source_index, apt_node=leaf
            )
            return
        # variable over constructed content: resolve statically or extend
        lcl = self.resolve_constructed_path(binding, path)
        self.bindings[var] = _Binding(binding.source_index, lcl=lcl)

    def _bind_nested(self, var: str, inner: FLWOR, mspec: str) -> None:
        inner_block = self.translator.translate_block(inner, parent=self)
        self.sources.append(_FlworSource(inner_block, mspec))
        root_lcl = inner_block.output_root_lcl()
        self.bindings[var] = _Binding(len(self.sources) - 1, lcl=root_lcl)

    # ------------------------------------------------------------------
    # WHERE
    # ------------------------------------------------------------------
    def process_where(self) -> None:
        if self.flwor.where is not None:
            self._where_expr(self.flwor.where)

    def _where_expr(self, expr) -> None:
        if isinstance(expr, BoolExpr):
            if expr.op == "and":
                self._where_expr(expr.left)
                self._where_expr(expr.right)
            else:
                self._where_or(expr)
        elif isinstance(expr, SimplePredicate):
            self._simple_predicate(expr)
        elif isinstance(expr, AggrPredicate):
            self._aggr_predicate(expr)
        elif isinstance(expr, ValueJoin):
            self._value_join(expr)
        elif isinstance(expr, Quantifier):
            self._quantifier(expr)
        else:  # pragma: no cover - parser guarantees the closed set
            raise TranslationError(f"unsupported WHERE expression: {expr!r}")

    # -- simple predicate ----------------------------------------------
    def _simple_predicate(self, pred: SimplePredicate) -> None:
        owner, binding = self.lookup(var_of(pred.path))
        if owner is not self:
            raise TranslationError(
                "correlated simple predicates must use a value join"
            )
        if binding.apt_node is not None:
            leaf = self.graft(binding.apt_node, pred.path.steps, "-")
            leaf.test = leaf.test.with_comparison(pred.op, pred.value)
            return
        lcl = self.resolve_constructed_path(binding, pred.path)
        predicate = ClassPredicate(lcl, pred.op, pred.value)
        self.post_join.append(
            lambda top, p=predicate: FilterOp(p, "ALO", top)
        )

    # -- aggregate predicate ---------------------------------------------
    def _aggr_predicate(self, pred: AggrPredicate) -> None:
        owner, binding = self.lookup(var_of(pred.path))
        if owner is not self:
            raise TranslationError(
                "correlated aggregate predicates are not in the fragment"
            )
        new_lcl = self.lcls.allocate()
        self.class_tags[new_lcl] = pred.fname
        predicate = ClassPredicate(new_lcl, pred.op, pred.value)
        if binding.apt_node is not None:
            leaf = self.graft(binding.apt_node, pred.path.steps, "*")
            source = self.sources[binding.source_index]
            source.branch_builders.append(
                lambda top, f=pred.fname, l=leaf.lcl, n=new_lcl: AggregateOp(
                    f, l, n, top
                )
            )
            source.branch_builders.append(
                lambda top, p=predicate: FilterOp(p, "ALO", top)
            )
            return
        lcl = self.resolve_constructed_path(binding, pred.path)
        self.post_join.append(
            lambda top, f=pred.fname, l=lcl, n=new_lcl: AggregateOp(
                f, l, n, top
            )
        )
        self.post_join.append(
            lambda top, p=predicate: FilterOp(p, "ALO", top)
        )

    # -- value join -------------------------------------------------------
    def _resolve_join_side(
        self, path: PathExpr
    ) -> Tuple[Optional["_Block"], int, int]:
        """Graft one side of a value join; returns (owner, source_idx, lcl).

        Sides of this block graft with ``-`` (Figure 6's ValueJoin case);
        a *correlated* side belonging to an outer block grafts with ``?``
        so that outer trees lacking the path survive — their LET binding
        is simply empty (count 0), not absent.
        """
        owner, binding = self.lookup(var_of(path))
        if binding.apt_node is not None:
            mspec = "-" if owner is self else "?"
            leaf = owner.graft(binding.apt_node, path.steps, mspec)
            return owner, binding.source_index, leaf.lcl
        lcl = owner_block_resolve(owner, binding, path)
        return owner, binding.source_index, lcl

    def _value_join(self, expr: ValueJoin) -> None:
        left_owner, left_src, left_lcl = self._resolve_join_side(expr.left)
        right_owner, right_src, right_lcl = self._resolve_join_side(
            expr.right
        )
        if left_owner is not self and right_owner is not self:
            raise TranslationError(
                "a value join must involve this block's variables"
            )
        if left_owner is not self:
            # correlated: defer to the outer join (outer lcl first)
            self.deferred.append((left_lcl, expr.op, right_lcl))
            return
        if right_owner is not self:
            self.deferred.append(
                (right_lcl, FLIPPED_OP[expr.op], left_lcl)
            )
            return
        if left_src == right_src:
            predicate = cross_class_predicate(left_lcl, expr.op, right_lcl)
            label = f"({left_lcl}) {expr.op} ({right_lcl})"
            refs = [left_lcl, right_lcl]
            self.post_join.append(
                lambda top, p=predicate, lab=label, r=refs: TreeFilterOp(
                    p, lab, top, lcls=r
                )
            )
            return
        self.join_preds.append(
            (left_src, left_lcl, expr.op, right_lcl, right_src)
        )

    # -- quantifier --------------------------------------------------------
    def _quantifier(self, quant: Quantifier) -> None:
        owner, binding = self.lookup(var_of(quant.path))
        mode = "E" if quant.kind == "every" else "ALO"
        if owner is not self:
            raise TranslationError(
                "quantifier over an outer variable is not in the fragment"
            )
        if binding.apt_node is not None:
            leaf = self.graft(binding.apt_node, quant.path.steps, "*")
            target = leaf
            if quant.predicate.path.steps:
                target = self.graft(leaf, quant.predicate.path.steps, "-")
            predicate = ClassPredicate(
                target.lcl, quant.predicate.op, quant.predicate.value
            )
            source = self.sources[binding.source_index]
            source.branch_builders.append(
                lambda top, p=predicate, m=mode: FilterOp(p, m, top)
            )
            self.bindings[quant.var] = _Binding(
                binding.source_index, apt_node=leaf
            )
            return
        lcl = self.resolve_constructed_path(binding, quant.path)
        if quant.predicate.path.steps:
            raise TranslationError(
                "quantifier predicates over constructed content must test "
                "the quantified variable directly"
            )
        predicate = ClassPredicate(
            lcl, quant.predicate.op, quant.predicate.value
        )
        self.post_join.append(
            lambda top, p=predicate, m=mode: FilterOp(p, m, top)
        )

    # -- OR (documented deviation) -----------------------------------------
    def _where_or(self, expr: BoolExpr) -> None:
        disjuncts: List = []

        def flatten(e) -> None:
            if isinstance(e, BoolExpr) and e.op == "or":
                flatten(e.left)
                flatten(e.right)
            else:
                disjuncts.append(e)

        flatten(expr)
        class_preds: List[ClassPredicate] = []
        for disjunct in disjuncts:
            if isinstance(disjunct, SimplePredicate):
                owner, binding = self.lookup(var_of(disjunct.path))
                if owner is not self:
                    raise TranslationError("correlated OR is not supported")
                if binding.apt_node is not None:
                    leaf = self.graft(
                        binding.apt_node, disjunct.path.steps, "*"
                    )
                    lcl = leaf.lcl
                else:
                    lcl = self.resolve_constructed_path(
                        binding, disjunct.path
                    )
                class_preds.append(
                    ClassPredicate(lcl, disjunct.op, disjunct.value)
                )
            elif isinstance(disjunct, AggrPredicate):
                owner, binding = self.lookup(var_of(disjunct.path))
                if owner is not self or binding.apt_node is None:
                    raise TranslationError(
                        "OR over constructed/outer content is not supported"
                    )
                leaf = self.graft(
                    binding.apt_node, disjunct.path.steps, "*"
                )
                new_lcl = self.lcls.allocate()
                self.class_tags[new_lcl] = disjunct.fname
                source = self.sources[binding.source_index]
                source.branch_builders.append(
                    lambda top, f=disjunct.fname, l=leaf.lcl, n=new_lcl: (
                        AggregateOp(f, l, n, top)
                    )
                )
                class_preds.append(
                    ClassPredicate(new_lcl, disjunct.op, disjunct.value)
                )
            else:
                raise TranslationError(
                    "OR supports simple and aggregate predicates only"
                )
        predicate = disjunctive_predicate(class_preds)
        label = " or ".join(p.describe() for p in class_preds)
        refs = [p.lcl for p in class_preds]
        self.post_join.append(
            lambda top, p=predicate, lab=label, r=refs: TreeFilterOp(
                p, lab, top, lcls=r
            )
        )

    # ------------------------------------------------------------------
    # resolution over constructed content
    # ------------------------------------------------------------------
    def resolve_constructed_path(
        self, binding: _Binding, path: PathExpr
    ) -> int:
        """Class label a path over flwor-derived content resolves to.

        Single steps resolve statically through the inner construct's
        children (tag -> class); deeper or unresolvable paths fall back to
        an in-memory extension Select anchored at the resolved prefix.
        """
        source = self.sources[binding.source_index]
        if not path.steps:
            return binding.label
        spec = None
        if isinstance(source, _FlworSource):
            spec = source.block.construct_spec
        current_lcl = binding.label
        steps = list(path.steps)
        while steps and spec is not None and isinstance(spec, CElement):
            step = steps[0]
            matched = None
            for child in spec.children:
                if isinstance(child, CElement) and child.tag == step.name:
                    matched = (child.lcl, child)
                    break
                if isinstance(child, CClassRef) and (
                    self.class_tags.get(child.lcl) == step.name
                ):
                    matched = (child.lcl, None)
                    break
            if matched is None:
                break
            current_lcl, spec = matched
            steps.pop(0)
        if not steps:
            self.extra_keep.append(current_lcl)
            return current_lcl
        # dynamic fallback: in-memory extension below the resolved class
        ext_root = APTNode(NodeTest(None), 0, lc_ref=current_lcl)
        leaf = self.graft(ext_root, steps, "*")
        self.extra_keep.append(current_lcl)
        self.post_join.append(
            lambda top, apt=APT(ext_root): SelectOp(apt, top)
        )
        return leaf.lcl

    def output_root_lcl(self) -> int:
        """Class of this block's output tree roots (after finish())."""
        spec = self.construct_spec
        if isinstance(spec, CElement):
            return spec.lcl
        if isinstance(spec, CClassRef):
            return spec.lcl
        raise TranslationError("block has no construct output")

    # ------------------------------------------------------------------
    # RETURN and assembly
    # ------------------------------------------------------------------
    def finish(self) -> Operator:
        """Assemble the full plan for this block (idempotent)."""
        if self._finished is not None:
            return self._finished
        ret_spec = self._parse_return(self.flwor.ret)
        self.construct_spec = ret_spec["ctree"]
        # deferred join classes must survive this block's project and ride
        # inside its construct output (Figure 8: (9) is kept by Project 5
        # and spliced by Construct 8 so it can participate in Join 9)
        for _, _, inner_lcl in self.deferred:
            ret_spec["keep"].append(inner_lcl)
            ctree = ret_spec["ctree"]
            if isinstance(ctree, CElement):
                already = any(
                    isinstance(c, CClassRef) and c.lcl == inner_lcl
                    for c in ctree.children
                )
                if not already:
                    ctree.children.append(CClassRef(inner_lcl, hidden=True))
            elif not (
                isinstance(ctree, CClassRef) and ctree.lcl == inner_lcl
            ):
                raise TranslationError(
                    "a correlated nested query must RETURN an element "
                    "constructor (the join class needs a place to live)"
                )

        top = self._assemble_join()
        for builder in self.post_join:
            top = builder(top)

        keep = self._project_keep(ret_spec)
        top = ProjectOp(sorted(set(keep)), top)
        dedup_lcls, dedup_bases = self._dedup_lcls()
        if dedup_lcls:
            top = DedupOp(dedup_lcls, "id", top, bases=dedup_bases)

        if self.flwor.order is not None:
            top = self._apply_order(top)

        for source in self.return_joins:
            top = self._join_with(top, source)
        for builder in ret_spec["selects"]:
            top = builder(top)
        from ..core.construct import ConstructOp

        top = ConstructOp(ret_spec["ctree"], top)
        self._finished = top
        return top

    def _assemble_join(self) -> Operator:
        if not self.sources:
            raise TranslationError("FLWOR has no sources")
        tops = [source.build() for source in self.sources]
        first = self.sources[0]
        if isinstance(first, _FlworSource) and first.block.deferred:
            raise TranslationError(
                "a correlated nested query cannot be the first source"
            )
        current = tops[0]
        covered = {0}
        pending = list(self.join_preds)
        for index in range(1, len(self.sources)):
            source = self.sources[index]
            preds: List[JoinPredicate] = []
            rest = []
            for left_src, left_lcl, op, right_lcl, right_src in pending:
                if right_src == index and left_src in covered:
                    preds.append(JoinPredicate(left_lcl, op, right_lcl))
                elif left_src == index and right_src in covered:
                    preds.append(
                        JoinPredicate(right_lcl, FLIPPED_OP[op], left_lcl)
                    )
                else:
                    rest.append(
                        (left_src, left_lcl, op, right_lcl, right_src)
                    )
            pending = rest
            if isinstance(source, _FlworSource):
                for outer_lcl, op, inner_lcl in source.block.deferred:
                    preds.append(JoinPredicate(outer_lcl, op, inner_lcl))
            root_lcl = self.lcls.allocate()
            self.class_tags[root_lcl] = "join_root"
            self._join_root_lcl = root_lcl
            current = self._join_source(
                current, tops[index], preds, root_lcl, source
            )
            covered.add(index)
        if pending:
            raise TranslationError("unplaceable join predicate")
        return current

    def _join_with(self, top: Operator, source: _FlworSource) -> Operator:
        preds = [
            JoinPredicate(outer_lcl, op, inner_lcl)
            for outer_lcl, op, inner_lcl in source.block.deferred
        ]
        root_lcl = self.lcls.allocate()
        self.class_tags[root_lcl] = "join_root"
        return self._join_source(top, source.build(), preds, root_lcl, source)

    def _join_source(
        self,
        top: Operator,
        right: Operator,
        preds: List[JoinPredicate],
        root_lcl: int,
        source: Union[_DocSource, _FlworSource],
    ) -> Operator:
        """Join one source's plan onto the block: one edge of its mspec."""
        return JoinOp(
            top, right, preds, root_lcl=root_lcl, right_mspec=source.mspec_join
        )

    def _project_keep(self, ret_spec) -> List[int]:
        keep: List[int] = []
        if len(self.sources) > 1:
            keep.append(self._join_root_lcl)
        for var in (
            self.flwor.for_vars() + self.flwor.let_vars()
        ):
            binding = self.bindings.get(var)
            if binding is not None:
                keep.append(binding.label)
        keep.extend(self.extra_keep)
        keep.extend(ret_spec["keep"])
        # classes the parent join will need from this block's output are
        # part of the construct, not the project (construct replaces trees)
        return keep

    def _dedup_lcls(self) -> Tuple[List[int], Dict[int, str]]:
        lcls: List[int] = []
        for var in self.flwor.for_vars():
            binding = self.bindings.get(var)
            if binding is not None:
                lcls.append(binding.label)
        # deviation: also key on deferred join classes so that distinct
        # join partners survive the duplicate elimination; they compare by
        # *content* (the join is by value — two personrefs naming the same
        # person are one join partner)
        bases: Dict[int, str] = {}
        for _, _, inner_lcl in self.deferred:
            lcls.append(inner_lcl)
            bases[inner_lcl] = "content"
        return sorted(set(lcls)), bases

    def _apply_order(self, top: Operator) -> Operator:
        order = self.flwor.order
        key_lcls: List[int] = []
        for path in order.paths:
            owner, binding = self.lookup(var_of(path))
            if owner is not self:
                raise TranslationError("ORDER BY over outer variables")
            if binding.apt_node is not None:
                if path.steps:
                    ext_root = APTNode(
                        NodeTest(None), 0, lc_ref=binding.label
                    )
                    leaf = self.graft(ext_root, path.steps, "*")
                    top = SelectOp(APT(ext_root), top)
                    key_lcls.append(leaf.lcl)
                else:
                    key_lcls.append(binding.label)
            else:
                key_lcls.append(
                    self.resolve_constructed_path(binding, path)
                )
        return SortOp(key_lcls, order.descending, top)

    # ------------------------------------------------------------------
    # RETURN parsing
    # ------------------------------------------------------------------
    def _parse_return(self, ret) -> dict:
        """Build the construct tree + the extension selects it needs.

        ``run`` is the extension root still open for more paths: the
        last builder in ``selects`` extends that root's class, so the
        next return path over the same class joins it as one more edge.
        """
        spec = {"selects": [], "keep": [], "ctree": None, "run": None}
        if ret is None:
            raise TranslationError("FLWOR lacks a RETURN clause")
        spec["ctree"] = self._return_expr(ret, spec)
        return spec

    def _return_expr(self, expr, spec):
        if isinstance(expr, ElementConstructor):
            element = CElement(expr.tag, self.lcls.allocate())
            self.class_tags[element.lcl] = expr.tag
            for attr_name, attr_value in expr.attrs:
                if isinstance(attr_value, str):
                    element.attrs.append((attr_name, attr_value))
                else:
                    ref = self._value_ref(attr_value, spec, text=True)
                    element.attrs.append((attr_name, ref))
            for child in expr.children:
                element.children.append(self._return_expr(child, spec))
            return element
        if isinstance(expr, TextLiteral):
            return CText(expr.text)
        if isinstance(expr, PathExpr):
            return self._value_ref(expr, spec, text=expr.text_fn)
        if isinstance(expr, AggrExpr):
            return self._value_ref(expr, spec, text=True)
        if isinstance(expr, FLWOR):
            inner_block = self.translator.translate_block(expr, parent=self)
            source = _FlworSource(inner_block, "*")
            self.return_joins.append(source)
            for outer_lcl, _, _ in inner_block.deferred:
                spec["keep"].append(outer_lcl)
            return CClassRef(inner_block.output_root_lcl())
        raise TranslationError(f"unsupported RETURN expression: {expr!r}")

    def _value_ref(self, expr, spec, text: bool) -> CClassRef:
        """Class reference for one path/aggregate value in the return."""
        if isinstance(expr, AggrExpr):
            pattern = self._count_pattern(expr, spec)
            if pattern is None:
                counted = self._value_ref(expr.path, spec, text=False).lcl
            else:
                counted = pattern.root.edges[0].child.lcl
            new_lcl = self.lcls.allocate()
            self.class_tags[new_lcl] = expr.fname
            spec["selects"].append(
                lambda top, f=expr.fname, l=counted, n=new_lcl, p=pattern: (
                    AggregateOp(f, l, n, top, pattern=p)
                )
            )
            spec["run"] = None  # a later path extends the Aggregate's output
            return CClassRef(new_lcl, text_only=True)
        owner, binding = self.lookup(var_of(expr))
        if owner is not self:
            raise TranslationError(
                "RETURN may only reference this block's variables"
            )
        if not expr.steps:
            spec["keep"].append(binding.label)
            return CClassRef(binding.label, text_only=text)
        if binding.apt_node is not None:
            # each path is its own chain of pattern nodes (no prefix
            # sharing with its neighbours), grafted on a scratch root
            # and then moved under the run's extension root
            chain = APTNode(NodeTest(None), 0, lc_ref=binding.label)
            leaf = self.graft(chain, expr.steps, "*")
            ext_root = spec["run"]
            if ext_root is None or ext_root.lc_ref != binding.label:
                ext_root = spec["run"] = chain
                spec["selects"].append(
                    lambda top, apt=APT(ext_root): SelectOp(apt, top)
                )
            else:
                ext_root.edges.extend(chain.edges)
            spec["keep"].append(binding.label)
            return CClassRef(leaf.lcl, text_only=text)
        lcl = self.resolve_constructed_path(binding, expr)
        spec["keep"].append(lcl)
        return CClassRef(lcl, text_only=text)

    def _count_pattern(self, expr: AggrExpr, spec) -> Optional[APT]:
        """The one-edge ``*`` pattern an index count of ``expr`` probes.

        Only ``count`` over one step from a FOR variable of this block
        bound to stored nodes qualifies (None otherwise): an interval
        cannot check a deeper path's middle steps, and a LET binding
        holds a cluster of anchors per tree.
        """
        path = expr.path
        if (
            expr.fname != "count"
            or len(path.steps) != 1
            or path.var not in self.flwor.for_vars()
        ):
            return None
        binding = self.bindings.get(path.var)
        if binding is None or binding.apt_node is None:
            return None
        root = APTNode(NodeTest(None), 0, lc_ref=binding.label)
        self.graft(root, path.steps, "*")
        spec["keep"].append(binding.label)
        return APT(root)


def owner_block_resolve(
    owner: _Block, binding: _Binding, path: PathExpr
) -> int:
    """Resolve a constructed-content path in the owning block's scope."""
    return owner.resolve_constructed_path(binding, path)


def var_of(path: PathExpr) -> str:
    """The root variable of a variable-rooted path."""
    if path.var is None:
        raise TranslationError(
            f"expected a variable-rooted path, got {path.describe()}"
        )
    return path.var


class TLCTranslator:
    """Translates a FLWOR AST (or query text) into a TLC plan."""

    #: the per-FLWOR translation state a subclass may specialise
    block_class = _Block

    def __init__(self) -> None:
        self.lcls = LCLAllocator()
        self.class_tags: Dict[int, str] = {}

    def translate_block(
        self, flwor: FLWOR, parent: Optional[_Block] = None
    ) -> _Block:
        """Run the SingleBlock procedure for one FLWOR."""
        block = self.block_class(self, flwor, parent)
        block.process_clauses()
        block.process_where()
        block.finish()
        return block

    def translate(self, flwor: FLWOR) -> TranslationResult:
        """Translate a complete query AST."""
        block = self.translate_block(flwor)
        var_lcls = {
            var: binding.label for var, binding in block.bindings.items()
        }
        plan = block.finish()
        _check_pattern_depth(plan)
        return TranslationResult(plan, var_lcls, self.class_tags)


def _check_pattern_depth(plan: Operator) -> None:
    """Refuse a pattern more than :data:`MAX_NESTING` steps deep.

    The parser bounds each path to that many steps, but paths chained
    through FOR/LET variables graft onto one pattern, and the matcher
    and the process pool's pickling both recurse once per level.
    """
    for op in plan.walk():
        apt = getattr(op, "apt", None)
        if apt is None:
            continue
        stack = [(apt.root, 0)]
        while stack:
            node, depth = stack.pop()
            if depth > MAX_NESTING:
                raise XQuerySyntaxError(
                    f"pattern deeper than {MAX_NESTING} steps "
                    "(paths chained through variables graft onto one "
                    "pattern)"
                )
            stack.extend((edge.child, depth + 1) for edge in node.edges)


def translate_query(text: str) -> TranslationResult:
    """Parse and translate XQuery text in one call."""
    return TLCTranslator().translate(parse_query(text))
