"""One bottom-up analysis pass over an operator DAG — without executing it.

For every operator the visitor computes the :class:`LCEnv` of its output
edge from the environments of its inputs, using each operator's
``lc_produced()/lc_consumed()`` protocol plus operator-specific transfer
functions that model how labels actually flow (Project drops, Construct
splices, Shadow hides, Join merges), and runs the rules of
:mod:`.rules` against it.  Given database statistics, the same visit
also computes the operator's cardinality interval and its LC3xx check
(:mod:`.cardinality`).  A shared sub-plan (a hand-built DAG) is visited
once, exactly like the evaluator's memoisation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..core.aggregate import AggregateOp
from ..core.base import Operator
from ..core.construct import CClassRef, CElement, ConstructOp
from ..core.flatten import FlattenOp
from ..core.join import JoinOp
from ..core.project import ProjectOp
from ..core.select import SelectOp
from ..core.shadow import IlluminateOp, ShadowOp
from ..core.union import UnionOp
from ..patterns.apt import APTNode
from ..storage.stats import CardinalityStats
from . import cardinality
from .cardinality import Interval
from .diagnostics import Diagnostic, Severity, describe_op
from .environment import ClassInfo, LCEnv, merge_join, merge_union

#: A duplicate-producer finding raised during a transfer:
#: (operator, surviving info, conflicting info).
ProducerConflict = Tuple[Operator, ClassInfo, ClassInfo]


@dataclass
class PlanAnalysis:
    """The result of one analyzer run over a plan.

    ``bounds`` maps operator ids to cardinality :class:`Interval` bounds
    when the run had database statistics, and is empty otherwise.
    """

    plan: Operator
    env_out: Dict[int, LCEnv] = field(default_factory=dict)
    bounds: Dict[int, Interval] = field(default_factory=dict)
    order: List[Operator] = field(default_factory=list)  # postorder, unique
    diagnostics: List[Diagnostic] = field(default_factory=list)

    @property
    def errors(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.ERROR]

    @property
    def warnings(self) -> List[Diagnostic]:
        return [
            d for d in self.diagnostics if d.severity is Severity.WARNING
        ]

    @property
    def ok(self) -> bool:
        """True when no error-severity diagnostic was reported."""
        return not self.errors

    def render(self) -> str:
        """The lint report: one line per diagnostic plus a summary."""
        lines = [d.render() for d in self.diagnostics]
        errors = len(self.errors)
        warnings = len(self.warnings)
        if not lines:
            lines.append("plan is clean: no diagnostics")
        else:
            lines.append(
                f"{errors} error{'s' if errors != 1 else ''}, "
                f"{warnings} warning{'s' if warnings != 1 else ''}"
            )
        return "\n".join(lines)

    def annotated_plan(self) -> str:
        """The plan rendered like ``Operator.describe`` with LC-flow notes.

        Each operator line is suffixed with the labels it produces and
        consumes, the live environment on its output edge, and — when
        cardinality bounds were computed — its ``card [lo, hi]`` output
        bound; any diagnostics anchored to it are listed beneath it.
        """
        by_op: Dict[int, List[Diagnostic]] = {}
        for diag in self.diagnostics:
            if diag.op_id is not None:
                by_op.setdefault(diag.op_id, []).append(diag)

        lines: List[str] = []
        seen: Set[int] = set()

        def visit(op: Operator, depth: int) -> None:
            pad = "  " * depth
            params = op.params()
            head = f"{pad}{op.name} {params}" if params else f"{pad}{op.name}"
            notes = []
            produced = sorted(op.lc_produced())
            consumed = sorted(op.lc_consumed())
            if produced:
                notes.append(f"+{produced}")
            if consumed:
                notes.append(f"reads {consumed}")
            env = self.env_out.get(id(op))
            if env is not None:
                notes.append(f"live {sorted(env.labels())}")
                if env.shadowed:
                    notes.append(f"shadowed {sorted(env.shadowed)}")
            interval = self.bounds.get(id(op))
            if interval is not None:
                notes.append(f"card {interval.render()}")
            if notes:
                head += "   # " + " ".join(notes)
            if id(op) in seen:
                lines.append(head + "  (shared)")
                return
            seen.add(id(op))
            lines.append(head)
            for diag in by_op.get(id(op), ()):
                marker = "!!" if diag.is_error else "??"
                lines.append(
                    f"{pad}  {marker} {diag.code} {diag.severity}: "
                    f"{diag.message}"
                )
            for child in op.inputs:
                visit(child, depth + 1)

        visit(self.plan, 0)
        return "\n".join(lines)


def analyze(
    plan: Operator, stats: Optional[CardinalityStats] = None
) -> PlanAnalysis:
    """Run the LC-flow analysis over ``plan``.

    With ``stats``, every operator also gets its cardinality bound and
    the LC3xx warnings follow the LC1xx/LC2xx findings.
    """
    from . import rules  # local import: rules uses this module's helpers

    analysis = PlanAnalysis(plan)
    conflicts: List[ProducerConflict] = []
    bound_findings: List[Diagnostic] = []
    if stats is not None:
        threshold = max(stats.database_nodes, 1) * cardinality.BLOWUP_FACTOR

    def run(op: Operator) -> LCEnv:
        key = id(op)
        if key in analysis.env_out:
            return analysis.env_out[key]
        in_envs = [run(child) for child in op.inputs]
        rules.check_operator(op, in_envs, analysis.diagnostics)
        env = transfer(op, in_envs, conflicts)
        analysis.env_out[key] = env
        analysis.order.append(op)
        if stats is not None:
            ins = [analysis.bounds[id(child)] for child in op.inputs]
            out = cardinality.transfer(op, ins, stats)
            analysis.bounds[key] = out
            cardinality.check_bounds(op, ins, out, threshold, bound_findings)
        return env

    run(plan)
    rules.report_conflicts(conflicts, analysis.diagnostics)
    rules.check_plan(analysis, analysis.diagnostics)
    dedupe_diagnostics(analysis.diagnostics)
    analysis.diagnostics.extend(bound_findings)
    return analysis


def dedupe_diagnostics(diagnostics: List[Diagnostic]) -> None:
    """Drop repeated (code, operator, message) findings in place.

    Shared sub-plans are visited once, but rule passes that pair
    operators (duplicate-producer conflicts, plan-wide checks) can
    reach the same conclusion along several paths of a DAG; reporting
    it once is enough.
    """
    seen = set()
    unique = []
    for diag in diagnostics:
        key = (diag.code, diag.op_id, diag.message)
        if key not in seen:
            seen.add(key)
            unique.append(diag)
    diagnostics[:] = unique


# ----------------------------------------------------------------------
# transfer functions
# ----------------------------------------------------------------------
def transfer(
    op: Operator,
    in_envs: List[LCEnv],
    conflicts: List[ProducerConflict],
) -> LCEnv:
    """Compute the operator's output environment from its inputs."""
    if isinstance(op, SelectOp):
        return _select_env(op, in_envs, conflicts)
    if isinstance(op, AggregateOp):
        return _aggregate_env(op, in_envs, conflicts)
    if isinstance(op, JoinOp):
        return _join_env(op, in_envs, conflicts)
    if isinstance(op, ProjectOp):
        return _project_env(op, in_envs)
    if isinstance(op, ConstructOp):
        return _construct_env(op, in_envs, conflicts)
    if isinstance(op, ShadowOp):
        env = _merged(in_envs).copy()
        env.shadowed = env.shadowed | {op.child_lcl}
        return env
    if isinstance(op, IlluminateOp):
        env = _merged(in_envs).copy()
        env.shadowed = env.shadowed - {op.lcl}
        return env
    if isinstance(op, (FlattenOp, UnionOp)):
        return _merged(in_envs)
    # Filter, TreeFilter, Dedup, Sort and any op outside the core algebra:
    # pass the input environment through, adding whatever the protocol
    # declares as produced (conservative for unknown operators).
    env = _merged(in_envs)
    produced = op.lc_produced()
    if not produced:
        return env
    env = env.copy()
    for label in produced:
        _add(
            env,
            ClassInfo(label, id(op), describe_op(op), "unknown"),
            op,
            conflicts,
        )
    return env


def _merged(in_envs: List[LCEnv]) -> LCEnv:
    if not in_envs:
        return LCEnv()
    if len(in_envs) == 1:
        return in_envs[0]
    return merge_union(in_envs)


def _add(
    env: LCEnv,
    info: ClassInfo,
    op: Operator,
    conflicts: List[ProducerConflict],
) -> None:
    existing = env.classes.get(info.label)
    if existing is not None and existing.producer != info.producer:
        conflicts.append((op, existing, info))
    env.classes[info.label] = info


def _select_env(
    op: SelectOp, in_envs: List[LCEnv], conflicts: List[ProducerConflict]
) -> LCEnv:
    env = _merged(in_envs).copy()
    name = describe_op(op)

    def visit(
        node: APTNode, parent: Optional[int], parent_known: bool
    ) -> None:
        if node.lc_ref is not None:
            # reference node: produces nothing, anchors its children
            for edge in node.edges:
                visit(edge.child, node.lc_ref, True)
            return
        if node.lcl:
            _add(
                env,
                ClassInfo(
                    node.lcl,
                    id(op),
                    name,
                    "select",
                    tag=node.test.tag,
                    parent_label=parent,
                    parent_known=parent_known,
                ),
                op,
                conflicts,
            )
        anchor = node.lcl if node.lcl else parent
        known = bool(node.lcl) or parent_known
        for edge in node.edges:
            visit(edge.child, anchor, known)

    visit(op.apt.root, None, True)
    return env


def _aggregate_env(
    op: AggregateOp, in_envs: List[LCEnv], conflicts: List[ProducerConflict]
) -> LCEnv:
    env = _merged(in_envs).copy()
    if op.pattern is not None:
        # an index count never builds the counted class; its result goes
        # where that class's members would have hung: under the anchor
        parent_label: Optional[int] = op.pattern.root.lc_ref
        parent_known = True
    else:
        # the result node attaches as a sibling of the aggregated class,
        # so it nests under that class's own parent
        host = env.info(op.lcl)
        parent_label = host.parent_label if host else None
        parent_known = host.parent_known if host else False
    info = ClassInfo(
        op.new_lcl,
        id(op),
        describe_op(op),
        "aggregate",
        tag=op.fname,
        parent_label=parent_label,
        parent_known=parent_known,
    )
    if op.new_lcl:
        _add(env, info, op, conflicts)
    return env


def _join_env(
    op: JoinOp, in_envs: List[LCEnv], conflicts: List[ProducerConflict]
) -> LCEnv:
    left = in_envs[0] if in_envs else LCEnv()
    right = in_envs[1] if len(in_envs) > 1 else LCEnv()
    env, merge_conflicts = merge_join(left, right)
    for existing, incoming in merge_conflicts:
        conflicts.append((op, existing, incoming))
    if op.root_lcl:
        # the fresh join_root becomes the root of every output tree
        _add(
            env,
            ClassInfo(
                op.root_lcl,
                id(op),
                describe_op(op),
                "join_root",
                tag="join_root",
                parent_label=None,
                parent_known=True,
            ),
            op,
            conflicts,
        )
    return env


def _project_env(op: ProjectOp, in_envs: List[LCEnv]) -> LCEnv:
    env = _merged(in_envs)
    kept: Dict[int, ClassInfo] = {}
    for label in op.keep_lcls:
        info = env.info(label)
        if info is not None:
            kept[label] = info
    # shadowed nodes are invisible to Project and therefore *retained* in
    # the intermediate result, awaiting a later Illuminate
    for label in env.shadowed:
        info = env.info(label)
        if info is not None:
            kept.setdefault(label, info)
    # constructed content is atomic for projection: everything nested
    # under a retained constructed element survives with its markings
    for label, info in list(kept.items()):
        if info.origin == "construct":
            for descendant in env.descendants_of(label):
                kept.setdefault(descendant.label, descendant)
    return LCEnv(kept, env.shadowed & set(kept))


def _construct_env(
    op: ConstructOp, in_envs: List[LCEnv], conflicts: List[ProducerConflict]
) -> LCEnv:
    env_in = _merged(in_envs)
    out = LCEnv()
    shadowed = set()
    name = describe_op(op)

    def splice(ref: CClassRef, parent: Optional[int]) -> None:
        if ref.text_only:
            return  # text content carries no class markings
        info = env_in.info(ref.lcl)
        if info is None:
            return  # undefined ref: reported by the rules, nothing flows
        _add(out, info.reparented(parent), op, conflicts)
        labels = [ref.lcl]
        for descendant in env_in.descendants_of(ref.lcl):
            _add_default(out, descendant)
            labels.append(descendant.label)
        if ref.hidden or ref.lcl in env_in.shadowed:
            shadowed.update(labels)

    def visit(spec, parent: Optional[int]) -> None:
        if isinstance(spec, CClassRef):
            splice(spec, parent)
            return
        if not isinstance(spec, CElement):
            return  # CText
        if spec.lcl:
            _add(
                out,
                ClassInfo(
                    spec.lcl,
                    id(op),
                    name,
                    "construct",
                    tag=spec.tag,
                    parent_label=parent,
                    parent_known=True,
                ),
                op,
                conflicts,
            )
        # attribute class refs contribute text content only; no markings
        anchor = spec.lcl if spec.lcl else parent
        for child in spec.children:
            visit(child, anchor)

    visit(op.ctree, None)
    out.shadowed = frozenset(shadowed)
    return out


def _add_default(env: LCEnv, info: ClassInfo) -> None:
    env.classes.setdefault(info.label, info)
