"""The diagnostic rules of the LC-flow analyzer.

Each rule checks one invariant the paper's algebra relies on: closed
label references (every consumed class is produced upstream), unique
label allocation, shadow/illuminate pairing, the Flatten nesting
contract of Definition 5, join predicate sidedness, well-formed operator
parameters, and no dead classes.  ``check_operator`` runs per operator
during the bottom-up walk; ``check_plan`` runs once at the end.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, List

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .visitor import PlanAnalysis, ProducerConflict

from ..core.aggregate import FUNCTIONS, AggregateOp
from ..core.base import Operator
from ..core.construct import ConstructOp, construct_refs
from ..core.dedup import DedupOp
from ..core.filter import MODES, FilterOp, TreeFilterOp
from ..core.flatten import FlattenOp
from ..core.join import JoinOp
from ..core.select import SelectOp
from ..core.shadow import ShadowOp
from ..core.sort_op import SortOp
from ..core.union import UnionOp
from ..errors import PatternError
from ..model.value import _PY_OPS
from ..patterns.apt import AXES, MSPECS
from .diagnostics import (
    BAD_FLATTEN_SITE,
    DEAD_CLASS,
    DUPLICATE_LABEL,
    JOIN_SIDE_MISMATCH,
    MALFORMED_OPERATOR,
    SHADOWED_REF,
    UNDEFINED_REF,
    Diagnostic,
    describe_op,
)
from .environment import LCEnv
from .visitor import _merged

#: Operator types whose consumption reads member *values or counts*; a
#: shadow-hidden class silently shows them only its one visible member.
#: Join reads hidden members by design (deferred correlation classes),
#: and Project/Select/Construct/Illuminate are structure-aware.
_VALUE_READERS = (
    FilterOp,
    TreeFilterOp,
    AggregateOp,
    SortOp,
    DedupOp,
    FlattenOp,
    UnionOp,
)


def check_operator(
    op: Operator, in_envs: List[LCEnv], out: List[Diagnostic]
) -> None:
    """Run all per-operator rules against one operator."""
    where = describe_op(op)
    env = _merged(in_envs)

    def emit(code: str, message: str) -> None:
        out.append(Diagnostic(code, message, where, id(op)))

    _check_malformed(op, emit)

    # --- undefined references (LC101) / join sidedness (LC105) --------
    if isinstance(op, JoinOp):
        _check_join_sides(op, in_envs, emit)
    else:
        for label in sorted(op.lc_consumed()):
            if label == 0:
                emit(
                    MALFORMED_OPERATOR,
                    "label 0 is the unlabelled sentinel and cannot be "
                    "referenced",
                )
            elif op.inputs and not env.has(label):
                emit(
                    UNDEFINED_REF,
                    f"class ({label}) is not produced by any upstream "
                    "operator",
                )

    # --- shadow discipline (LC103) ------------------------------------
    if isinstance(op, _VALUE_READERS):
        for label in sorted(op.lc_consumed() & set(env.shadowed)):
            emit(
                SHADOWED_REF,
                f"class ({label}) is hidden by a Shadow here; reading its "
                "members needs an intervening Illuminate",
            )

    # --- Flatten/Shadow nesting contract (LC104) ----------------------
    if isinstance(op, (FlattenOp, ShadowOp)):
        child = env.info(op.child_lcl)
        if (
            child is not None
            and child.parent_known
            and child.parent_label != op.parent_lcl
        ):
            nested = (
                f"({child.parent_label})"
                if child.parent_label is not None
                else "the tree root"
            )
            emit(
                BAD_FLATTEN_SITE,
                f"class ({op.child_lcl}) nests under {nested}, not under "
                f"({op.parent_lcl}); Definition 5 requires C to map to "
                "children of P",
            )


def _check_join_sides(
    op: JoinOp, in_envs: List[LCEnv], emit: Callable[[str, str], None]
) -> None:
    left = in_envs[0] if in_envs else LCEnv()
    right = in_envs[1] if len(in_envs) > 1 else LCEnv()
    for pred in op.predicates:
        for label, own, other, side in (
            (pred.left_lcl, left, right, "left"),
            (pred.right_lcl, right, left, "right"),
        ):
            if label == 0:
                emit(
                    MALFORMED_OPERATOR,
                    "label 0 is the unlabelled sentinel and cannot be "
                    "joined on",
                )
            elif own.has(label):
                continue
            elif other.has(label):
                emit(
                    JOIN_SIDE_MISMATCH,
                    f"join predicate {pred.describe()} expects class "
                    f"({label}) on its {side} input, but it is produced "
                    "on the other side",
                )
            else:
                emit(
                    UNDEFINED_REF,
                    f"join predicate {pred.describe()} references class "
                    f"({label}), which neither input produces",
                )


def _check_malformed(
    op: Operator, emit: Callable[[str, str], None]
) -> None:
    """LC106: operator parameters outside their legal domains."""
    if isinstance(op, SelectOp):
        try:
            op.apt.validate()
        except PatternError as error:
            emit(MALFORMED_OPERATOR, f"invalid pattern: {error}")
        for node in op.apt.root.walk():
            for edge in node.edges:
                if edge.axis not in AXES:
                    emit(
                        MALFORMED_OPERATOR,
                        f"invalid axis {edge.axis!r} in pattern edge",
                    )
                if edge.mspec not in MSPECS:
                    emit(
                        MALFORMED_OPERATOR,
                        f"invalid matching specification {edge.mspec!r}",
                    )
            for cmp_op, _ in node.test.comparisons:
                if cmp_op not in _PY_OPS:
                    emit(
                        MALFORMED_OPERATOR,
                        f"unknown comparison operator {cmp_op!r} in "
                        "pattern predicate",
                    )
    elif isinstance(op, FilterOp):
        if op.mode not in MODES:
            emit(MALFORMED_OPERATOR, f"unknown filter mode {op.mode!r}")
        if op.predicate.op not in _PY_OPS:
            emit(
                MALFORMED_OPERATOR,
                f"unknown comparison operator {op.predicate.op!r}",
            )
    elif isinstance(op, JoinOp):
        if op.right_mspec not in MSPECS:
            emit(
                MALFORMED_OPERATOR,
                f"invalid join matching specification {op.right_mspec!r}",
            )
        for pred in op.predicates:
            if pred.op not in _PY_OPS:
                emit(
                    MALFORMED_OPERATOR,
                    f"unknown comparison operator {pred.op!r} in join "
                    "predicate",
                )
    elif isinstance(op, AggregateOp):
        if op.fname not in FUNCTIONS:
            emit(
                MALFORMED_OPERATOR,
                f"unknown aggregate function {op.fname!r}",
            )
    elif isinstance(op, DedupOp):
        if op.by not in ("id", "content"):
            emit(MALFORMED_OPERATOR, f"invalid dedup basis {op.by!r}")
        for label, basis in op.bases.items():
            if basis not in ("id", "content"):
                emit(
                    MALFORMED_OPERATOR,
                    f"invalid dedup basis {basis!r} for class ({label})",
                )
    elif isinstance(op, ConstructOp):
        for ref in construct_refs(op.ctree):
            if ref.lcl == 0:
                emit(
                    MALFORMED_OPERATOR,
                    "construct pattern references label 0 (the "
                    "unlabelled sentinel)",
                )


def report_conflicts(
    conflicts: List["ProducerConflict"], out: List[Diagnostic]
) -> None:
    """LC102: render duplicate-producer findings from the transfer pass."""
    seen = set()
    for op, existing, incoming in conflicts:
        key = (id(op), existing.label)
        if key in seen:
            continue
        seen.add(key)
        out.append(
            Diagnostic(
                DUPLICATE_LABEL,
                f"class ({existing.label}) is produced independently by "
                f"[{existing.producer_name}] and [{incoming.producer_name}]"
                "; labels must be unique per plan",
                describe_op(op),
                id(op),
            )
        )


def check_plan(analysis: "PlanAnalysis", out: List[Diagnostic]) -> None:
    """Whole-plan rules that need the complete operator set (LC201)."""
    consumed = set()
    for op in analysis.order:
        consumed |= op.lc_consumed()
    for op in analysis.order:
        if isinstance(op, AggregateOp) and op.new_lcl not in consumed:
            out.append(
                Diagnostic(
                    DEAD_CLASS,
                    f"aggregate result class ({op.new_lcl}) is never "
                    "consumed; the aggregate is dead work",
                    describe_op(op),
                    id(op),
                )
            )
