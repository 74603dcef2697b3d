"""Static LC-flow analysis of TLC plans.

``analyze(plan)`` walks an operator DAG bottom-up — without executing it
— and computes, for every edge, the environment of live logical classes
with provenance.  The rules in :mod:`.rules` check the invariants the
algebra relies on (closed label references, unique allocation,
shadow/illuminate pairing, Flatten nesting, join sidedness, well-formed
parameters) and report typed :class:`Diagnostic` findings.

``lint_plan(plan)`` is the convenience entry point used by the engine's
strict mode, the rewrite pipeline's per-step verification, and the
``python -m repro lint`` CLI.
"""

from __future__ import annotations

from typing import Optional

from ..core.base import Operator
from .diagnostics import (
    BAD_FLATTEN_SITE,
    CARDINALITY_BLOWUP,
    CATALOG,
    DEAD_CLASS,
    DUPLICATE_LABEL,
    EMPTY_BRANCH,
    JOIN_SIDE_MISMATCH,
    MALFORMED_OPERATOR,
    SHADOWED_REF,
    UNDEFINED_REF,
    Diagnostic,
    Severity,
)
from .environment import ClassInfo, LCEnv
from .report import AnalysisReport
from .visitor import PlanAnalysis, analyze, dedupe_diagnostics


def lint_plan(plan: Operator, stats=None) -> AnalysisReport:
    """Analyze ``plan`` and package the result for display.

    With ``stats`` (a :class:`~repro.storage.stats.CardinalityStats`),
    the cardinality pass also runs: per-operator interval bounds are
    attached to the report and LC3xx warnings join the diagnostics.
    """
    analysis = analyze(plan)
    bounds: Optional[dict] = None
    if stats is not None:
        from .cardinality import bound_plan

        card = bound_plan(plan, stats)
        bounds = card.bounds
        analysis.diagnostics.extend(card.diagnostics)
        dedupe_diagnostics(analysis.diagnostics)
    return AnalysisReport(analysis, bounds=bounds)


__all__ = [
    "AnalysisReport",
    "BAD_FLATTEN_SITE",
    "CARDINALITY_BLOWUP",
    "CATALOG",
    "ClassInfo",
    "DEAD_CLASS",
    "DUPLICATE_LABEL",
    "Diagnostic",
    "EMPTY_BRANCH",
    "JOIN_SIDE_MISMATCH",
    "LCEnv",
    "MALFORMED_OPERATOR",
    "PlanAnalysis",
    "SHADOWED_REF",
    "Severity",
    "UNDEFINED_REF",
    "analyze",
    "dedupe_diagnostics",
    "lint_plan",
]
