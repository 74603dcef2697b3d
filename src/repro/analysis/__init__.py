"""Static LC-flow analysis of TLC plans.

``analyze(plan)`` walks an operator DAG bottom-up — without executing it
— and computes, for every edge, the environment of live logical classes
with provenance.  The rules in :mod:`.rules` check the invariants the
algebra relies on (closed label references, unique allocation,
shadow/illuminate pairing, Flatten nesting, join sidedness, well-formed
parameters) and report typed :class:`Diagnostic` findings.
``analyze(plan, stats)`` also bounds every operator's output cardinality
against the database statistics in the same walk (LC3xx,
:mod:`.cardinality`).

``analyze`` is the one entry point: the engine's strict mode, the
rewrite pipeline's per-step verification and the ``python -m repro
lint``/``explain --lint`` CLI all call it.
"""

from __future__ import annotations

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
from .visitor import PlanAnalysis, analyze, dedupe_diagnostics

__all__ = [
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
]
