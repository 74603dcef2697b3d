"""The ``repro check`` orchestrator: two passes, one baseline.

``run_check`` executes the selected passes —

* ``concurrency`` — the CC1xx source lint over the package (or any
  ``--paths`` the caller points it at);
* ``cardinality`` — the LC3xx interval bounds over every sweep plan
  against a small generated XMark instance —

and reconciles the union of findings against the reviewed suppression
baseline (:mod:`.findings`).  The exit contract: new findings fail;
suppressed findings are reported as such; baseline entries that no
longer fire are *stale* and fail under ``--strict-baseline`` (the CI
mode), so the baseline cannot drift in either direction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from .findings import Baseline, CheckFinding

#: Pass names in execution order.
PASSES = ("concurrency", "cardinality")

#: XMark factor the cardinality pass loads; small enough to
#: build in well under a second, big enough that every tag occurs.
CHECK_FACTOR = 0.002


@dataclass
class CheckResult:
    """Everything one ``repro check`` run learned."""

    findings: List[CheckFinding] = field(default_factory=list)
    new: List[CheckFinding] = field(default_factory=list)
    suppressed: List[CheckFinding] = field(default_factory=list)
    stale: List[str] = field(default_factory=list)
    per_pass: Dict[str, int] = field(default_factory=dict)

    def exit_code(self, strict_baseline: bool = False) -> int:
        if self.new:
            return 1
        if strict_baseline and self.stale:
            return 1
        return 0

    def render(self) -> str:
        lines: List[str] = []
        for finding in self.new:
            lines.append(finding.render())
        for finding in self.suppressed:
            lines.append(f"suppressed: {finding.key}")
        for key in self.stale:
            lines.append(f"stale baseline entry (no longer fires): {key}")
        ran = ", ".join(
            f"{name}={count}" for name, count in self.per_pass.items()
        )
        lines.append(
            f"check: {len(self.new)} new, {len(self.suppressed)} "
            f"suppressed, {len(self.stale)} stale ({ran})"
        )
        return "\n".join(lines)


def _package_root() -> Path:
    import repro

    return Path(repro.__file__).resolve().parent


def _concurrency_pass(
    paths: Optional[Sequence[Path]],
) -> List[CheckFinding]:
    from .concurrency import lint_paths

    if paths:
        resolved = [Path(p) for p in paths]
        anchor = resolved[0]
        root = anchor if anchor.is_dir() else anchor.parent
        return lint_paths(resolved, package_root=root)
    root = _package_root()
    return lint_paths([root], package_root=root)


def _cardinality_pass() -> List[CheckFinding]:
    from ..engine import Engine
    from ..rewrites.pipeline import optimize_plan
    from ..storage.stats import CardinalityStats
    from ..xmark import QUERIES
    from ..xquery.translator import translate_query
    from .cardinality import bound_plan

    engine = Engine()
    engine.load_xmark(factor=CHECK_FACTOR)
    stats = CardinalityStats.from_database(engine.db)
    findings: List[CheckFinding] = []
    for name in sorted(QUERIES):
        translation = translate_query(QUERIES[name].text)
        plans = {
            f"xmark:{name}": translation.plan,
            f"xmark:{name}+opt": optimize_plan(
                translation, verify=False
            ).plan,
        }
        for location, plan in plans.items():
            analysis = bound_plan(plan, stats)
            for diag in analysis.diagnostics:
                findings.append(
                    CheckFinding(
                        code=diag.code,
                        location=location,
                        symbol=diag.operator,
                        message=diag.message,
                    )
                )
    return findings


def run_check(
    paths: Optional[Sequence[Path]] = None,
    baseline: Optional[Baseline] = None,
    passes: Sequence[str] = PASSES,
) -> CheckResult:
    """Run the selected passes and reconcile against ``baseline``.

    ``paths`` redirects the concurrency pass at arbitrary sources (the
    docs-smoke job points it at ``examples/``); the cardinality pass
    always bounds the installed package's XMark plans.
    """
    result = CheckResult()
    for name in passes:
        if name == "concurrency":
            found = _concurrency_pass(paths)
        elif name == "cardinality":
            found = _cardinality_pass()
        else:
            raise ValueError(f"unknown check pass {name!r}")
        result.per_pass[name] = len(found)
        result.findings.extend(found)
    active = baseline if baseline is not None else Baseline.empty()
    result.new, result.suppressed, result.stale = active.split(
        result.findings
    )
    return result
