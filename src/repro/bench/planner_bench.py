"""Planner-on vs static plans (the BENCH_9 experiment).

"Before" is the static configuration every earlier baseline measured:
the translator's plan shape executed as-is.  "After" runs the same
queries with cost-based physical planning
(:func:`~repro.planner.plan_physical`) applied before execution — edge
orders and operator currency chosen by the cost model.  Planning time
is *included* in the after-side wall time: a planner that only wins by
hiding its own cost would be lying, and plan-cache amortisation is the
service's story, not this sweep's.

Both sides produce byte-identical results (the integration sweep pins
this); what this harness measures is whether the chosen shapes are
actually cheaper.  The committed ``BENCH_9.json`` is what the CI smoke
check compares against; the win condition of the experiment is a
speedup geomean >= 1.0x with at least one query where the planner picked
a different join order than the source plan and won.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Sequence

from ..planner import use_planner
from ..xmark.queries import FIGURE15_ORDER
from .env import runtime_flags
from .harness import DEFAULT_FACTOR, WORK_COUNTERS, Harness, _geomean


@dataclass
class PlannerRow:
    """One query's static-vs-planned measurement."""

    query: str
    static_seconds: float    #: translator shape
    planned_seconds: float   #: cost-planned shape (planning included)
    speedup: float
    #: pattern nodes whose edge order the planner changed (from the
    #: ``planner_reorders`` counter of the measured run)
    reordered_sites: int
    #: work counters the planned run increased — informational: a
    #: reorder legitimately shifts work between counters, so this is
    #: recorded but not gated like the batch sweep
    counters_regressed: List[str] = field(default_factory=list)

    @property
    def join_order_win(self) -> bool:
        """The planner changed a join order *and* the query got faster."""
        return self.reordered_sites > 0 and self.speedup > 1.0


@dataclass
class PlannerReport:
    """The full static-vs-planned sweep plus its summary statistics."""

    factor: float
    repeats: int
    engine: str
    environment: Dict[str, object] = field(default_factory=dict)
    rows: List[PlannerRow] = field(default_factory=list)

    def speedup_geomean(self) -> float:
        """Geometric-mean speedup of planned over static execution."""
        return _geomean([row.speedup for row in self.rows])

    def reordered_queries(self) -> List[str]:
        """Queries where the planner changed at least one join order."""
        return [r.query for r in self.rows if r.reordered_sites > 0]

    def join_order_wins(self) -> List[str]:
        """Queries where a changed join order came out ahead."""
        return [r.query for r in self.rows if r.join_order_win]

    def to_json(self) -> str:
        payload = {
            "experiment": "planner",
            "factor": self.factor,
            "repeats": self.repeats,
            "engine": self.engine,
            "environment": self.environment,
            "summary": {
                "speedup_geomean": round(self.speedup_geomean(), 3),
                "reordered_queries": self.reordered_queries(),
                "join_order_wins": self.join_order_wins(),
            },
            "rows": [asdict(row) for row in self.rows],
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "PlannerReport":
        payload = json.loads(text)
        report = cls(
            factor=payload["factor"],
            repeats=payload["repeats"],
            engine=payload["engine"],
            environment=payload.get("environment", {}),
        )
        report.rows = [PlannerRow(**row) for row in payload["rows"]]
        return report


def compare_planner(
    queries: Optional[Sequence[str]] = None,
    factor: float = DEFAULT_FACTOR,
    engine: str = "tlc",
    repeats: int = 3,
    harness: Optional[Harness] = None,
) -> PlannerReport:
    """Measure every query static (planner off) and cost-planned (on).

    Both sides share the cached XMark engine and the scan cache; the
    planner toggle is the only variable.  The planned side re-plans on
    every run — planning is statistics arithmetic and its cost belongs
    in the measurement (see the module docstring).
    """
    harness = harness or Harness()
    report = PlannerReport(
        factor=factor,
        repeats=repeats,
        engine=engine,
        environment=runtime_flags(),
    )
    for name in queries or FIGURE15_ORDER:
        with use_planner(False):
            static = harness.run_query(
                name, engine, factor, repeats=repeats
            )
        with use_planner(True):
            planned = harness.run_query(
                name, engine, factor, repeats=repeats
            )
        regressed = [
            key
            for key in WORK_COUNTERS
            if planned.counters.get(key, 0) > static.counters.get(key, 0)
        ]
        report.rows.append(
            PlannerRow(
                query=name,
                static_seconds=round(static.seconds, 6),
                planned_seconds=round(planned.seconds, 6),
                speedup=round(
                    static.seconds / planned.seconds
                    if planned.seconds else float("inf"),
                    3,
                ),
                reordered_sites=planned.counters.get(
                    "planner_reorders", 0
                ),
                counters_regressed=regressed,
            )
        )
    return report


def planner_table(report: PlannerReport) -> str:
    """Render the static-vs-planned sweep as a fixed-width table."""
    header = (
        f"{'query':6s}{'static':>9s}{'planned':>9s}{'speedup':>9s}"
        f"{'reorder':>9s}  flags"
    )
    lines = [header, "-" * len(header)]
    for row in report.rows:
        flags = []
        if row.join_order_win:
            flags.append("join-order-win")
        elif row.reordered_sites:
            flags.append("reordered")
        if row.counters_regressed:
            flags.append("grew:" + ",".join(row.counters_regressed))
        lines.append(
            f"{row.query:6s}"
            f"{row.static_seconds:>9.3f}"
            f"{row.planned_seconds:>9.3f}"
            f"{row.speedup:>8.2f}x"
            f"{row.reordered_sites:>9d}"
            f"  {' '.join(flags)}"
        )
    lines.append("-" * len(header))
    wins = report.join_order_wins()
    lines.append(
        f"geomean speedup: {report.speedup_geomean():.2f}x; "
        f"{len(report.reordered_queries())} queries reordered, "
        f"join-order wins: {', '.join(wins) if wins else 'none'}"
    )
    return "\n".join(lines)


def check_planner_against_baseline(
    current: PlannerReport,
    baseline: PlannerReport,
    threshold: float = 0.25,
) -> List[str]:
    """Regression findings of ``current`` vs a committed baseline.

    Findings are produced when the speedup geomean fell more than
    ``threshold`` (fractional) below the baseline's, or when the planner
    is *clearly* net slower than static execution (below ``1 -
    threshold`` — the committed baseline sits near break-even at 1.01x,
    so a hard ``>= 1.0`` gate would flap on single-sample CI noise).
    Per-row counter growth stays informational (a reorder shifts work
    between counters by design).  Empty list == pass.

    "No join-order win survives" is deliberately **not** a finding any
    more.  A win needs one reordered query to read faster planned than
    static, and the five reordered queries run at 0.9-1.1x either way:
    with nothing on the planner path changed the condition passed 4 of
    6 runs (PR 26), and every PR that makes both sides cheaper makes it
    flip more.  :meth:`PlannerReport.join_order_wins` is still reported
    (table, JSON, the smoke job's OK line) — as information, not a gate.
    """
    findings: List[str] = []
    base = baseline.speedup_geomean()
    cur = current.speedup_geomean()
    if not math.isnan(base) and not math.isnan(cur):
        floor = base * (1.0 - threshold)
        if cur < floor:
            findings.append(
                "planner speedup regressed: geomean "
                f"{cur:.2f}x vs baseline {base:.2f}x "
                f"(floor {floor:.2f}x at threshold {threshold:.0%})"
            )
    if not math.isnan(cur) and cur < 1.0 - threshold:
        findings.append(
            "cost-based planning is clearly net slower than the static "
            f"plans (geomean speedup {cur:.2f}x, floor "
            f"{1.0 - threshold:.2f}x)"
        )
    return findings
