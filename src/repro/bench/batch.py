"""Before/after harness for the batch runtime (BENCH_8 experiment).

"Before" is per-tree evaluation (shared postings, merge cursors, scan
cache) with the batch runtime switched off; "after" is the same stack
evaluating batch-at-a-time over
:class:`~repro.columns.batch.ColumnBatch` columns.  Both configurations
run the *same* plans over the *same* cached XMark engine, so the only
variable is the operator currency — trees versus columns.

The sweep runs once per column backend: ``pure`` (plain Python lists,
the configuration the acceptance gate tracks) and ``numpy`` (recorded
separately; absent when the container lacks numpy).  Absolute seconds
belong to this machine — the per-query **speedup** is the number that
travels, and the committed ``BENCH_8.json`` baseline is what the CI
smoke check compares against.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Sequence

from ..columns.arrays import numpy_available, use_numpy
from ..columns.batch import use_batch
from ..xmark.queries import FIGURE15_ORDER
from .env import runtime_flags
from .harness import DEFAULT_FACTOR, WORK_COUNTERS, Harness, _geomean

#: Column backends the sweep measures, in report order.
BACKENDS = ("pure", "numpy")


@dataclass
class BatchRow:
    """One query's before/after measurement under one column backend."""

    query: str
    backend: str            #: "pure" or "numpy"
    before_seconds: float   #: per-tree evaluation (batch off)
    after_seconds: float    #: batch runtime (batch on)
    speedup: float
    batch_ops: int          #: operators that produced columnar output
    batch_rows: int         #: rows flowing out of those operators
    batch_fallbacks: int    #: forced materialisations (no batch form)
    #: work counters the batch runtime increased (must stay empty)
    counters_regressed: List[str] = field(default_factory=list)


@dataclass
class BatchReport:
    """The full before/after sweep plus its summary statistics."""

    factor: float
    repeats: int
    engine: str
    environment: Dict[str, object] = field(default_factory=dict)
    rows: List[BatchRow] = field(default_factory=list)

    def backend_rows(self, backend: str) -> List[BatchRow]:
        return [row for row in self.rows if row.backend == backend]

    def speedup_geomean(self, backend: str = "pure") -> float:
        """Geometric-mean speedup of one backend over the per-tree path.

        This is the acceptance number for ``backend='pure'``: the batch
        runtime must win on the algorithm, not on numpy's constants.
        """
        return _geomean(
            [row.speedup for row in self.backend_rows(backend)]
        )

    def fallback_free_queries(self, backend: str = "pure") -> int:
        """Queries whose whole plan stayed columnar (no fallback)."""
        return sum(
            1
            for row in self.backend_rows(backend)
            if row.batch_fallbacks == 0
        )

    def to_json(self) -> str:
        summary = {
            "pure_speedup": round(self.speedup_geomean("pure"), 3),
            "fallback_free_queries": self.fallback_free_queries("pure"),
        }
        if self.backend_rows("numpy"):
            summary["numpy_speedup"] = round(
                self.speedup_geomean("numpy"), 3
            )
        payload = {
            "experiment": "batch",
            "factor": self.factor,
            "repeats": self.repeats,
            "engine": self.engine,
            "environment": self.environment,
            "summary": summary,
            "rows": [asdict(row) for row in self.rows],
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "BatchReport":
        payload = json.loads(text)
        report = cls(
            factor=payload["factor"],
            repeats=payload["repeats"],
            engine=payload["engine"],
            environment=payload.get("environment", {}),
        )
        report.rows = [BatchRow(**row) for row in payload["rows"]]
        return report


def compare_batch(
    queries: Optional[Sequence[str]] = None,
    factor: float = DEFAULT_FACTOR,
    engine: str = "tlc",
    repeats: int = 3,
    harness: Optional[Harness] = None,
    backends: Optional[Sequence[str]] = None,
) -> BatchReport:
    """Measure every query before (per-tree) and after (batch runtime).

    Both sides keep the scan cache on — the comparison isolates the
    operator currency.  Backends default to ``pure`` plus ``numpy``
    when available; requesting ``numpy`` without numpy installed
    raises (the caller asked for a measurement that cannot run
    honestly).
    """
    harness = harness or Harness()
    if backends is None:
        backends = (
            BACKENDS if numpy_available() else ("pure",)
        )
    report = BatchReport(
        factor=factor,
        repeats=repeats,
        engine=engine,
        environment=runtime_flags(),
    )
    for name in queries or FIGURE15_ORDER:
        with use_batch(False):
            before = harness.run_query(
                name, engine, factor, repeats=repeats
            )
        for backend in backends:
            with use_batch(True), use_numpy(backend == "numpy"):
                after = harness.run_query(
                    name, engine, factor, repeats=repeats
                )
            regressed = [
                key
                for key in WORK_COUNTERS
                if after.counters.get(key, 0) > before.counters.get(key, 0)
            ]
            report.rows.append(
                BatchRow(
                    query=name,
                    backend=backend,
                    before_seconds=round(before.seconds, 6),
                    after_seconds=round(after.seconds, 6),
                    speedup=round(
                        before.seconds / after.seconds
                        if after.seconds else float("inf"),
                        3,
                    ),
                    batch_ops=after.counters.get("batch_ops", 0),
                    batch_rows=after.counters.get("batch_rows", 0),
                    batch_fallbacks=after.counters.get(
                        "batch_fallbacks", 0
                    ),
                    counters_regressed=regressed,
                )
            )
    return report


def batch_table(report: BatchReport) -> str:
    """Render the before/after sweep as a fixed-width table."""
    header = (
        f"{'query':6s}{'backend':>8s}{'before':>9s}{'after':>9s}"
        f"{'speedup':>9s}{'ops':>5s}{'rows':>7s}{'fall':>6s}  flags"
    )
    lines = [header, "-" * len(header)]
    for row in report.rows:
        flags = []
        if row.counters_regressed:
            flags.append("REGRESSED:" + ",".join(row.counters_regressed))
        lines.append(
            f"{row.query:6s}"
            f"{row.backend:>8s}"
            f"{row.before_seconds:>9.3f}"
            f"{row.after_seconds:>9.3f}"
            f"{row.speedup:>8.2f}x"
            f"{row.batch_ops:>5d}"
            f"{row.batch_rows:>7d}"
            f"{row.batch_fallbacks:>6d}"
            f"  {' '.join(flags)}"
        )
    lines.append("-" * len(header))
    summary = (
        f"geomean speedup: {report.speedup_geomean('pure'):.2f}x pure"
    )
    if report.backend_rows("numpy"):
        summary += f", {report.speedup_geomean('numpy'):.2f}x numpy"
    summary += (
        f"; {report.fallback_free_queries('pure')}/"
        f"{len(report.backend_rows('pure'))} plans fully columnar"
    )
    lines.append(summary)
    return "\n".join(lines)


def check_batch_against_baseline(
    current: BatchReport,
    baseline: BatchReport,
    threshold: float = 0.25,
) -> List[str]:
    """Regression findings of ``current`` vs a committed baseline.

    Findings are produced when the pure-Python speedup geomean fell
    more than ``threshold`` (fractional) below the baseline's, when the
    batch runtime is net slower than the per-tree path, or when any
    work counter regressed.  Speedup ratios are machine-independent to
    first order, so the committed numbers travel.  Empty list == pass.
    """
    findings: List[str] = []
    base = baseline.speedup_geomean("pure")
    cur = current.speedup_geomean("pure")
    if not math.isnan(base) and not math.isnan(cur):
        floor = base * (1.0 - threshold)
        if cur < floor:
            findings.append(
                "batch speedup regressed: geomean "
                f"{cur:.2f}x vs baseline {base:.2f}x "
                f"(floor {floor:.2f}x at threshold {threshold:.0%})"
            )
    if not math.isnan(cur) and cur < 1.0:
        findings.append(
            "batch runtime is net slower than the per-tree path "
            f"(geomean speedup {cur:.2f}x)"
        )
    for row in current.rows:
        if row.counters_regressed:
            findings.append(
                f"{row.query} ({row.backend}): batch runtime increased "
                f"work counters {row.counters_regressed}"
            )
    return findings
