"""Warm-vs-cold benchmark for the query service (BENCH_4 experiment).

"Cold" is what every ``Engine.run`` pays today: parse, translate,
analyze, rewrite, *then* execute.  "Warm" is the service's prepared
path: the plan comes out of the
:class:`~repro.service.cache.PlanCache` and the query goes straight to
execution.  Both configurations execute the *same* plans over the same
cached XMark engine through the same :class:`QueryService`, so the
measured difference is exactly the compile work the cache elides.

The report also measures a concurrent batch (every query × ``rounds``)
on a single-thread pool versus the full pool.  In thread mode Python's
GIL serialises the interpreter, so that number is an honesty check on
dispatch overhead; ``mode="process"`` routes the batch through the
process-pool worker backend, the configuration that can actually beat
serial — *per core*.  The report records ``cpu_count`` alongside the
timings because the speedup is a hardware property: on a single-core
host the process pool pays dispatch + serialization for no parallel
gain, and the honest number says so.  The pooled batch's results are
compared byte-for-byte against the serial service's
(``pooled_matches_serial``), so every committed report re-certifies
the equivalence oracle.

Since the telemetry layer (DESIGN.md §12), the report also harvests the
service's own latency histograms: p50/p95/p99 over every request of the
sweep, overall and per benchmark query (``BENCH_5.json`` is such a
report with the ``latency`` section populated).
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Sequence

from ..service import QueryService
from ..service.cache import normalize_query
from ..telemetry.querylog import query_hash
from ..xmark.queries import FIGURE15_ORDER, QUERIES
from .env import runtime_flags
from .harness import DEFAULT_FACTOR, Harness


@dataclass
class ServiceBenchRow:
    """One query's cold (compile + execute) vs warm (cached) latency."""

    query: str
    cold_ms: float
    warm_ms: float
    speedup: float
    #: compile share of the cold latency, first-order: (cold - warm) / cold
    compile_fraction: float


@dataclass
class ServiceBenchReport:
    """The full warm-vs-cold sweep plus the pool-scaling observation."""

    factor: float
    repeats: int
    threads: int
    mode: str = "thread"
    start_method: Optional[str] = None
    #: cores the host exposed during the run — the ceiling on any
    #: process-pool speedup, recorded so the number can be judged
    cpu_count: int = 0
    #: uniform machine/toggle stamp (includes cpu_count again, plus the
    #: batch/numpy/planner flags) — shared with every BENCH_*
    environment: Dict[str, object] = field(default_factory=dict)
    rows: List[ServiceBenchRow] = field(default_factory=list)
    #: wall seconds for the concurrent batch on 1 worker vs ``threads``
    serial_batch_seconds: float = 0.0
    pooled_batch_seconds: float = 0.0
    #: whether the pooled batch's results were byte-identical to the
    #: serial service's (None when the check did not run)
    pooled_matches_serial: Optional[bool] = None
    cache_hits: int = 0
    cache_misses: int = 0
    #: service-path latency percentiles from the telemetry histograms:
    #: ``"all"`` plus one entry per benchmark query (count, p50/p95/p99 ms)
    latency: Dict[str, Dict[str, object]] = field(default_factory=dict)

    def overall_speedup(self) -> float:
        """Geometric-mean warm-vs-cold speedup over every query."""
        return _geomean([r.speedup for r in self.rows])

    def pool_speedup(self) -> float:
        """Serial-batch over pooled-batch wall time (>1 = pool wins)."""
        if not self.pooled_batch_seconds:
            return float("nan")
        return self.serial_batch_seconds / self.pooled_batch_seconds

    def median_compile_fraction(self) -> float:
        """Median share of cold latency spent compiling."""
        fractions = sorted(r.compile_fraction for r in self.rows)
        if not fractions:
            return float("nan")
        mid = len(fractions) // 2
        if len(fractions) % 2:
            return fractions[mid]
        return (fractions[mid - 1] + fractions[mid]) / 2

    def to_json(self) -> str:
        pool_speedup = self.pool_speedup()
        payload = {
            "experiment": "service",
            "factor": self.factor,
            "repeats": self.repeats,
            "threads": self.threads,
            "mode": self.mode,
            "start_method": self.start_method,
            "cpu_count": self.cpu_count,
            "environment": self.environment,
            "summary": {
                "warm_speedup_geomean": round(self.overall_speedup(), 3),
                "median_compile_fraction": round(
                    self.median_compile_fraction(), 3
                ),
                "serial_batch_seconds": round(self.serial_batch_seconds, 4),
                "pooled_batch_seconds": round(self.pooled_batch_seconds, 4),
                "pool_speedup": (
                    round(pool_speedup, 3)
                    if not math.isnan(pool_speedup)
                    else None
                ),
                "pooled_matches_serial": self.pooled_matches_serial,
                "plan_cache_hits": self.cache_hits,
                "plan_cache_misses": self.cache_misses,
            },
            "latency": self.latency,
            "rows": [asdict(row) for row in self.rows],
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "ServiceBenchReport":
        payload = json.loads(text)
        report = cls(
            factor=payload["factor"],
            repeats=payload["repeats"],
            threads=payload["threads"],
            mode=payload.get("mode", "thread"),
            start_method=payload.get("start_method"),
            cpu_count=payload.get("cpu_count", 0),
            environment=payload.get("environment", {}),
        )
        report.rows = [ServiceBenchRow(**row) for row in payload["rows"]]
        summary = payload.get("summary", {})
        report.serial_batch_seconds = summary.get("serial_batch_seconds", 0.0)
        report.pooled_batch_seconds = summary.get("pooled_batch_seconds", 0.0)
        report.pooled_matches_serial = summary.get("pooled_matches_serial")
        report.cache_hits = summary.get("plan_cache_hits", 0)
        report.cache_misses = summary.get("plan_cache_misses", 0)
        report.latency = payload.get("latency", {})
        return report


def _named_latency(
    latency: Dict[str, Dict[str, object]], names: Sequence[str]
) -> Dict[str, Dict[str, object]]:
    """Re-key the service's per-class percentiles by benchmark query name.

    The service buckets latency by ``engine:queryhash``; the hash is the
    plan-cache identity (sha of the normalized text), so each benchmark
    query's class is recoverable by hashing its text the same way.
    Classes that match no benchmark query (none, normally) are dropped.
    """
    hash_to_name = {
        query_hash(normalize_query(QUERIES[name].text)): name
        for name in names
    }
    named: Dict[str, Dict[str, object]] = {}
    for key, entry in latency.items():
        entry = {k: v for k, v in entry.items() if k != "query"}
        if key == "all":
            named["all"] = entry
        else:
            name = hash_to_name.get(key.split(":", 1)[-1])
            if name is not None:
                named[name] = entry
    return named


def _geomean(values: Sequence[float]) -> float:
    positive = [v for v in values if v > 0]
    if not positive:
        return float("nan")
    return math.exp(sum(math.log(v) for v in positive) / len(positive))


def _trimmed_mean(samples: List[float]) -> float:
    """The paper's methodology: drop min and max, average the rest."""
    ordered = sorted(samples)
    if len(ordered) > 2:
        ordered = ordered[1:-1]
    return sum(ordered) / len(ordered)


def bench_service(
    queries: Optional[Sequence[str]] = None,
    factor: float = DEFAULT_FACTOR,
    repeats: int = 5,
    threads: int = 8,
    rounds: int = 2,
    harness: Optional[Harness] = None,
    mode: str = "thread",
    start_method: Optional[str] = None,
) -> ServiceBenchReport:
    """Measure every query cold (cache cleared) and warm (cache hit).

    ``repeats`` samples are taken per configuration with the paper's
    trim-and-average; one untimed warm-up run per query precedes the
    measurements so buffer-pool state is comparable between the two
    sides.  ``rounds`` controls the size of the concurrent batch
    (every query, ``rounds`` times, in submission order).  ``mode``
    selects the pooled service's backend (``thread`` or ``process``);
    process-mode workers are primed before the batch is timed, so the
    measurement covers queries, not process starts.
    """
    harness = harness or Harness()
    engine = harness.engine_for(factor)
    names = list(queries or FIGURE15_ORDER)
    report = ServiceBenchReport(
        factor=factor,
        repeats=repeats,
        threads=threads,
        mode=mode,
        start_method=start_method,
        cpu_count=os.cpu_count() or 0,
        environment=runtime_flags(),
    )
    with QueryService(
        engine, threads=threads, mode=mode, start_method=start_method
    ) as svc:
        report.start_method = svc.start_method
        svc.prime()
        for name in names:
            text = QUERIES[name].text
            svc.execute(text)  # untimed warm-up (data caches, code paths)
            cold_samples: List[float] = []
            for _ in range(repeats):
                svc.cache.clear()
                started = time.perf_counter()
                svc.execute(text)
                cold_samples.append(time.perf_counter() - started)
            svc.execute(text)  # ensure the entry is resident again
            warm_samples: List[float] = []
            for _ in range(repeats):
                started = time.perf_counter()
                svc.execute(text)
                warm_samples.append(time.perf_counter() - started)
            cold = _trimmed_mean(cold_samples)
            warm = _trimmed_mean(warm_samples)
            report.rows.append(
                ServiceBenchRow(
                    query=name,
                    cold_ms=round(cold * 1000, 3),
                    warm_ms=round(warm * 1000, 3),
                    speedup=round(cold / warm if warm else float("inf"), 3),
                    compile_fraction=round(
                        max(0.0, cold - warm) / cold if cold else 0.0, 3
                    ),
                )
            )
        batch = [QUERIES[name].text for name in names] * rounds
        started = time.perf_counter()
        pooled_results = svc.execute_many(batch)
        report.pooled_batch_seconds = time.perf_counter() - started
        stats = svc.stats()
        report.cache_hits = stats.cache.hits
        report.cache_misses = stats.cache.misses
        report.latency = _named_latency(stats.latency, names)
    with QueryService(engine, threads=1) as serial:
        for name in names:  # warm the one-thread service's cache too
            serial.prepare(QUERIES[name].text)
        started = time.perf_counter()
        serial_results = serial.execute_many(batch)
        report.serial_batch_seconds = time.perf_counter() - started
    report.pooled_matches_serial = all(
        pooled.to_xml() == expected.to_xml()
        for pooled, expected in zip(pooled_results, serial_results)
    ) and len(pooled_results) == len(serial_results)
    return report


def service_table(report: ServiceBenchReport) -> str:
    """Render the warm-vs-cold sweep as a fixed-width table."""
    header = (
        f"{'query':6s}{'cold ms':>10s}{'warm ms':>10s}{'speedup':>9s}"
        f"{'compile%':>10s}"
    )
    lines = [header, "-" * len(header)]
    for row in report.rows:
        lines.append(
            f"{row.query:6s}"
            f"{row.cold_ms:>10.2f}"
            f"{row.warm_ms:>10.2f}"
            f"{row.speedup:>8.2f}x"
            f"{row.compile_fraction * 100:>9.1f}%"
        )
    lines.append("-" * len(header))
    lines.append(
        f"geomean warm speedup: {report.overall_speedup():.2f}x "
        f"(median compile share {report.median_compile_fraction() * 100:.0f}%)"
    )
    if report.mode == "process":
        method = report.start_method or "default"
        pool_speedup = report.pool_speedup()
        speedup_text = (
            f"{pool_speedup:.2f}x" if not math.isnan(pool_speedup) else "n/a"
        )
        lines.append(
            f"concurrent batch: {report.pooled_batch_seconds:.2f}s on "
            f"{report.threads} worker processes ({method}) vs "
            f"{report.serial_batch_seconds:.2f}s serial — {speedup_text} "
            f"on {report.cpu_count} "
            f"{'core' if report.cpu_count == 1 else 'cores'}"
        )
        if report.pooled_matches_serial is not None:
            verdict = (
                "byte-identical to serial"
                if report.pooled_matches_serial
                else "MISMATCH vs serial"
            )
            lines.append(f"pooled results: {verdict}")
    else:
        lines.append(
            f"concurrent batch: {report.pooled_batch_seconds:.2f}s on "
            f"{report.threads} workers vs {report.serial_batch_seconds:.2f}s "
            "on 1 (GIL-bound; isolation, not parallelism)"
        )
    lines.append(
        f"plan cache: {report.cache_hits} hits / "
        f"{report.cache_misses} misses"
    )
    overall = report.latency.get("all")
    if overall:
        lines.append(
            f"service latency over {overall['count']} requests: "
            f"p50 {overall['p50_ms']:.2f}ms · "
            f"p95 {overall['p95_ms']:.2f}ms · "
            f"p99 {overall['p99_ms']:.2f}ms"
        )
    return "\n".join(lines)
