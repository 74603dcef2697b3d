"""CI smoke checks for the batch runtime (guards BENCH_8.json), the
cost-based planner (guards BENCH_9.json) and the process-pool service.

With ``--batch-baseline`` (CI passes ``BENCH_8.json``) a batch-runtime
stage runs: every XMark query executes with the batch runtime off and
on (both column backends) and must produce byte-identical XML, then
the fresh before/after batch sweep is gated against the committed
baseline (``--threshold`` / ``REPRO_BENCH_THRESHOLD``, default 25%) —
failing when the pure-Python speedup geomean falls more than the
threshold below the committed number, when the batch runtime goes net
slower than the per-tree path, or when it increases any work counter.
Refresh with ``python -m repro bench batch --factor 0.005 --out
BENCH_8.json``.

With ``--planner-baseline`` (CI passes ``BENCH_9.json``) a planner
stage runs: every XMark query executes with the cost-based planner off
and on and must produce byte-identical XML, then a fresh static-vs-
planned sweep is gated against the committed baseline — failing when
the planned speedup geomean falls more than the threshold below the
committed number, or when planning goes clearly net slower than the
static plans (join-order wins are printed, not gated: which reordered
query reads faster is sub-noise).  Refresh with
``python -m repro bench planner --factor 0.05 --repeats 3 --out
BENCH_9.json``.

With ``--mode process`` a further stage runs: the full 23-query sweep
is executed through the process-pool service (``--workers`` workers,
``--start-method`` fork or spawn) and every result is compared
byte-for-byte against a serial in-process run — the equivalence oracle
that lets the execution substrate change under the queries.  CI runs
this stage under both start methods.  Adding ``--spans`` runs the same
sweep with request-span recording armed: results must stay
byte-identical, every request must leave a capture carrying the
worker-side phases, and the combined Chrome-trace export must pass
:func:`repro.telemetry.spans.check_chrome_trace`.

Usage::

    PYTHONPATH=src python benchmarks/bench_smoke.py \
        --batch-baseline BENCH_8.json
    PYTHONPATH=src python benchmarks/bench_smoke.py \
        --planner-baseline BENCH_9.json
    PYTHONPATH=src python benchmarks/bench_smoke.py \
        --mode process --workers 2 --start-method spawn
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from repro.bench import (
    DEFAULT_FACTOR,
    BatchReport,
    batch_table,
    check_batch_against_baseline,
    compare_batch,
)


def check_batch(baseline_path: Path, factor: float | None,
                repeats: int, threshold: float) -> int:
    """Byte-identity sweep plus the BENCH_8 regression gate; 0 iff OK."""
    from repro.bench.harness import Harness
    from repro.columns.arrays import numpy_available, use_numpy
    from repro.columns.batch import use_batch
    from repro.xmark.queries import FIGURE15_ORDER, QUERIES

    baseline = BatchReport.from_json(baseline_path.read_text())
    if factor is None:
        factor = baseline.factor
    harness = Harness()
    engine = harness.engine_for(factor)

    # stage 1: every query, batch off vs on (both backends), identical XML
    mismatches = []
    for name in FIGURE15_ORDER:
        text = QUERIES[name].text
        with use_batch(False):
            expected = engine.run(text, "tlc").to_xml()
        with use_batch(True), use_numpy(False):
            if engine.run(text, "tlc").to_xml() != expected:
                mismatches.append(f"{name} (pure)")
        if numpy_available():
            with use_batch(True), use_numpy(True):
                if engine.run(text, "tlc").to_xml() != expected:
                    mismatches.append(f"{name} (numpy)")
    if mismatches:
        print(
            f"\nFAIL: batch runtime diverged from the per-tree path on "
            f"{', '.join(mismatches)}",
            file=sys.stderr,
        )
        return 1
    print(
        f"\nOK: batch sweep ({len(FIGURE15_ORDER)} queries, both "
        "backends) byte-identical to the per-tree path"
    )

    # stage 2: fresh before/after measurement vs the committed baseline
    current = compare_batch(factor=factor, repeats=repeats,
                            harness=harness)
    print(batch_table(current))
    findings = check_batch_against_baseline(current, baseline, threshold)
    if findings:
        print("\nFAIL: batch-runtime smoke check", file=sys.stderr)
        for finding in findings:
            print(f"  - {finding}", file=sys.stderr)
        return 1
    print(
        f"\nOK: batch speedup {current.speedup_geomean('pure'):.2f}x "
        f"pure (baseline {baseline.speedup_geomean('pure'):.2f}x, "
        f"threshold -{threshold:.0%})"
    )
    return 0


def check_planner(baseline_path: Path, factor: float | None,
                  repeats: int, threshold: float) -> int:
    """Byte-identity sweep plus the BENCH_9 regression gate; 0 iff OK."""
    from repro.bench import (
        PlannerReport,
        check_planner_against_baseline,
        compare_planner,
        planner_table,
    )
    from repro.bench.harness import Harness
    from repro.planner import use_planner
    from repro.xmark.queries import FIGURE15_ORDER, QUERIES

    baseline = PlannerReport.from_json(baseline_path.read_text())
    if factor is None:
        factor = baseline.factor
    harness = Harness()
    engine = harness.engine_for(factor)

    # stage 1: every query, planner off vs on, identical XML
    mismatches = []
    for name in FIGURE15_ORDER:
        text = QUERIES[name].text
        with use_planner(False):
            expected = engine.run(text, "tlc").to_xml()
        with use_planner(True):
            if engine.run(text, "tlc").to_xml() != expected:
                mismatches.append(name)
    if mismatches:
        print(
            f"\nFAIL: cost-based planning diverged from the static "
            f"plan shape on {', '.join(mismatches)}",
            file=sys.stderr,
        )
        return 1
    print(
        f"\nOK: planner sweep ({len(FIGURE15_ORDER)} queries) "
        "byte-identical to the static plans"
    )

    # stage 2: fresh static-vs-planned measurement vs the baseline.
    # The planner's committed edge is small (BENCH_9: 1.01x geomean),
    # so single-sample cells are noise-dominated on shared CI runners —
    # this stage always uses the BENCH_9 repeat-and-trim methodology.
    current = compare_planner(factor=factor, repeats=max(repeats, 3),
                              harness=harness)
    print(planner_table(current))
    findings = check_planner_against_baseline(current, baseline, threshold)
    if findings:
        print("\nFAIL: planner smoke check", file=sys.stderr)
        for finding in findings:
            print(f"  - {finding}", file=sys.stderr)
        return 1
    print(
        f"\nOK: planned speedup {current.speedup_geomean():.2f}x "
        f"(baseline {baseline.speedup_geomean():.2f}x, threshold "
        f"-{threshold:.0%}); join-order wins: "
        f"{', '.join(current.join_order_wins()) or 'none'}"
    )
    return 0


def check_process_pool(
    factor: float,
    workers: int,
    start_method: str | None,
    spans: bool = False,
) -> int:
    """Sweep all 23 queries through the process pool; 0 iff identical.

    With ``spans=True`` the sweep runs traced: every request must leave
    a span capture that crossed the worker boundary, and the combined
    Chrome-trace export must satisfy the schema checker.
    """
    from repro.bench.harness import Harness
    from repro.service import QueryService
    from repro.xmark.queries import FIGURE15_ORDER, QUERIES

    engine = Harness().engine_for(factor)
    expected = {
        name: engine.run(QUERIES[name].text, "tlc").to_xml()
        for name in FIGURE15_ORDER
    }
    mismatches = []
    with QueryService(
        engine,
        threads=workers,
        mode="process",
        start_method=start_method,
        spans=spans,
    ) as svc:
        pids = svc.prime()
        results = svc.execute_many(
            [QUERIES[name].text for name in FIGURE15_ORDER]
        )
        for name, result in zip(FIGURE15_ORDER, results):
            if result.to_xml() != expected[name]:
                mismatches.append(name)
        stats = svc.stats()
        captures = svc.span_store.tail(len(FIGURE15_ORDER))
    if mismatches:
        print(
            f"\nFAIL: process-pool sweep diverged from serial on "
            f"{', '.join(mismatches)}"
            + (" (spans enabled)" if spans else ""),
            file=sys.stderr,
        )
        return 1
    print(
        f"\nOK: process-pool sweep ({len(expected)} queries, "
        f"{len(pids)} workers, {svc.start_method}"
        + (", spans on" if spans else "")
        + ") byte-identical to "
        f"serial; {stats.executed} executed, {stats.failed} failed"
    )
    if spans:
        from repro.telemetry.spans import check_chrome_trace, to_chrome_trace

        if len(captures) != len(FIGURE15_ORDER):
            print(
                f"\nFAIL: {len(captures)} span captures for "
                f"{len(FIGURE15_ORDER)} traced requests",
                file=sys.stderr,
            )
            return 1
        missing = [
            capture.trace_id
            for capture in captures
            if "worker.execute" not in {s.name for s in capture.spans}
        ]
        if missing:
            print(
                f"\nFAIL: captures without worker-side spans: "
                f"{', '.join(missing)}",
                file=sys.stderr,
            )
            return 1
        problems = check_chrome_trace(to_chrome_trace(captures))
        if problems:
            print("\nFAIL: Chrome-trace export is malformed",
                  file=sys.stderr)
            for problem in problems:
                print(f"  - {problem}", file=sys.stderr)
            return 1
        print(
            f"OK: {len(captures)} span captures crossed the worker "
            "boundary; Chrome-trace export passes the schema check"
        )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--factor",
        type=float,
        default=None,
        help="XMark scale factor (default: each baseline's own factor; "
        f"{DEFAULT_FACTOR} for the --mode process stage)",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=1,
        help="measurement repeats per cell (default 1: a smoke check)",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=float(os.environ.get("REPRO_BENCH_THRESHOLD", "0.25")),
        help="allowed fractional regression vs a committed baseline",
    )
    parser.add_argument(
        "--batch-baseline",
        default=None,
        help="committed batch-runtime baseline (e.g. BENCH_8.json): "
        "also run the batch byte-identity sweep and regression gate",
    )
    parser.add_argument(
        "--planner-baseline",
        default=None,
        help="committed planner baseline (e.g. BENCH_9.json): also run "
        "the planner byte-identity sweep and regression gate",
    )
    parser.add_argument(
        "--mode",
        choices=("thread", "process"),
        default="thread",
        help="process: also sweep all 23 queries through the "
        "process-pool service and require byte-identity with serial",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=2,
        help="worker processes for the --mode process stage (default 2)",
    )
    parser.add_argument(
        "--start-method",
        choices=("fork", "spawn"),
        default=None,
        help="start method for the --mode process stage "
        "(default: platform's)",
    )
    parser.add_argument(
        "--spans",
        action="store_true",
        help="with --mode process: run the sweep traced and validate "
        "the Chrome-trace export of every request's span capture",
    )
    args = parser.parse_args(argv)

    if args.batch_baseline:
        batch_baseline = Path(args.batch_baseline)
        if not batch_baseline.exists():
            print(
                f"error: batch baseline {batch_baseline} not found",
                file=sys.stderr,
            )
            return 1
        status = check_batch(
            batch_baseline, args.factor, args.repeats, args.threshold
        )
        if status:
            return status
    if args.planner_baseline:
        planner_baseline = Path(args.planner_baseline)
        if not planner_baseline.exists():
            print(
                f"error: planner baseline {planner_baseline} not found",
                file=sys.stderr,
            )
            return 1
        status = check_planner(
            planner_baseline, args.factor, args.repeats, args.threshold
        )
        if status:
            return status
    if args.mode == "process":
        factor = args.factor if args.factor is not None else DEFAULT_FACTOR
        return check_process_pool(
            factor, args.workers, args.start_method, spans=args.spans
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
