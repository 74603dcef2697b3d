"""CI smoke check for the process-pool service.

With ``--mode process`` the full 23-query sweep is executed through the
process-pool service (``--workers`` workers, ``--start-method`` fork or
spawn) and every result is compared byte-for-byte against a serial
in-process run — the equivalence oracle that lets the execution
substrate change under the queries.  CI runs this stage under both
start methods.  Adding ``--spans`` runs the same sweep with
request-span recording armed: results must stay byte-identical, every
request must leave a capture carrying the worker-side phases, and the
combined Chrome-trace export must pass
:func:`repro.telemetry.spans.check_chrome_trace`.

Timing is not this script's business: the repository's benchmark is
``benchmarks/layers/run.py``.

Usage::

    PYTHONPATH=src python benchmarks/bench_smoke.py \
        --mode process --workers 2 --start-method spawn
"""

from __future__ import annotations

import argparse
import sys

from repro.bench import DEFAULT_FACTOR


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
        default=DEFAULT_FACTOR,
        help=f"XMark scale factor (default {DEFAULT_FACTOR})",
    )
    parser.add_argument(
        "--mode",
        choices=("thread", "process"),
        default="thread",
        help="process: sweep all 23 queries through the process-pool "
        "service and require byte-identity with serial",
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

    if args.mode == "process":
        return check_process_pool(
            args.factor, args.workers, args.start_method, spans=args.spans
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
