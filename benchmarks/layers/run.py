#!/usr/bin/env python3
"""The repo's benchmark: five workloads, end-to-end metrics, a layer trace.

    python benchmarks/layers/run.py                      # all five, untraced
    python benchmarks/layers/run.py --traced             # all five, per-layer
    python benchmarks/layers/run.py --workload xmark_paths --seed 7
    python benchmarks/layers/run.py --aa --out out/aa.json
    python benchmarks/layers/run.py --quick [--traced]   # smoke the harness

With ``--workload`` the run happens in this process and the last line of
standard output is the driver's JSON object; without it every workload
runs in its own fresh subprocess.  See README.md for what each metric
means and ``BENCHMARK.json`` (the one declaration of names, units and
bounds — this script refuses to report a name it does not declare).
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
SETUP_REPEATS = 3
#: Work counters that must repeat exactly between two runs of one
#: commit (``--aa --traced`` checks them); ``runtime.gc2_collections``
#: only where a single thread allocates.
EXACT = (
    "patterns.pattern_matches", "patterns.scan_cache_hits",
    "physical.structural_joins", "physical.nest_joins",
    "physical.value_joins", "physical.sort_ops",
    "storage.index_entries_scanned", "storage.pages_read",
    "columns.batch_ops", "columns.batch_rows", "model.trees_built",
    "service.cache_evictions", "planner.reorders",
)
SINGLE_THREADED = ("xmark_paths", "xmark_nested", "compile_cold")


def load_declaration() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as stream:
        declared = json.load(stream)
    names = [w["name"] for w in declared["workloads"]]
    for group in ("end_to_end", "per_layer"):
        names += [m["name"] for m in declared[group]]
    bad = [n for n in names if not NAME_RE.match(n)]
    if bad or len(set(names)) != len(names):
        raise SystemExit(f"BENCHMARK.json: malformed or repeated names {bad}")
    return declared


class GcWatch:
    """Generation-2 collections and their pause time, via gc.callbacks."""

    def __init__(self) -> None:
        self.pauses: List[tuple] = []  # (start, end), in time order
        self._started: Optional[float] = None
        gc.callbacks.append(self)

    def __call__(self, phase: str, info: dict) -> None:
        if info["generation"] != 2:
            return
        if phase == "start":
            self._started = time.perf_counter()
        elif self._started is not None:
            self.pauses.append((self._started, time.perf_counter()))
            self._started = None

    def window(self, fn):
        """Run ``fn``; return its result and the window's gc2 metrics."""
        first = len(self.pauses)
        started = time.perf_counter()
        result = fn()
        wall = time.perf_counter() - started
        pause = sum(end - start for start, end in self.pauses[first:])
        return result, {
            "runtime.gc2_pause_s": pause,
            "runtime.gc2_collections": len(self.pauses) - first,
            "runtime.gc2_share": pause / wall,
        }


def percentile(ordered: List[float], q: float) -> float:
    """Linear interpolation between closest ranks."""
    position = (len(ordered) - 1) * q
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def latency_percentiles(samples) -> Dict[str, float]:
    """Gross latency percentiles over all operations.  Demoted from the
    end-to-end list (README, *Demoted metrics*): reported per layer."""
    latencies = sorted(samples.seconds())
    return {
        "e2e.lat_p50_ms": percentile(latencies, 0.50) * 1000,
        "e2e.lat_p95_ms": percentile(latencies, 0.95) * 1000,
    }


def end_to_end(samples, pauses, setup_s: float) -> Dict[str, float]:
    medians = [
        statistics.median(v) for v in samples.net_by_name(pauses).values()
    ]
    usage = resource.getrusage
    rss_kb = (
        usage(resource.RUSAGE_SELF).ru_maxrss
        + usage(resource.RUSAGE_CHILDREN).ru_maxrss  # largest reaped child
    )
    return {
        "setup_s": setup_s,
        "ops_per_s": (len(samples.rows) - samples.failed) / samples.wall,
        "sweep_s": sum(medians),
        "geomean_ms": statistics.geometric_mean(medians) * 1000,
        "peak_rss_mb": rss_kb / 1024,
    }


def environment() -> dict:
    import workloads

    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10,
                capture_output=True, text=True,
            ).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass

    def flags():
        from repro.bench.env import runtime_flags

        return runtime_flags()

    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": commit,
        "runtime_flags": workloads.optional("runtime_flags", flags),
    }


# ---------------------------------------------------------------------------
# one workload, in this process
# ---------------------------------------------------------------------------
def run_plain(workload, watch: GcWatch) -> dict:
    setups = []
    for _ in range(1 if workload.quick else SETUP_REPEATS):
        workload.teardown()
        started = time.perf_counter()
        workload.build()
        setups.append(time.perf_counter() - started)
    problems = workload.ensure_references()  # outside every timer
    started = time.perf_counter()
    workload.warmup()
    warm = time.perf_counter() - started
    samples, gc2 = watch.window(workload.measure)
    workload.teardown()  # reaps worker processes before RSS is read
    return {
        "samples": samples,
        "problems": problems,
        "metrics": end_to_end(
            samples, watch.pauses, statistics.median(setups) + warm
        ),
        "extras": {**gc2, **latency_percentiles(samples)},
    }


def run_traced(workload, watch: GcWatch) -> dict:
    import workloads
    from tracing import SpanLog, check_nesting

    log, layer = SpanLog(), {}
    workload.build_traced(log, layer)
    problems = workload.ensure_references()
    workload.warmup()
    (plain, traced), gc2 = watch.window(lambda: workload.traced(log, layer))
    workload.teardown()
    layer.update(gc2)
    layer.update(latency_percentiles(plain))
    layer["trace.overhead_ratio"] = (traced.wall / len(traced.rows)) / (
        plain.wall / len(plain.rows)
    )
    if workload.spec.kind != "compile":  # there a sample is a compile
        for name, values in plain.net_by_name(watch.pauses).items():
            layer[f"query.{name}.ms"] = statistics.median(values) * 1000
    problems += check_nesting(log.spans)
    workloads.OUT_DIR.mkdir(exist_ok=True)
    path = workloads.OUT_DIR / f"trace-{workload.spec.name}.json"
    with open(path, "w", encoding="utf-8") as stream:
        json.dump(
            {
                "workload": workload.spec.name,
                "seed": workload.seed,
                "spans": log.spans,
                "captures": workload.captures,
            },
            stream,
        )
    plain.extend(traced)
    return {
        "samples": plain,
        "problems": problems,
        "metrics": layer,
        "extras": {"spans": len(log.spans), "trace_file": str(path)},
    }


def run_one(args, declared: dict) -> int:
    try:
        import checks
        import workloads
    except ImportError as error:
        print(f"cannot import the program under test: {error}", file=sys.stderr)
        return 2
    if set(workloads.SPECS) != {w["name"] for w in declared["workloads"]}:
        raise SystemExit("workload names differ from BENCHMARK.json")

    group = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in declared[group]}
    workload = workloads.make(
        args.workload, args.seed, args.seconds, args.quick,
        checks.load_expected(),
    )
    watch = GcWatch()
    try:
        outcome = (run_traced if args.trace else run_plain)(workload, watch)
    except workloads.SetupFailure as failure:
        print(f"set-up failed: {failure}", file=sys.stderr)
        return 2
    finally:
        workload.teardown()

    measured = outcome["metrics"]
    undeclared = sorted(set(measured) - set(units))
    missing = [] if args.trace else sorted(set(units) - set(measured))
    if undeclared or missing:
        raise SystemExit(
            f"metric names differ from BENCHMARK.json {group}: "
            f"undeclared {undeclared}, missing {missing}"
        )
    samples = outcome["samples"]
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "quick": args.quick,
        "units_of_work": workload.units,
        "attempted": len(samples.rows),
        "failed": samples.failed,
        "failed_share": samples.failed / len(samples.rows),
        "correct": samples.failed == 0 and not outcome["problems"],
        "problems": outcome["problems"],
        "warnings": workloads.warnings,
        "extras": outcome["extras"],
        "metrics": {
            name: {"value": measured.get(name), "unit": unit}
            for name, unit in units.items()
        },
    }
    print_report(report)
    if args.out:
        write_json(args.out, {"env": environment(),
                              "workloads": {args.workload: report}})
    # the driver's line: every declared metric of the group, as a
    # number (a layer this workload does not exercise reads 0)
    print(json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {
            name: {"value": entry["value"] or 0, "unit": entry["unit"]}
            for name, entry in report["metrics"].items()
        },
    }))
    return 0


def print_report(report: dict) -> None:
    print(
        f"== {report['workload']}  seed={report['seed']} "
        f"trace={report['trace']} samples={report['attempted']} "
        f"failed={report['failed']} failed_share={report['failed_share']:.4f}"
    )
    for problem in report["problems"]:
        print(f"   PROBLEM: {problem}")
    for name, entry in report["metrics"].items():
        value = entry["value"]
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"   {name:<36} {shown:>12} {entry['unit']}")
    for name, value in report["extras"].items():
        print(f"   ({name} = {value})")


def write_json(path: str, payload: dict) -> None:
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    with open(target, "w", encoding="utf-8") as stream:
        json.dump(payload, stream, indent=1)
        stream.write("\n")


# ---------------------------------------------------------------------------
# all workloads, one fresh subprocess each
# ---------------------------------------------------------------------------
def run_all(args, declared: dict, order: List[str]) -> Dict[str, dict]:
    import workloads

    workloads.OUT_DIR.mkdir(exist_ok=True)
    reports: Dict[str, dict] = {}
    for name in order:
        part = workloads.OUT_DIR / f"report-{name}-{os.getpid()}.json"
        command = [
            sys.executable, str(HERE / "run.py"), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--out", str(part),
        ] + (["--quick"] if args.quick else [])
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(done.stdout.rsplit("\n", 2)[0] + "\n")
        if done.returncode != 0:
            raise SystemExit(f"{name}: exit code {done.returncode}")
        with open(part, encoding="utf-8") as stream:
            reports[name] = json.load(stream)["workloads"][name]
        part.unlink()
    if args.trace:
        produced = {
            metric
            for report in reports.values()
            for metric, entry in report["metrics"].items()
            if entry["value"] is not None
        }
        never = sorted(
            {m["name"] for m in declared["per_layer"]} - produced
        )
        if never and len(order) == len(declared["workloads"]):
            raise SystemExit(f"declared but never measured: {never}")
    return reports


def run_aa(args, declared: dict, order: List[str]) -> int:
    """The same code twice, workload order reversed the second time."""
    first = run_all(args, declared, order)
    second = run_all(args, declared, order[::-1])
    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}
    floor: Dict[str, Dict[str, float]] = {}
    violations = []
    print("== A/A: relative difference of two runs of the same code")
    for name in order:
        a, b = first[name]["metrics"], second[name]["metrics"]
        if args.trace:
            exact = [
                m for m in EXACT + (
                    ("runtime.gc2_collections",)
                    if name in SINGLE_THREADED else ()
                )
                if a[m]["value"] is not None
            ]
            for metric in exact:
                same = a[metric]["value"] == b[metric]["value"]
                print(f"   {name:<14} {metric:<32} "
                      f"{a[metric]['value']} vs {b[metric]['value']}"
                      f"{'' if same else '  DIFFERS'}")
                if not same:
                    violations.append((name, metric))
            continue
        floor[name] = {}
        for metric, bound in bounds.items():
            x, y = a[metric]["value"], b[metric]["value"]
            diff = abs(y - x) / x
            floor[name][metric] = diff
            verdict = "ok" if diff <= bound else "EXCEEDS BOUND"
            print(f"   {name:<14} {metric:<12} {x:>12.6g} {y:>12.6g} "
                  f"diff {diff:7.4f}  bound {bound:.2f}  {verdict}")
            if diff > bound:
                violations.append((name, metric))
    if args.out:
        write_json(args.out, {
            "env": environment(), "workloads": first, "second": second,
            "noise_floor": floor,
        })
    if violations:
        print(f"A/A violations: {violations}")
        return 1
    return 0


def regen_expected(declared: dict) -> int:
    """Rebuild expected.json; every digest is checked against the
    NAV/GTP reference first, and nothing is written on a mismatch."""
    import checks
    import workloads

    variants: Dict[str, dict] = {}
    problems: List[str] = []
    for variant in range(checks.VARIANTS):
        seed = checks.doc_seed(variant)
        variants[str(variant)] = {}
        for name in workloads.SPECS:
            started = time.perf_counter()
            workload = workloads.make(name, seed, 1.0, False, {})
            xml = workload.generate()
            workload.engine = workloads.Engine()
            workload.engine.load_xml(workloads.DOC, xml)
            problems += workload.ensure_references()
            variants[str(variant)][name] = {
                "factor": workload.factor,
                "doc": checks.digest(xml),
                "results": workload.want,
            }
            print(f"variant {variant} {name}: {len(workload.want)} results "
                  f"verified in {time.perf_counter() - started:.1f}s")
    if problems:
        print("\n".join(problems), file=sys.stderr)
        print("expected.json NOT written", file=sys.stderr)
        return 1
    checks.write_expected(variants)
    return 0


def pin_environment() -> None:
    """Shipped defaults and repeatable allocation.

    A ``REPRO_*`` toggle in the environment would silently measure
    another configuration, so they are dropped.  String hashing is
    randomised per process, which changes set/dict layouts and with
    them allocation counts and GC timing; the run re-executes itself
    once with ``PYTHONHASHSEED=0`` so that work counters and collection
    counts repeat exactly.
    """
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        sys.stdout.flush()
        os.execv(sys.executable, [sys.executable] + sys.argv)
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=20040613)
    parser.add_argument("--seconds", type=float, default=None,
                        help="sizes the fixed operation counts "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", dest="trace", action="store_const",
                        const=1, help="same as --trace 1")
    parser.add_argument("--aa", action="store_true")
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--out")
    parser.add_argument("--regen-expected", action="store_true")
    args = parser.parse_args()
    pin_environment()
    declared = load_declaration()
    if args.seconds is None:
        args.seconds = float(declared["run_seconds"])
    if args.workload:
        if args.workload not in {w["name"] for w in declared["workloads"]}:
            parser.error(f"unknown workload {args.workload!r}")
        return run_one(args, declared)

    if args.regen_expected:
        return regen_expected(declared)
    order = [w["name"] for w in declared["workloads"]]
    if args.aa:
        return run_aa(args, declared, order)
    reports = run_all(args, declared, order)
    if args.out:
        write_json(args.out, {"env": environment(), "workloads": reports})
    return 0 if all(r["correct"] for r in reports.values()) else 1


if __name__ == "__main__":  # process-mode workers re-import this file
    sys.exit(main())
