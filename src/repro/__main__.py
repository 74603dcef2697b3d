"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``generate`` — build a synthetic XMark document and save it (XML or the
  binary TLCDB format);
* ``query``    — run an XQuery (from a file or inline) against a document,
  under any engine, optionally with the Section 4 rewrites;
* ``bench``    — regenerate one of the paper's figures;
* ``explain``  — print the algebraic plan for a query;
* ``lint``     — statically check a query's TLC plan with the LC-flow
  analyzer (no document needed; exits 1 on error diagnostics);
* ``profile``  — EXPLAIN ANALYZE: run a query with the runtime tracer
  and print the plan annotated with per-operator wall time,
  cardinalities and work-counter deltas; ``--spans`` runs it through
  the traced service instead and prints the request's span tree as
  Chrome-trace-event JSON (load in Perfetto / ``chrome://tracing``);
* ``prepare``  — compile a query through the service's prepared-plan
  cache and report what the cache would save on re-execution;
* ``serve``    — run queries from stdin through the concurrent
  :class:`~repro.service.QueryService` (plan cache, thread pool,
  deadlines), one query per line; ``--http`` exposes ``/metrics``,
  ``/stats``, ``/healthz``, ``/slow``, ``/trace`` and ``/workers``
  while serving, ``--slow-ms`` arms slow-query capture, ``--spans``
  records a span tree per request, ``--query-log`` appends one JSON
  line per request;
* ``stats``    — summarise a query-log JSONL file (or fetch ``/stats``
  from a running ``serve --http``): request counts by status/engine,
  cache hits, latency percentiles; ``--workers`` fetches the
  per-worker-process introspection instead;
* ``tail``     — print the newest query-log events; ``--slow`` shows
  only slow queries with each capture's hottest operators.

Every command is documented with copy-pasteable invocations in
``docs/CLI.md``.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from . import Engine
from .errors import ReproError
from .storage.persist import load_database, save_database
from .telemetry.querylog import newest
from .xmark.generator import XMarkGenerator


def _factor(text: str) -> float:
    """An XMark scale factor, range-checked by the generator itself
    (argparse reports the error as a usage error)."""
    try:
        factor = float(text)
        XMarkGenerator(factor)
    except ValueError as error:
        raise argparse.ArgumentTypeError(
            f"bad XMark factor {text!r}: {error}"
        ) from None
    return factor


def _count(text: str) -> int:
    """A non-negative event count."""
    count = int(text)
    if count < 0:
        raise argparse.ArgumentTypeError(f"count must be >= 0, got {count}")
    return count


def _open_engine(source: str) -> Engine:
    """Build an engine from an .xml, .tlcdb, or xmark:<factor> source."""
    if source.startswith("xmark:"):
        try:
            factor = _factor(source.split(":", 1)[1])
        except argparse.ArgumentTypeError as error:
            raise ReproError(str(error)) from None
        engine = Engine()
        engine.load_xmark(factor=factor)
        return engine
    path = Path(source)
    if path.suffix == ".tlcdb":
        return Engine(load_database(path))
    engine = Engine()
    engine.load_xml("auction.xml", path.read_text())
    return engine


def cmd_generate(args: argparse.Namespace) -> int:
    generator = XMarkGenerator(factor=args.factor, seed=args.seed)
    out = Path(args.output)
    if out.suffix == ".tlcdb":
        from .storage.database import Database

        db = Database()
        generator.load_into(db)
        save_database(db, out)
    else:
        out.write_text(generator.generate_xml())
    print(f"wrote XMark factor {args.factor} to {out}")
    return 0


def _read_query(args: argparse.Namespace) -> str:
    if args.query_file:
        return Path(args.query_file).read_text()
    if args.query:
        return args.query
    return sys.stdin.read()


def cmd_query(args: argparse.Namespace) -> int:
    engine = _open_engine(args.document)
    query = _read_query(args)
    engine.db.reset_metrics()
    started = time.perf_counter()
    result = engine.run(query, engine=args.engine, optimize=args.optimize)
    seconds = time.perf_counter() - started
    for tree in result:
        print(tree.to_xml())
    if args.stats:
        counters = engine.db.metrics.snapshot()
        print(
            f"-- {len(result)} trees in {seconds * 1000:.1f} ms | "
            f"pages={counters['pages_read']} "
            f"nodes={counters['nodes_touched']} "
            f"sjoins={counters['structural_joins']} "
            f"groupbys={counters['groupby_ops']} "
            f"navsteps={counters['navigation_steps']} "
            f"cachehits={counters['scan_cache_hits']} "
            f"reused={counters['postings_reused']}",
            file=sys.stderr,
        )
    return 0


def cmd_explain(args: argparse.Namespace) -> int:
    engine = _open_engine(args.document)
    query = _read_query(args)
    translation = engine.plan(query, args.engine, args.optimize)
    if args.lint:
        if args.engine != "tlc":
            raise ReproError(
                "--lint needs LC-flow metadata, which only the tlc "
                "engine's operators carry"
            )
        from .analysis import analyze
        from .storage.stats import CardinalityStats

        stats = CardinalityStats.from_database(engine.db)
        print(analyze(translation.plan, stats).annotated_plan())
    elif args.dot:
        from .core.visualize import plan_to_dot

        print(plan_to_dot(translation.plan))
    else:
        print(translation.explain())
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    from .rewrites.pipeline import optimize_plan
    from .xquery.translator import translate_query

    if args.inline_query and (args.query or args.query_file):
        raise ReproError("give the query either inline or via -q/-f")
    query = args.inline_query or _read_query(args)
    translation = translate_query(query)
    if args.optimize:
        # verify=False: lint reports what the rewrites produced instead
        # of aborting on the first step that breaks the plan
        translation = optimize_plan(translation, verify=False)
    report = translation.lint()
    print(report.render())
    # exit-code contract: non-zero only at or above the --severity
    # threshold (errors by default; --severity warning gates on any
    # diagnostic at all)
    if args.severity == "warning":
        return 1 if report.diagnostics else 0
    return 0 if report.ok else 1


def cmd_profile(args: argparse.Namespace) -> int:
    if args.inline_query and (args.query or args.query_file):
        raise ReproError("give the query either inline or via -q/-f")
    query = args.inline_query or _read_query(args)
    engine = _open_engine(args.document)
    if getattr(args, "spans", False):
        return _profile_spans(args, engine, query)
    report = engine.measure(
        query,
        engine=args.engine,
        optimize=args.optimize,
        label="profile",
        strict=args.strict,
        trace=True,
    )
    trace = report.trace
    if args.json:
        import json

        from .trace import trace_to_json

        payload = trace_to_json(trace)
        payload["engine"] = report.engine
        payload["result_trees"] = report.result_trees
        payload["wall_seconds"] = round(report.seconds, 6)
        print(json.dumps(payload, indent=2, sort_keys=True))
    elif args.dot:
        from .trace import trace_to_dot

        print(trace_to_dot(trace, title=f"{args.engine} plan (traced)"))
    else:
        print(trace.render())
        print(
            f"-- query: {report.result_trees} trees in "
            f"{report.seconds * 1000:.1f} ms under {report.engine} "
            f"(wall time includes parse + translate)",
            file=sys.stderr,
        )
    return 0


def _profile_spans(args: argparse.Namespace, engine, query: str) -> int:
    """``profile --spans``: one traced request, Chrome-trace JSON out."""
    import json

    from .service import QueryService
    from .telemetry.spans import to_chrome_trace

    if args.json or args.dot:
        raise ReproError(
            "--spans emits Chrome-trace JSON already; it does not "
            "combine with --json or --dot"
        )
    mode = getattr(args, "mode", "thread") or "thread"
    with QueryService(
        engine,
        threads=1,
        mode=mode,
        strict=args.strict,
        spans=True,
    ) as svc:
        handle = svc.submit(
            query, engine=args.engine, optimize=args.optimize
        )
        result = handle.result()
        capture = svc.span_store.tail(1)[0]
    print(json.dumps(to_chrome_trace([capture]), indent=2, sort_keys=True))
    print(
        f"-- trace {capture.trace_id}: {len(capture.spans)} spans over "
        f"{len(result)} result trees under {mode} mode "
        "(load the JSON in Perfetto / chrome://tracing)",
        file=sys.stderr,
    )
    return 0


def cmd_prepare(args: argparse.Namespace) -> int:
    from .service import QueryService

    if args.inline_query and (args.query or args.query_file):
        raise ReproError("give the query either inline or via -q/-f")
    query = args.inline_query or _read_query(args)
    engine = _open_engine(args.document)
    with QueryService(engine, threads=1, strict=args.strict) as svc:
        started = time.perf_counter()
        prepared = svc.prepare(
            query, engine=args.engine, optimize=args.optimize
        )
        compile_ms = (time.perf_counter() - started) * 1000
        started = time.perf_counter()
        svc.prepare(query, engine=args.engine, optimize=args.optimize)
        cached_ms = (time.perf_counter() - started) * 1000
        if args.explain:
            print(prepared.explain())
        operators = sum(1 for _ in prepared.plan.walk())
        stats = svc.stats().cache
        print(
            f"prepared: {operators} operators under {args.engine}"
            + ("+opt" if args.optimize else "")
        )
        print(
            f"compile {compile_ms:.2f} ms cold, {cached_ms:.3f} ms cached "
            f"(cache {stats.hits} hits / {stats.misses} misses)"
        )
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    from .service import QueryService
    from .telemetry.querylog import QueryLog

    engine = _open_engine(args.document)
    query_log = (
        QueryLog(sink_path=args.query_log) if args.query_log else None
    )
    slow_threshold = (
        args.slow_ms / 1000.0 if args.slow_ms is not None else None
    )
    workers = args.workers if args.workers is not None else args.threads
    failures = 0
    with QueryService(
        engine,
        threads=workers,
        mode=args.mode,
        start_method=args.start_method,
        cache_size=args.cache_size,
        default_deadline=args.deadline,
        default_max_trees=args.max_trees,
        slow_threshold=slow_threshold,
        query_log=query_log,
        spans=True if args.spans else None,
    ) as svc:
        if args.mode == "process":
            pids = svc.prime()
            print(
                f"-- {len(pids)} worker processes up "
                f"({svc.start_method})",
                file=sys.stderr,
                flush=True,
            )
        server = None
        if args.http is not None:
            from .telemetry.http import ENDPOINTS, TelemetryServer

            server = TelemetryServer(svc, port=args.http)
            host, port = server.start()
            # announced before stdin is read, so a scraper holding the
            # stdin pipe open can find the endpoints while we serve
            print(
                f"-- telemetry on http://{host}:{port} "
                f"({' '.join(ENDPOINTS)})",
                file=sys.stderr,
                flush=True,
            )
        try:
            # submit as lines arrive: queries overlap on the pool while
            # stdin is still open (and the telemetry endpoints stay
            # scrapeable mid-stream)
            handles = []
            for line in sys.stdin:
                query = line.strip()
                if not query or query.startswith("#"):
                    continue
                handles.append(
                    svc.submit(
                        query, engine=args.engine, optimize=args.optimize
                    )
                )
            if not handles:
                print(
                    "serve: no queries on stdin (one per line)",
                    file=sys.stderr,
                )
                return 1
            for number, handle in enumerate(handles, 1):
                try:
                    result = handle.result()
                except ReproError as error:  # includes structured aborts
                    failures += 1
                    print(
                        f"-- query {number}: error: {error}",
                        file=sys.stderr,
                    )
                    continue
                print(
                    f"-- query {number}: {len(result)} trees",
                    file=sys.stderr,
                )
                for tree in result:
                    print(tree.to_xml())
            stats = svc.stats()
            unit = (
                "worker processes" if stats.mode == "process" else "threads"
            )
            print(
                f"-- served {stats.executed} queries on "
                f"{stats.threads} {unit}"
                f" | cache hits={stats.cache.hits}"
                f" misses={stats.cache.misses}"
                f" evictions={stats.cache.evictions}"
                f" | timeouts={stats.timeouts} failed={stats.failed}"
                f" slow={stats.slow_queries}",
                file=sys.stderr,
            )
            latency = stats.latency.get("all", {})
            if latency.get("count"):
                print(
                    f"-- latency p50={latency['p50_ms']} ms "
                    f"p95={latency['p95_ms']} ms "
                    f"p99={latency['p99_ms']} ms",
                    file=sys.stderr,
                )
        finally:
            if server is not None:
                server.close()
    return 1 if failures and args.strict_exit else 0


def _read_query_log(path: str) -> list:
    """Parse a query-log JSONL file into event dicts (newest last)."""
    import json

    events = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                events.append(json.loads(line))
            except ValueError as error:
                raise ReproError(
                    f"{path}: not a query-log JSONL file ({error})"
                ) from None
    return events


def _fetch_json(url: str) -> dict:
    import json
    from urllib.error import URLError
    from urllib.request import urlopen

    try:
        with urlopen(url, timeout=10) as response:
            return json.load(response)
    except URLError as error:
        raise ReproError(f"cannot reach {url}: {error}") from None


def _percentile_ms(values: list, q: float) -> float:
    """Exact percentile over a sorted list of millisecond latencies."""
    if not values:
        return 0.0
    rank = q * (len(values) - 1)
    low = int(rank)
    high = min(low + 1, len(values) - 1)
    frac = rank - low
    return round(values[low] + (values[high] - values[low]) * frac, 3)


def cmd_stats(args: argparse.Namespace) -> int:
    import json

    if args.workers:
        if not args.url:
            raise ReproError(
                "--workers reads live pool state; give --url of a "
                "running serve --http"
            )
        payload = _fetch_json(args.url.rstrip("/") + "/workers")
        if args.json:
            print(json.dumps(payload, indent=2, sort_keys=True))
            return 0
        method = payload.get("start_method")
        print(
            f"{payload.get('mode', '?')} mode, "
            f"{payload.get('threads', 0)} workers"
            + (f" ({method})" if method else "")
            + f" | in flight={payload.get('in_flight', 0)}"
            f" dispatched={payload.get('dispatched', 0)}"
        )
        for worker in payload.get("workers", []):
            plans = worker.get("plans") or {}
            load_ms = worker.get("snapshot_load_ms")
            load = (
                f"{float(load_ms):.1f} ms snapshot load"
                if load_ms is not None
                else "inherited database"
            )
            print(
                f"  pid {worker.get('pid')}: "
                f"{worker.get('requests', 0)} requests, "
                f"{len(plans)} plan hash(es) "
                f"({sum(plans.values())} executions), {load}, "
                f"{worker.get('sealed_objects', 0)} sealed objects"
            )
        if not payload.get("workers"):
            print("  (no worker processes: thread mode or none primed)")
        return 0
    if bool(args.log_file) == bool(args.url):
        raise ReproError("give exactly one of -f/--log-file or --url")
    if args.url:
        payload = _fetch_json(args.url.rstrip("/") + "/stats")
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    events = _read_query_log(args.log_file)
    by_status: dict = {}
    by_engine: dict = {}
    latencies = []
    slow = 0
    cache_hits = 0
    for event in events:
        by_status[event.get("status", "?")] = (
            by_status.get(event.get("status", "?"), 0) + 1
        )
        by_engine[event.get("engine", "?")] = (
            by_engine.get(event.get("engine", "?"), 0) + 1
        )
        latencies.append(float(event.get("ms", 0.0)))
        slow += 1 if event.get("slow") else 0
        cache_hits += 1 if event.get("cache_hit") else 0
    latencies.sort()
    summary = {
        "requests": len(events),
        "by_status": dict(sorted(by_status.items())),
        "by_engine": dict(sorted(by_engine.items())),
        "slow": slow,
        "cache_hits": cache_hits,
        "latency_ms": {
            "p50": _percentile_ms(latencies, 0.50),
            "p95": _percentile_ms(latencies, 0.95),
            "p99": _percentile_ms(latencies, 0.99),
            "max": latencies[-1] if latencies else 0.0,
        },
    }
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
        return 0
    print(f"{summary['requests']} requests ({slow} slow)")
    print(
        "status: "
        + " ".join(f"{k}={v}" for k, v in summary["by_status"].items())
    )
    print(
        "engine: "
        + " ".join(f"{k}={v}" for k, v in summary["by_engine"].items())
    )
    hit_rate = cache_hits / len(events) if events else 0.0
    print(f"plan-cache hits: {cache_hits} ({hit_rate:.0%})")
    lat = summary["latency_ms"]
    print(
        f"latency: p50={lat['p50']} ms p95={lat['p95']} ms "
        f"p99={lat['p99']} ms max={lat['max']} ms"
    )
    return 0


def _format_event(event: dict) -> str:
    mark = "SLOW " if event.get("slow") else ""
    error = f" | {event['error']}" if event.get("error") else ""
    return (
        f"{event.get('trace_id', '?')} {mark}{event.get('status', '?')}"
        f" {event.get('ms', 0.0):>9.3f} ms"
        f" {event.get('result_trees', 0):>6} trees"
        f" [{event.get('engine', '?')}"
        f"{'+opt' if event.get('optimize') else ''}"
        f"{' cached' if event.get('cache_hit') else ''}]"
        f" {event.get('query', '')}{error}"
    )


def _format_trace_summary(trace: dict, top: int = 3) -> str:
    """The hottest operators of a captured slow-query trace."""
    records = sorted(
        trace.get("records", []),
        key=lambda r: r.get("self_seconds", 0.0),
        reverse=True,
    )
    parts = [
        f"{r.get('name', '?')}={r.get('self_seconds', 0.0) * 1000:.2f}ms"
        for r in records[:top]
    ]
    return "hot operators: " + ", ".join(parts) if parts else ""


def cmd_tail(args: argparse.Namespace) -> int:
    if bool(args.log_file) == bool(args.url):
        raise ReproError("give exactly one of -f/--log-file or --url")
    if args.url:
        if not args.slow:
            raise ReproError(
                "--url serves the slow-query ring only; add --slow "
                "(full events live in the serve-side query log file)"
            )
        payload = _fetch_json(args.url.rstrip("/") + "/slow")
        events = payload.get("slow", [])
    else:
        events = _read_query_log(args.log_file)
        if args.slow:
            events = [e for e in events if e.get("slow")]
    for event in newest(events, args.count):
        print(_format_event(event))
        if args.slow and event.get("trace"):
            summary = _format_trace_summary(event["trace"])
            if summary:
                print(f"    {summary}")
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    from .bench import (
        Harness,
        counters_table,
        figure15_table,
        figure16_breakdown,
        figure16_table,
        figure17_table,
        operator_breakdown,
    )
    from .bench.verdicts import verdicts_table

    harness = Harness()
    trace = getattr(args, "trace", False)
    if trace and args.figure == "17":
        raise ReproError(
            "--trace breaks down Figures 15 and 16; Figure 17 has no "
            "per-operator report"
        )
    if args.figure != "15" and (args.queries or args.engines):
        raise ReproError("--queries and --engines select Figure 15's cells")
    if args.figure == "15":
        reports = harness.figure15(
            args.factor, args.queries, args.engines, args.repeats, trace
        )
        print(figure15_table(reports))
        if trace:
            for report in reports:
                if report.trace is not None:
                    print()
                    print(operator_breakdown(report))
    elif args.figure == "16":
        reports = harness.figure16(
            factor=args.factor, repeats=args.repeats, trace=trace
        )
        print(figure16_table(reports))
        if trace:
            print()
            print(figure16_breakdown(reports))
    else:
        reports = harness.figure17(factor=args.factor, repeats=args.repeats)
        print(figure17_table(reports))
    if args.figure != "17":  # Figure 17's table already has its counters
        print()
        print(counters_table(reports))
    print()
    print(verdicts_table(args.figure, reports))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro", description=__doc__
    )
    sub = parser.add_subparsers(dest="command", required=True)

    generate = sub.add_parser(
        "generate", help="generate a synthetic XMark document"
    )
    generate.add_argument("output", help=".xml or .tlcdb output path")
    generate.add_argument("--factor", type=_factor, default=0.01)
    generate.add_argument("--seed", type=int, default=20040613)
    generate.set_defaults(func=cmd_generate)

    for name, func in (("query", cmd_query), ("explain", cmd_explain)):
        command = sub.add_parser(
            name,
            help=f"{name} an XQuery against a document",
        )
        command.add_argument(
            "document",
            help=".xml file, .tlcdb file, or xmark:<factor>",
        )
        command.add_argument("-q", "--query", help="inline query text")
        command.add_argument("-f", "--query-file", help="query file")
        command.add_argument(
            "-e", "--engine", default="tlc",
            choices=("tlc", "gtp", "tax", "nav"),
        )
        command.add_argument(
            "-O", "--optimize", action="store_true",
            help="apply the Section 4 rewrites (TLC only)",
        )
        if name == "query":
            command.add_argument(
                "--stats", action="store_true",
                help="print timing and work counters to stderr",
            )
        else:
            # one rendering per run: naming two of them is a usage error
            view = command.add_mutually_exclusive_group()
            view.add_argument(
                "--dot", action="store_true",
                help="emit Graphviz DOT instead of the text rendering",
            )
            view.add_argument(
                "--lint", action="store_true",
                help="annotate each operator with its LC-flow "
                "(produced/consumed/live classes) and any diagnostics",
            )
        command.set_defaults(func=func)

    lint = sub.add_parser(
        "lint",
        help="statically check a query's TLC plan without running it",
    )
    lint.add_argument(
        "inline_query", nargs="?", default=None, metavar="query",
        help="the XQuery text (or use -q/-f/stdin)",
    )
    lint.add_argument("-q", "--query", help="inline query text")
    lint.add_argument("-f", "--query-file", help="query file")
    lint.add_argument(
        "-O", "--optimize", action="store_true",
        help="lint the plan after the Section 4 rewrites",
    )
    lint.add_argument(
        "--severity", choices=("error", "warning"), default="error",
        help="exit non-zero at this severity and above "
        "(default: error — warnings alone exit 0)",
    )
    lint.set_defaults(func=cmd_lint)

    profile = sub.add_parser(
        "profile",
        help="EXPLAIN ANALYZE: run a query and print its plan annotated "
        "with per-operator costs",
    )
    profile.add_argument(
        "inline_query", nargs="?", default=None, metavar="query",
        help="the XQuery text (or use -q/-f/stdin)",
    )
    profile.add_argument(
        "-d", "--document", default="xmark:0.002",
        help=".xml file, .tlcdb file, or xmark:<factor> "
        "(default: xmark:0.002)",
    )
    profile.add_argument("-q", "--query", help="inline query text")
    profile.add_argument("-f", "--query-file", help="query file")
    profile.add_argument(
        "-e", "--engine", default="tlc", choices=("tlc", "gtp", "tax"),
        help="algebraic engine to profile (nav has no operator plan)",
    )
    profile.add_argument(
        "-O", "--optimize", action="store_true",
        help="apply the Section 4 rewrites (TLC only)",
    )
    profile.add_argument(
        "--strict", action="store_true",
        help="lint the TLC plan with the static analyzer before running",
    )
    profile.add_argument(
        "--dot", action="store_true",
        help="emit annotated Graphviz DOT instead of the text tree",
    )
    profile.add_argument(
        "--json", action="store_true",
        help="emit the trace as JSON (trace_to_json payload) instead "
        "of the text tree",
    )
    profile.add_argument(
        "--spans", action="store_true",
        help="run the query through the traced service and emit the "
        "request's span tree as Chrome-trace-event JSON "
        "(Perfetto / chrome://tracing)",
    )
    profile.add_argument(
        "--mode", choices=("thread", "process"), default="thread",
        help="with --spans: execution backend — process adds the "
        "worker-side spans (serialize, IPC, execute) to the trace",
    )
    profile.set_defaults(func=cmd_profile)

    bench = sub.add_parser(
        "bench",
        help="regenerate one of the paper's figures",
    )
    bench.add_argument("figure", choices=("15", "16", "17"))
    bench.add_argument("--factor", type=_factor, default=0.002)
    bench.add_argument("--repeats", type=int, default=3)
    bench.add_argument(
        "--trace", action="store_true",
        help="per-operator breakdown (Figures 15 and 16): trace every "
        "run and attribute costs to individual operators",
    )
    for option, cells in (("--queries", "rows"), ("--engines", "columns")):
        bench.add_argument(
            option, type=lambda text: text.split(","),
            help=f"Figure 15 {cells}, comma-separated (default: all)",
        )
    bench.set_defaults(func=cmd_bench)

    prepare = sub.add_parser(
        "prepare",
        help="compile a query through the prepared-plan cache and "
        "report the compile cost the cache saves",
    )
    prepare.add_argument(
        "inline_query", nargs="?", default=None, metavar="query",
        help="the XQuery text (or use -q/-f/stdin)",
    )
    prepare.add_argument(
        "-d", "--document", default="xmark:0.002",
        help=".xml file, .tlcdb file, or xmark:<factor> "
        "(default: xmark:0.002)",
    )
    prepare.add_argument("-q", "--query", help="inline query text")
    prepare.add_argument("-f", "--query-file", help="query file")
    prepare.add_argument(
        "-e", "--engine", default="tlc", choices=("tlc", "gtp", "tax"),
        help="algebraic engine to prepare for (nav has no plan)",
    )
    prepare.add_argument(
        "-O", "--optimize", action="store_true",
        help="cache the plan after the Section 4 rewrites",
    )
    prepare.add_argument(
        "--strict", action="store_true",
        help="lint the TLC plan before it enters the cache",
    )
    prepare.add_argument(
        "--explain", action="store_true",
        help="also print the compiled plan",
    )
    prepare.set_defaults(func=cmd_prepare)

    serve = sub.add_parser(
        "serve",
        help="run queries from stdin (one per line) through the "
        "concurrent query service",
    )
    serve.add_argument(
        "document", help=".xml file, .tlcdb file, or xmark:<factor>"
    )
    serve.add_argument(
        "-e", "--engine", default="tlc", choices=("tlc", "gtp", "tax"),
    )
    serve.add_argument(
        "-O", "--optimize", action="store_true",
        help="apply the Section 4 rewrites (TLC only)",
    )
    serve.add_argument(
        "--threads", type=int, default=4,
        help="worker threads (default 4)",
    )
    serve.add_argument(
        "--mode", choices=("thread", "process"), default="thread",
        help="execution backend: thread (default) or process — worker "
        "processes each holding their own copy of the database, the "
        "mode that scales with cores",
    )
    serve.add_argument(
        "--workers", type=int, default=None,
        help="worker count for --mode process (defaults to --threads)",
    )
    serve.add_argument(
        "--start-method", choices=("fork", "spawn"), default=None,
        help="with --mode process: fork (workers inherit the database) "
        "or spawn (workers load a digest-verified snapshot); default "
        "picks the platform's",
    )
    serve.add_argument(
        "--cache-size", type=int, default=64,
        help="prepared-plan cache capacity (default 64)",
    )
    serve.add_argument(
        "--deadline", type=float, default=None,
        help="per-query wall-clock budget in seconds",
    )
    serve.add_argument(
        "--max-trees", type=int, default=None,
        help="per-query output-cardinality budget",
    )
    serve.add_argument(
        "--strict-exit", action="store_true",
        help="exit 1 when any query failed (default: report and exit 0)",
    )
    serve.add_argument(
        "--http", type=int, default=None, metavar="PORT",
        help="expose /metrics /stats /healthz /slow on this port "
        "(0 picks an ephemeral port; address printed to stderr)",
    )
    serve.add_argument(
        "--slow-ms", type=float, default=None, metavar="MS",
        help="slow-query threshold in milliseconds: slower requests "
        "are logged and capture an EXPLAIN ANALYZE trace",
    )
    serve.add_argument(
        "--query-log", default=None, metavar="PATH",
        help="append one JSON line per request to this file "
        "(read back with 'stats -f' / 'tail -f')",
    )
    serve.add_argument(
        "--spans", action="store_true",
        help="record a span tree per request (parse, plan, queue, "
        "dispatch, worker execute, merge) served at /trace/<id> as "
        "Chrome-trace JSON; default follows REPRO_SPANS",
    )
    serve.set_defaults(func=cmd_serve)

    stats = sub.add_parser(
        "stats",
        help="summarise a query-log JSONL file, or fetch /stats from "
        "a running serve --http",
    )
    stats.add_argument(
        "-f", "--log-file", default=None,
        help="query-log JSONL file written by serve --query-log",
    )
    stats.add_argument(
        "--url", default=None,
        help="base URL of a running serve --http (fetches /stats)",
    )
    stats.add_argument(
        "--json", action="store_true",
        help="print the aggregate as JSON instead of text",
    )
    stats.add_argument(
        "--workers", action="store_true",
        help="with --url: fetch /workers instead — per-worker-process "
        "requests served, plans cached, snapshot load time",
    )
    stats.set_defaults(func=cmd_stats)

    tail = sub.add_parser(
        "tail",
        help="print the newest query-log events (or the slow-query "
        "ring of a running serve --http)",
    )
    tail.add_argument(
        "-f", "--log-file", default=None,
        help="query-log JSONL file written by serve --query-log",
    )
    tail.add_argument(
        "--url", default=None,
        help="base URL of a running serve --http (fetches /slow; "
        "requires --slow)",
    )
    tail.add_argument(
        "-n", "--count", type=_count, default=20,
        help="events to show (default 20)",
    )
    tail.add_argument(
        "--slow", action="store_true",
        help="only slow events, with each capture's hottest operators",
    )
    tail.set_defaults(func=cmd_tail)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except FileNotFoundError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
