"""The five workloads: set-up, warm-up, measured loop and traced loop.

The measured (untraced) path drives only the facade — ``Engine.load_xml
/ run / plan / run_plan / service``, ``QueryService.execute / prepare /
prime / close`` and ``TreeSequence.to_xml`` — on the shipped defaults.
The traced path additionally calls each layer's public functions from
inside benchmark-owned spans and reads what the program already
reports (``PlanTrace``, ``db.metrics``, ``svc.stats()``, ``span_store``
captures).  An entry point a later change removes turns its metrics
into ``None`` with a warning (:func:`optional`), never into a crash.

Operation counts are fixed by ``--seconds`` (see :class:`Spec`), not by
a clock: two commits do identical work and work counters repeat
exactly; at the baseline the measured loop lasts about ``--seconds``.
"""

from __future__ import annotations

import bisect
import math
import random
import statistics
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro import Engine
from repro.xmark.generator import XMarkGenerator
from repro.xmark.queries import FIGURE15_ORDER, QUERIES
from repro.xquery.fuzz import sample_queries

import checks
from tracing import SpanLog, self_seconds_by_name

DOC = "auction.xml"
OUT_DIR = Path(__file__).with_name("out")
CLIENTS = 2
#: Operators the per-layer table names (``core.<Op>.*``).
OPERATORS = (
    "Select", "Aggregate", "Join", "Construct", "Project",
    "DuplicateElimination", "Filter", "Sort",
)
QUICK_FACTOR = 0.005

warnings: List[str] = []


def warn(message: str) -> None:
    warnings.append(message)
    print(f"warning: {message}", file=sys.stderr)


def optional(label: str, fn: Callable[[], object]):
    """Call a layer entry point the facade does not guarantee; a
    missing or re-shaped one yields ``None`` and a warning."""
    try:
        return fn()
    except (ImportError, AttributeError, TypeError, KeyError) as error:
        warn(f"{label} unavailable ({type(error).__name__}: {error})")
        return None


class SetupFailure(Exception):
    """The inputs themselves are wrong (reported once, before any op)."""


@dataclass(frozen=True)
class Spec:
    """One workload.  ``unit_seconds`` is the baseline cost of one unit
    of work (a pass over ``queries``, one request per client, one cycle
    over the compile texts): ``--seconds / unit_seconds`` units run."""

    name: str
    kind: str
    factor: float
    queries: Tuple[str, ...]
    unit_seconds: float
    mode: str = ""

    def units(self, seconds: float, quick: bool) -> int:
        if quick:
            return 25 if self.kind == "serve" else 1
        return max(1, round(seconds / self.unit_seconds))


SPECS: Dict[str, Spec] = {
    spec.name: spec
    for spec in (
        Spec(
            "xmark_paths", "xmark", 0.1,
            ("x1", "x2", "x4", "x6", "x7", "x13", "x14", "x15", "x16",
             "x17", "x18", "x19", "x20"),
            unit_seconds=1.7,
        ),
        Spec(
            "xmark_nested", "xmark", 0.02,
            ("x3", "x5", "x8", "x9", "x10", "x10a", "x11", "x12", "Q1",
             "Q2"),
            unit_seconds=2.6,
        ),
        Spec(
            "serve_thread", "serve", 0.02,
            ("x1", "x4", "x6", "x18", "x13", "x14", "x2", "x17"),
            unit_seconds=0.025, mode="thread",
        ),
        Spec(
            "serve_process", "serve", 0.02,
            ("x1", "x4", "x6", "x18", "x13", "x14", "x2", "x17"),
            unit_seconds=0.025, mode="process",
        ),
        Spec(
            "compile_cold", "compile", 0.002,
            tuple(FIGURE15_ORDER),
            unit_seconds=0.23,
        ),
    )
}


class Samples:
    """Measured operations ``(text name, start, seconds, ok)`` plus the
    wall time of the loop that produced them."""

    def __init__(self) -> None:
        self.rows: List[Tuple[str, float, float, bool]] = []
        self.wall = 0.0

    def add(self, name: str, start: float, seconds: float, ok: bool) -> None:
        self.rows.append((name, start, seconds, ok))

    def extend(self, other: "Samples") -> None:
        self.rows.extend(other.rows)
        self.wall += other.wall

    @property
    def failed(self) -> int:
        return sum(1 for row in self.rows if not row[3])

    def seconds(self) -> List[float]:
        return [row[2] for row in self.rows]

    def net_by_name(
        self, pauses: Sequence[Tuple[float, float]] = ()
    ) -> Dict[str, List[float]]:
        """Per text, each operation's seconds net of the generation-2
        GC pauses (sorted ``(start, end)``) that overlapped it.

        Allocation is deterministic, so a full collection lands inside
        the *same* query on every pass: a median over passes does not
        dodge it, and a one-line change elsewhere moves the pause to
        another query.  Per-query numbers are therefore taken net of
        the pauses; throughput and the latency percentiles keep them.
        """
        ends = [end for _, end in pauses]
        out: Dict[str, List[float]] = {}
        for name, start, seconds, _ in self.rows:
            stop = start + seconds
            index = bisect.bisect_right(ends, start)
            while index < len(pauses) and pauses[index][0] < stop:
                lo, hi = pauses[index]
                seconds -= min(hi, stop) - max(lo, start)
                index += 1
            out.setdefault(name, []).append(seconds)
        return out


def median_ms(values: List[float]) -> Optional[float]:
    return statistics.median(values) * 1000 if values else None


class PlanProfile:
    """Totals over traced ``run_plan`` calls: what ``PlanTrace`` reports
    per operator, plus the serialised result sizes."""

    def __init__(self) -> None:
        self.evaluate_s = 0.0
        self.serialize: List[float] = []
        self.result_bytes = 0
        self.result_trees = 0
        self.operators: Dict[str, List[float]] = {}  # name -> [self_s, rows]

    def add(self, result, xml: str, serialize_s: float) -> None:
        self.evaluate_s += result.trace.total_seconds
        self.serialize.append(serialize_s)
        self.result_bytes += len(xml)
        self.result_trees += len(result)
        for record in result.trace.records:
            totals = self.operators.setdefault(record.name, [0.0, 0])
            totals[0] += record.self_seconds
            totals[1] += record.output_card

    def metrics(self, layer: dict, passes: int = 1) -> None:
        """``core.*`` per pass, ``model.serialize_ms`` per operation."""
        for op in OPERATORS:
            self_s, rows = self.operators.get(op, (0.0, 0))
            layer[f"core.{op}.self_s"] = self_s / passes
            layer[f"core.{op}.rows"] = rows / passes
            layer[f"core.{op}.us_per_row"] = self_s / rows * 1e6 if rows else 0.0
        layer["core.evaluate_ms"] = self.evaluate_s / passes * 1000
        layer["model.serialize_ms"] = median_ms(self.serialize)


class Workload:
    """Shared set-up: the seeded document, its digests, the engine."""

    def __init__(
        self, spec: Spec, seed: int, seconds: float, quick: bool,
        expected: Dict[str, dict],
    ) -> None:
        self.spec = spec
        self.seed = seed
        self.quick = quick
        self.units = spec.units(seconds, quick)
        self.factor = min(spec.factor, QUICK_FACTOR) if quick else spec.factor
        self.texts: List[Tuple[str, str]] = [
            (name, QUERIES[name].text) for name in spec.queries
        ]
        #: run the TLC side with the Section 4 rewrites (compile_cold)
        self.optimize = False
        entry = expected.get(str(checks.variant_of(seed)), {}).get(spec.name)
        if entry is not None and entry["factor"] != self.factor:
            entry = None  # --quick: other factor, references computed
        self.expected: Optional[dict] = entry
        self.want: Dict[str, str] = dict(entry["results"]) if entry else {}
        self.engine: Optional[Engine] = None
        self.svc = None
        self.xml_bytes = 0
        #: the program's own span trees of the traced phase (serve_*)
        self.captures: List[dict] = []

    # -- set-up ---------------------------------------------------------
    def generate(self) -> str:
        xml = XMarkGenerator(
            self.factor, checks.doc_seed(self.seed)
        ).generate_xml()
        self.xml_bytes = len(xml)
        if self.expected and checks.digest(xml) != self.expected["doc"]:
            raise SetupFailure(
                f"{self.spec.name}: generated document digest differs "
                "from expected.json (XMarkGenerator changed? re-verify "
                "with run.py --regen-expected)"
            )
        return xml

    def build(self) -> None:
        """Generate, parse, index (and start the service): facade only."""
        self.engine = Engine()
        self.engine.load_xml(DOC, self.generate())
        self.start_service()

    def start_service(self) -> None:
        pass

    def teardown(self) -> None:
        if self.svc is not None:
            self.svc.close()
            self.svc = None

    def build_traced(self, log: SpanLog, layer: dict) -> None:
        """The same set-up, one layer call per span, plus the snapshot
        round trip spawn-mode workers would pay."""
        self.engine = Engine()
        with log.op("setup") as root:
            with log.span("xmark.generate"):
                xml = self.generate()
            parsed = optional("storage.parse_xml", lambda: _parse(log, xml))
            if parsed is None:
                self.engine.load_xml(DOC, xml)
            else:
                with log.span("storage.load_parsed"):
                    self.engine.db.load_parsed(DOC, parsed)
            optional("storage snapshot", lambda: self._snapshot(log, layer))
            with log.span("service.start"):
                self.start_service()
        own = self_seconds_by_name(
            [s for s in log.spans if s["op"] == root["op"]]
        )
        for name in (
            "xmark.generate", "storage.parse_xml", "storage.load_parsed",
            "storage.snapshot_write", "storage.snapshot_open",
        ):
            if name in own:
                layer[name + "_s"] = own[name][0]
        if self.svc is not None:
            layer["service.start_s"] = own["service.start"][0]
        if "storage.parse_xml_s" in layer:
            layer["storage.parse_mb_s"] = (
                self.xml_bytes / 1e6 / layer["storage.parse_xml_s"]
            )

    def _snapshot(self, log: SpanLog, layer: dict) -> None:
        from repro.storage.persist import open_snapshot, write_snapshot

        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"snapshot-{self.spec.name}.tlcdb"
        try:
            with log.span("storage.snapshot_write"):
                handle = write_snapshot(self.engine.db, path)
            layer["storage.snapshot_mb"] = path.stat().st_size / 1e6
            with log.span("storage.snapshot_open"):
                open_snapshot(handle)
        finally:
            path.unlink(missing_ok=True)

    # -- checking -------------------------------------------------------
    def ensure_references(self) -> List[str]:
        """Digests for every text: from ``expected.json``, else computed
        now against the NAV/GTP reference.  Returns the mismatches."""
        problems = []
        for name, text in self.texts:
            if name in self.want:
                continue
            found, reason = checks.verified_digest(
                self.engine, name, text, self.optimize
            )
            if found is None:
                problems.append(reason)
                found = "reference-mismatch"
            self.want[name] = found
        return problems

    def ok(self, name: str, xml: str) -> bool:
        return checks.digest(xml) == self.want[name]

    # -- shared probes (traced runs) --------------------------------------
    def profile_plans(self, log: SpanLog, plans, profile: "PlanProfile") -> Samples:
        """One traced pass: ``run_plan(trace=True)`` per plan, operator
        records laid under the ``core.evaluate`` span.  ``plans`` yields
        ``(name, make_plan)``."""
        samples = Samples()
        started = time.perf_counter()
        for name, make_plan in plans:
            with log.op(name) as root:
                with log.span("compile"):
                    plan = make_plan()
                with log.span("core.evaluate") as evaluate:
                    result = self.engine.run_plan(plan, trace=True)
                log.place_operators(evaluate, result.trace)
                with log.span("model.serialize") as serialize:
                    xml = result.to_xml()
            samples.add(
                name, root["start"], root["end"] - root["start"],
                self.ok(name, xml),
            )
            profile.add(result, xml, serialize["end"] - serialize["start"])
        samples.wall = time.perf_counter() - started
        return samples

    def counter_metrics(self, delta: Dict[str, int], layer: dict) -> int:
        """Work counters of the counted segment (exact on the
        single-threaded workloads); returns ``nodes_touched``."""
        get = lambda key: delta.get(key, 0)  # noqa: E731
        for layer_name, key in (
            ("patterns.pattern_matches", "pattern_matches"),
            ("patterns.scan_cache_hits", "scan_cache_hits"),
            ("physical.structural_joins", "structural_joins"),
            ("physical.nest_joins", "nest_joins"),
            ("physical.value_joins", "value_joins"),
            ("physical.sort_ops", "sort_ops"),
            ("storage.index_entries_scanned", "index_entries_scanned"),
            ("storage.pages_read", "pages_read"),
            ("columns.batch_ops", "batch_ops"),
            ("columns.batch_rows", "batch_rows"),
            ("model.trees_built", "trees_built"),
        ):
            layer[layer_name] = get(key)
        reads = get("buffer_hits") + get("pages_read")
        layer["storage.buffer_hit_rate"] = (
            get("buffer_hits") / reads if reads else 0.0
        )
        batch = get("batch_ops") + get("batch_fallbacks")
        layer["columns.fallback_share"] = (
            get("batch_fallbacks") / batch if batch else 0.0
        )
        return get("nodes_touched")

    def join_probe(self, layer: dict) -> None:
        """Timed calls of the structural joins on index postings."""
        from repro.physical import nest_join, pair_join

        db = self.engine.db

        def timed(join, parent_tag, child_tag, axis):
            parents = db.tag_lookup(DOC, parent_tag)
            children = db.tag_lookup(DOC, child_tag)
            times = []
            for _ in range(5):
                started = time.perf_counter()
                out = join(parents, children, axis)
                times.append(time.perf_counter() - started)
            return statistics.median(times), len(parents), len(out)

        seconds, _, pairs = timed(pair_join, "open_auction", "bidder", "ad")
        layer["physical.pair_join_us_per_pair"] = seconds / max(1, pairs) * 1e6
        seconds, parents, _ = timed(nest_join, "person", "profile", "pc")
        layer["physical.nest_join_us_per_parent"] = (
            seconds / max(1, parents) * 1e6
        )


def _parse(log: SpanLog, xml: str):
    from repro.storage import parse_xml

    with log.span("storage.parse_xml"):
        return parse_xml(xml)


# ---------------------------------------------------------------------------
# xmark_paths / xmark_nested: Engine.run(q).to_xml(), single-threaded
# ---------------------------------------------------------------------------
class XMarkWorkload(Workload):
    def __init__(self, *args) -> None:
        super().__init__(*args)
        # Each measured pass runs the queries in a fresh seeded order.
        # Full collections fall at fixed allocation counts; in a fixed
        # order they would hit the same queries on every pass and the
        # latency percentiles would jump whenever an unrelated change
        # shifted that alignment.
        self.order = random.Random(self.seed)

    def run_pass(self, shuffle: bool = True) -> Samples:
        samples = Samples()
        run = self.engine.run
        texts = list(self.texts)
        if shuffle:
            self.order.shuffle(texts)
        started = time.perf_counter()
        for name, text in texts:
            t0 = time.perf_counter()
            xml = run(text).to_xml()
            seconds = time.perf_counter() - t0
            samples.add(name, t0, seconds, self.ok(name, xml))
        samples.wall = time.perf_counter() - started
        return samples

    def warmup(self) -> None:
        self.run_pass(shuffle=False)

    def measure(self) -> Samples:
        samples = Samples()
        for _ in range(self.units):
            samples.extend(self.run_pass())
        return samples

    def traced(self, log: SpanLog, layer: dict) -> Tuple[Samples, Samples]:
        """Alternate plain and traced passes (half the units each)."""
        passes = max(1, math.ceil(self.units / 2))
        plain, traced, profile = Samples(), Samples(), PlanProfile()
        metrics = self.engine.db.metrics
        plans = [
            (name, lambda text=text: self.engine.plan(text).plan)
            for name, text in self.texts
        ]
        for index in range(passes):
            plain.extend(self.run_pass())
            before = metrics.snapshot()
            traced.extend(self.profile_plans(log, plans, profile))
            if index == 0:  # the counted segment: first traced pass
                touched = self.counter_metrics(metrics.diff(before), layer)
                layer["patterns.nodes_per_result"] = touched / max(
                    1, profile.result_trees
                )
                layer["model.result_mb"] = profile.result_bytes / 1e6
        profile.metrics(layer, passes)
        optional("physical join probe", lambda: self.join_probe(layer))
        return plain, traced


# ---------------------------------------------------------------------------
# serve_thread / serve_process: two closed-loop clients over hot texts
# ---------------------------------------------------------------------------
class ServeWorkload(Workload):
    def service(self, **kwargs):
        return self.engine.service(
            threads=CLIENTS, mode=self.spec.mode, **kwargs
        )

    def start_service(self) -> None:
        self.svc = self.service()
        self.svc.prime()

    def sequences(self, count: int) -> List[List[Tuple[str, str]]]:
        """Each client's fixed request sequence (seeded per client)."""
        out = []
        for client in range(CLIENTS):
            rng = random.Random(self.seed * CLIENTS + client)
            out.append([rng.choice(self.texts) for _ in range(count)])
        return out

    def traffic(self, svc, sequences, log: Optional[SpanLog] = None) -> Samples:
        """Closed loop: each client sends its next request only after
        the previous reply was serialised."""
        per_client = [Samples() for _ in sequences]
        barrier = threading.Barrier(len(sequences) + 1)

        def one(name, text):
            return svc.execute(text).to_xml()

        def one_traced(name, text):
            with log.op(name):
                with log.span("service.execute"):
                    result = svc.execute(text)
                with log.span("model.serialize"):
                    return result.to_xml()

        request = one if log is None else one_traced

        def client(index: int) -> None:
            samples = per_client[index]
            barrier.wait()
            for name, text in sequences[index]:
                t0 = time.perf_counter()
                try:
                    ok = self.ok(name, request(name, text))
                except Exception as error:  # a failed request is a sample
                    warn(f"{name}: {type(error).__name__}: {error}")
                    ok = False
                samples.add(name, t0, time.perf_counter() - t0, ok)

        threads = [
            threading.Thread(target=client, args=(index,))
            for index in range(len(sequences))
        ]
        for thread in threads:
            thread.start()
        barrier.wait()
        started = time.perf_counter()
        for thread in threads:
            thread.join()
        merged = Samples()
        merged.wall = time.perf_counter() - started
        for samples in per_client:
            merged.rows.extend(samples.rows)
        return merged

    def warmup(self) -> None:
        self.traffic(self.svc, [self.texts] * CLIENTS)

    def measure(self) -> Samples:
        return self.traffic(self.svc, self.sequences(self.units))

    def traced(self, log: SpanLog, layer: dict) -> Tuple[Samples, Samples]:
        """The same request sequences three times: spans off (plain),
        program spans on, program spans plus benchmark spans."""
        sequences = self.sequences(max(5, self.units // 3))
        requests = CLIENTS * len(sequences[0])
        metrics = self.engine.db.metrics
        before = metrics.snapshot()
        plain = self.traffic(self.svc, sequences)
        self.counter_metrics(metrics.diff(before), layer)
        self.quiet_probe(log, layer)
        stats = self.svc.stats()
        layer["service.cache_hit_rate"] = stats.cache.hit_rate
        layer["service.lat_p99_ms"] = stats.latency["all"].get("p99_ms")
        self.svc.close()

        self.svc = self.service(spans=True)
        self.svc.prime()
        optional("span_store resize", lambda: self._keep_all_spans(requests))
        self.warmup()
        spans_on = self.traffic(self.svc, sequences)
        traced = self.traffic(self.svc, sequences, log)
        captures = optional(
            "span_store captures", lambda: self.svc.span_store.tail(requests)
        ) or []
        self.captures = [capture.to_dict() for capture in captures]
        layer["telemetry.spans_overhead_ratio"] = spans_on.wall / plain.wall
        own = self_seconds_by_name(log.spans)
        layer["model.serialize_ms"] = median_ms(own.get("model.serialize", []))
        self.capture_metrics(self.captures, layer)
        return plain, traced

    def _keep_all_spans(self, requests: int) -> None:
        from repro.telemetry.spans import SpanStore

        # the default ring keeps 256 captures; the traced phase needs all
        self.svc.span_store = SpanStore(capacity=requests)

    def quiet_probe(self, log: SpanLog, layer: dict) -> None:
        """One idle client: what the service adds over a direct
        ``run_plan`` of the same prepared plan, and a cache-hit
        ``prepare``; the direct runs also give ``core.*`` for the hot
        set."""
        svc, engine = self.svc, self.engine
        overheads, hits, profile = [], [], PlanProfile()
        prepared = {name: svc.prepare(text) for name, text in self.texts}
        self.profile_plans(
            log, [(n, lambda p=p: p.plan) for n, p in prepared.items()], profile
        )
        profile.metrics(layer)
        layer["model.result_mb"] = profile.result_bytes / 1e6
        for name, text in self.texts:
            direct, served = [], []
            for _ in range(5):
                t0 = time.perf_counter()
                engine.run_plan(prepared[name].plan)
                t1 = time.perf_counter()
                svc.execute(text)
                t2 = time.perf_counter()
                svc.prepare(text)
                hits.append(time.perf_counter() - t2)
                direct.append(t1 - t0)
                served.append(t2 - t1)
            overheads.append(
                statistics.median(served) - statistics.median(direct)
            )
        layer["service.overhead_ms"] = statistics.mean(overheads) * 1000
        layer["service.prepare_hit_us"] = statistics.median(hits) * 1e6
        optional("physical join probe", lambda: self.join_probe(layer))

    @staticmethod
    def capture_metrics(captures: List[dict], layer: dict) -> None:
        """Medians over the program's own request span trees."""

        def phase_ms(*names: str) -> Optional[float]:
            totals = [
                sum(s["ms"] for s in capture["spans"] if s["name"] in names)
                for capture in captures
                if any(s["name"] in names for s in capture["spans"])
            ]
            return statistics.median(totals) if totals else None

        layer["service.queue_ms"] = phase_ms("queue")
        layer["service.dispatch_ms"] = phase_ms("dispatch")
        layer["service.ipc_ms"] = phase_ms("ipc_send", "ipc_recv")
        layer["service.result_serialize_ms"] = phase_ms(
            "worker.result_serialize"
        )
        layer["service.result_deserialize_ms"] = phase_ms("result_deserialize")
        layer["service.merge_ms"] = phase_ms("merge")
        layer["service.worker_execute_ms"] = phase_ms("worker.execute")


# ---------------------------------------------------------------------------
# compile_cold: QueryService.prepare(text, optimize=True), always a miss
# ---------------------------------------------------------------------------
class CompileWorkload(Workload):
    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.optimize = True
        seen = {text for _, text in self.texts}
        fuzzed = []
        for text in sample_queries(300, checks.doc_seed(self.seed)):
            if text not in seen:
                seen.add(text)
                fuzzed.append(text)
        self.texts += [
            (f"f{index:03d}", text) for index, text in enumerate(fuzzed)
        ]
        self.bad: set = set()

    def start_service(self) -> None:
        self.svc = self.engine.service(threads=1)

    def warmup(self) -> None:
        """Every distinct text once: prepare it, execute the plan and
        check the bytes (the measured loop only compiles)."""
        for name, text in self.texts:
            prepared = self.svc.prepare(text, optimize=True)
            if not self.ok(name, self.svc.execute(prepared).to_xml()):
                self.bad.add(name)

    def cycle(self) -> Samples:
        samples = Samples()
        prepare, bad = self.svc.prepare, self.bad
        started = time.perf_counter()
        for name, text in self.texts:
            t0 = time.perf_counter()
            prepared = prepare(text, optimize=True)
            seconds = time.perf_counter() - t0
            # more texts than LRU slots, cycled in order: always a miss
            samples.add(
                name, t0, seconds, not prepared.cache_hit and name not in bad
            )
        samples.wall = time.perf_counter() - started
        return samples

    def measure(self) -> Samples:
        samples = Samples()
        for _ in range(self.units):
            samples.extend(self.cycle())
        return samples

    def traced_cycle(self, log: SpanLog) -> Samples:
        samples = Samples()
        started = time.perf_counter()
        for name, text in self.texts:
            with log.op(name) as root:
                with log.span("service.prepare"):
                    prepared = self.svc.prepare(text, optimize=True)
            samples.add(
                name, root["start"], root["end"] - root["start"],
                not prepared.cache_hit,
            )
        samples.wall = time.perf_counter() - started
        return samples

    @staticmethod
    def layer_functions():
        from repro.analysis import analyze
        from repro.planner import plan_physical
        from repro.rewrites.pipeline import optimize_plan
        from repro.xquery.parser import parse_query
        from repro.xquery.translator import TLCTranslator

        return parse_query, TLCTranslator, optimize_plan, plan_physical, analyze

    def walk_cycle(self, log: SpanLog, functions) -> None:
        """The compile pipeline, one layer function per span (``prepare``
        runs neither the planner nor the stand-alone linter by default;
        here they are called directly so their cost is on record)."""
        parse_query, translator, optimize_plan, plan_physical, analyze = functions
        stats = self.engine.cardinality_stats()
        metrics = self.engine.db.metrics
        for name, text in self.texts:
            with log.op(name, kind="walk"):
                with log.span("xquery.parse"):
                    ast = parse_query(text)
                with log.span("xquery.translate"):
                    translation = translator().translate(ast)
                with log.span("rewrites.optimize"):
                    translation = optimize_plan(translation)
                with log.span("planner.plan"):
                    plan_physical(translation.plan, stats, metrics=metrics)
                with log.span("analysis.lint"):
                    analyze(translation.plan)

    def traced(self, log: SpanLog, layer: dict) -> Tuple[Samples, Samples]:
        """Per cycle: plain prepares, prepares under a span, then the
        layer walk (a third of the units each)."""
        cycles = max(1, self.units // 3)
        plain, traced = Samples(), Samples()
        metrics = self.engine.db.metrics
        functions = optional("compile layer functions", self.layer_functions)
        for index in range(cycles):
            evictions = self.svc.stats().cache.evictions
            plain.extend(self.cycle())
            if index == 0:
                layer["service.cache_evictions"] = (
                    self.svc.stats().cache.evictions - evictions
                )
            traced.extend(self.traced_cycle(log))
            if functions:
                before = metrics.snapshot()
                self.walk_cycle(log, functions)
                if index == 0:
                    layer["planner.reorders"] = metrics.diff(before).get(
                        "planner_reorders", 0
                    )
        layer["service.prepare_miss_ms"] = median_ms(plain.seconds())
        own = self_seconds_by_name(log.spans)
        for metric, span in (
            ("xquery.parse_ms", "xquery.parse"),
            ("xquery.translate_ms", "xquery.translate"),
            ("rewrites.optimize_ms", "rewrites.optimize"),
            ("planner.plan_ms", "planner.plan"),
            ("analysis.lint_ms", "analysis.lint"),
        ):
            layer[metric] = median_ms(own.get(span, []))
        optional("physical join probe", lambda: self.join_probe(layer))
        return plain, traced


KINDS = {
    "xmark": XMarkWorkload,
    "serve": ServeWorkload,
    "compile": CompileWorkload,
}


def make(
    name: str, seed: int, seconds: float, quick: bool,
    expected: Dict[str, dict],
) -> Workload:
    spec = SPECS[name]
    return KINDS[spec.kind](spec, seed, seconds, quick, expected)
