"""Concurrent query execution over one immutable :class:`Database`.

This is the prototype-to-DBMS step of the reproduction: the paper
evaluates TLC inside TIMBER as a database *service*, and a service is
exactly what ``Engine.run`` is not — it re-compiles every query, runs
single-threaded, and cannot be stopped once started.
:class:`QueryService` wraps an :class:`~repro.engine.Engine` with:

* **prepared queries** — compiles go through a bounded
  :class:`~repro.service.cache.PlanCache`; an identical query (modulo
  whitespace) skips parse/translate/analyze/rewrite entirely and goes
  straight to execution;
* **an execution pool** — many queries execute concurrently against
  the one immutable database.  ``mode="thread"`` (the default) runs
  them on a thread pool; ``mode="process"`` routes each request through
  a :class:`~repro.service.pool.WorkerPool` of worker *processes*, the
  architecture that actually scales with cores (plan evaluation is
  CPU-bound pure Python, so threads serialise on the GIL).  Either
  way each request gets its own :class:`~repro.core.base.Context`, and
  with it a *fresh*, request-scoped
  :class:`~repro.patterns.scan_cache.ScanCache` (the cache itself
  asserts it is never shared across concurrent requests; see its
  lifetime contract).  Stored documents, indexes and compiled plans are
  all read-only at execution time, which is what makes the concurrent
  results byte-identical to serial ones.  The work counters are
  thread-striped (:class:`~repro.storage.stats.Metrics`), so totals
  are exact under concurrency and each request's counter delta is
  attributed to that request alone;
* **deadlines and cancellation** — per-query
  :class:`~repro.core.limits.ExecutionLimits` arm the evaluator's
  cooperative checks, so a query past its wall-clock or cardinality
  budget raises :class:`~repro.errors.QueryTimeoutError` /
  :class:`~repro.errors.ResourceLimitError` instead of hanging, and
  :meth:`QueryHandle.cancel` aborts an in-flight query at its next
  check.  An evaluation error is raised once, as itself.
"""

from __future__ import annotations

import pickle
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from dataclasses import asdict, dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Tuple,
    Union,
)

from ..core.base import Context
from ..core.evaluator import evaluate
from ..core.limits import ExecutionLimits
from ..engine import Engine
from ..errors import (
    QueryCancelledError,
    QueryTimeoutError,
    ServiceError,
    WorkerError,
    request_status,
)
from ..model.sequence import TreeSequence
from ..storage.database import Database
from ..telemetry import spans as spanlib
from ..telemetry.histogram import (
    Histogram,
    HistogramSnapshot,
    new_latency_histogram,
)
from ..telemetry.querylog import (
    DEFAULT_SLOW_CAPACITY,
    QueryLog,
    QueryLogEvent,
    SlowQueryLog,
    excerpt,
    new_trace_id,
    query_hash,
)
from ..telemetry.spans import SpanRecorder, SpanStore, bind_recorder
from ..xquery.translator import TranslationResult
from .cache import CacheStats, PlanCache, PlanCacheKey, normalize_query
from .pool import START_METHODS

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .pool import WorkerPool, WorkerResult

#: Default worker-thread count.
DEFAULT_THREADS = 4

#: Execution backends a service can run requests on.
SERVICE_MODES = ("thread", "process")

#: How often (seconds) a dispatcher thread waiting on a worker process
#: re-checks its request's cancel event.
_DISPATCH_POLL_SECONDS = 0.05

#: Distinct per-query latency classes tracked before new queries fall
#: into the ``other`` bucket (bounds ServiceStats memory).
MAX_QUERY_CLASSES = 256

#: Engines the service can prepare plans for (``nav`` interprets the
#: AST — no plan to cache, no evaluator loop to budget).
SERVICE_ENGINES = ("tlc", "tax", "gtp")


@dataclass(frozen=True)
class PreparedQuery:
    """A compiled query: execute it repeatedly without recompiling.

    Obtained from :meth:`QueryService.prepare`; immutable and safe to
    execute from many threads at once.  ``cache_hit`` records whether
    preparation itself was answered from the plan cache.
    """

    text: str
    engine: str
    optimize: bool
    translation: TranslationResult
    key: PlanCacheKey
    generation: int
    cache_hit: bool = False

    @property
    def plan(self):
        """The root operator of the compiled plan."""
        return self.translation.plan

    def explain(self) -> str:
        """Readable rendering of the compiled plan."""
        return self.translation.explain()


def _record_wire(
    recorder: SpanRecorder,
    dispatch_sid: int,
    records: List[Dict[str, Any]],
    pid: int,
    t_sent: float,
    t_recv: float,
) -> None:
    """Put a worker's span records and the IPC gaps under ``dispatch``.

    ``add_remote`` maps the worker's wall-anchored records onto the
    recorder's timeline, clamped into the ``dispatch`` span so bounded
    clock skew cannot escape the phase.  The gaps between our
    send/receive instants and the worker's outermost record become the
    ``ipc_send`` / ``ipc_recv`` spans — executor queueing plus both
    pickle hops over the pipe.
    """
    window = (recorder.start_of(dispatch_sid), recorder.now())
    recorder.add_remote(records, parent=dispatch_sid, pid=pid, window=window)
    if not records:
        return
    w_start = min(
        max(recorder.wall_to_timeline(float(records[0]["start"])), t_sent),
        t_recv,
    )
    w_end = min(
        max(recorder.wall_to_timeline(float(records[0]["end"])), w_start),
        t_recv,
    )
    recorder.record("ipc_send", t_sent, w_start, parent=dispatch_sid)
    recorder.record("ipc_recv", w_end, t_recv, parent=dispatch_sid)


class QueryHandle:
    """An in-flight query: a future plus its cooperative limits."""

    def __init__(
        self,
        future: "Future[TreeSequence]",
        limits: ExecutionLimits,
        prepared: PreparedQuery,
        on_queue_cancel: Optional[Callable[[], None]] = None,
    ) -> None:
        self._future = future
        self.limits = limits
        self.prepared = prepared
        self._on_queue_cancel = on_queue_cancel
        self._cancel_lock = threading.Lock()
        self._queue_cancel_counted = False

    def result(self, timeout: Optional[float] = None) -> TreeSequence:
        """Block for the result (re-raising any structured abort)."""
        return self._future.result(timeout)

    def done(self) -> bool:
        """Whether execution has finished (successfully or not)."""
        return self._future.done()

    def exception(self, timeout: Optional[float] = None):
        """The exception the query raised, if any (blocks like result)."""
        return self._future.exception(timeout)

    def cancel(self) -> bool:
        """Abort the query: drop it if still queued, else cooperatively.

        A queued query is cancelled outright — and counted *here*: its
        worker body never runs, so this is the only place the service
        can account for it (``Future.cancel`` keeps returning True once
        cancelled, hence the once-guard).  A running one has its
        limits' cancel event set and aborts with
        :class:`~repro.errors.QueryCancelledError` at the evaluator's
        next check.  Returns True when the cancellation was delivered
        (always, unless the query already finished).
        """
        if self._future.cancel():
            with self._cancel_lock:
                first = not self._queue_cancel_counted
                self._queue_cancel_counted = True
            if first and self._on_queue_cancel is not None:
                self._on_queue_cancel()
            return True
        self.limits.cancel()
        return not self._future.done()


@dataclass
class ServiceStats:
    """Counters over a service's lifetime plus its cache snapshot.

    ``counters`` is the database's merged :class:`Metrics` snapshot —
    exact under concurrency (the counters are thread-striped), and in
    process mode inclusive of every worker delta merged so far.
    ``requests`` counts finished requests by engine, then by status
    (``ok``/``timeout``/``resource``/``cancelled``/``error``; a request
    cancelled while still queued never ran and is not among them).
    ``latency`` maps query classes (``all`` plus one
    ``engine:queryhash`` entry per distinct prepared query, bounded at
    :data:`MAX_QUERY_CLASSES`) to their p50/p95/p99 percentiles.
    """

    executed: int = 0
    failed: int = 0
    timeouts: int = 0
    cancelled: int = 0
    slow_queries: int = 0
    threads: int = 0
    mode: str = "thread"
    spans: bool = False
    cache: CacheStats = field(default_factory=CacheStats)
    counters: Dict[str, int] = field(default_factory=dict)
    requests: Dict[str, Dict[str, int]] = field(default_factory=dict)
    latency: Dict[str, Dict[str, object]] = field(default_factory=dict)

    def to_dict(self) -> dict:
        """JSON-ready view (the /stats endpoint's ``service`` block)."""
        payload = asdict(self)
        payload["cache"]["hit_rate"] = round(self.cache.hit_rate, 4)
        return payload


class QueryService:
    """Concurrent, cached, budgeted query execution over one database.

    Parameters
    ----------
    engine:
        The :class:`~repro.engine.Engine` (or bare
        :class:`~repro.storage.database.Database`) to serve.  Documents
        must be loaded before queries arrive; loading *during* operation
        invalidates affected cache entries via the database generation
        but does not lock out in-flight queries — keep loads quiescent.
    threads:
        Worker count of the execution pool.  In thread mode this is the
        thread count; in process mode it is both the dispatcher-thread
        count and the worker-process count (one dispatcher thread feeds
        one worker).
    mode:
        ``"thread"`` (default) executes on a thread pool in this
        process; ``"process"`` dispatches to a
        :class:`~repro.service.pool.WorkerPool` of worker processes,
        each holding its own copy of the immutable database — the mode
        that scales with cores.  Process mode requires the document set
        to be quiescent for the pool's lifetime (workers materialize
        the database once, at start).
    start_method:
        Process-mode only: ``"fork"`` (workers inherit the database —
        Linux default) or ``"spawn"`` (workers load a digest-verified
        :func:`~repro.storage.persist.write_snapshot` file — portable).
        ``None`` picks the platform default.  Any other value is
        rejected in every mode.
    cache_size:
        Capacity of the prepared-plan LRU (positive).
    default_deadline / default_max_trees:
        Budgets applied to every query that does not bring its own.
    strict:
        Lint every freshly compiled TLC plan with the static LC-flow
        analyzer before it enters the cache (validation is amortised
        across all executions of the cached plan).
    slow_threshold:
        Wall-clock seconds past which a request counts as *slow*: it is
        logged to the slow-query ring and (when it succeeded and no
        capture for the same query hash is resident) re-executed once
        with the runtime tracer to capture a full EXPLAIN ANALYZE
        trace.  ``None`` (the default) disables slow-query handling.
    slow_log_capacity:
        Size of the slow-query ring (bounds capture memory; positive).
    query_log:
        The structured :class:`~repro.telemetry.querylog.QueryLog`
        receiving one event per request; a private ring-only log is
        created when omitted.  Pass one with a ``sink_path`` to also
        persist events as JSON lines.
    spans:
        Record a full span tree for every request (parse → plan-cache →
        queue → dispatch → merge, across the worker boundary in process
        mode) into :attr:`span_store`, served by ``/trace/<id>`` and
        exportable as Chrome-trace JSON.  ``None`` (the default)
        follows the process-wide ``REPRO_SPANS`` toggle; with spans off
        the per-request cost is one boolean test.
    """

    def __init__(
        self,
        engine: Union[Engine, Database],
        threads: int = DEFAULT_THREADS,
        mode: str = "thread",
        start_method: Optional[str] = None,
        cache_size: Optional[int] = None,
        default_deadline: Optional[float] = None,
        default_max_trees: Optional[int] = None,
        strict: bool = False,
        slow_threshold: Optional[float] = None,
        slow_log_capacity: int = DEFAULT_SLOW_CAPACITY,
        query_log: Optional[QueryLog] = None,
        spans: Optional[bool] = None,
    ) -> None:
        # every argument check runs before the worker pool exists: a
        # pool built and then abandoned leaks its fork handoff entry or
        # its snapshot file
        if threads <= 0:
            raise ServiceError("thread count must be positive")
        if mode not in SERVICE_MODES:
            raise ServiceError(
                f"mode must be one of {SERVICE_MODES}, got {mode!r}"
            )
        if start_method is not None and start_method not in START_METHODS:
            raise ServiceError(
                f"start method must be one of {START_METHODS}, "
                f"got {start_method!r}"
            )
        if slow_threshold is not None and slow_threshold < 0:
            raise ServiceError("slow threshold must be >= 0 seconds")
        if cache_size is not None and cache_size <= 0:
            raise ServiceError("plan cache capacity must be positive")
        if slow_log_capacity <= 0:
            raise ServiceError("slow log capacity must be positive")
        self.engine = engine if isinstance(engine, Engine) else Engine(engine)
        self.db: Database = self.engine.db
        self.mode = mode
        self._worker_pool: Optional["WorkerPool"] = None
        if mode == "process":
            from .pool import WorkerPool

            self._worker_pool = WorkerPool(
                self.db,
                workers=threads,
                start_method=start_method,
            )
        self.cache = PlanCache(
            capacity=cache_size if cache_size is not None else 64,
            metrics=self.db.metrics,
        )
        self.default_deadline = default_deadline
        self.default_max_trees = default_max_trees
        self.strict = strict
        self.threads = threads
        self.slow_threshold = slow_threshold
        self.query_log = query_log if query_log is not None else QueryLog()
        self.slow_log = SlowQueryLog(capacity=slow_log_capacity)
        if spans is None:
            spans = spanlib.spans_enabled()
        self.spans = bool(spans)
        #: finished span captures behind /trace/<id> (always present so
        #: callers can flip spans on without re-wiring endpoints)
        self.span_store = SpanStore()
        self._pool = ThreadPoolExecutor(
            max_workers=threads, thread_name_prefix="repro-query"
        )
        self._lock = threading.Lock()
        self._closed = False
        self._executed = 0
        self._failed = 0
        self._timeouts = 0
        self._cancelled = 0
        self._slow_queries = 0
        #: (engine, status) -> finished requests
        self._requests: Dict[Tuple[str, str], int] = {}
        #: request-latency distributions backing the percentile stats:
        #: the ``all`` aggregate, one per engine (/metrics) and one per
        #: query class (/stats)
        self._latency_all = new_latency_histogram()
        self._engine_hists: Dict[str, Histogram] = {
            engine: new_latency_histogram() for engine in SERVICE_ENGINES
        }
        self._class_lock = threading.Lock()
        self._class_hists: Dict[str, Tuple[str, Histogram]] = {}

    # ------------------------------------------------------------------
    # preparation (the plan cache front door)
    # ------------------------------------------------------------------
    def prepare(
        self, query: str, engine: str = "tlc", optimize: bool = False
    ) -> PreparedQuery:
        """Compile ``query`` through the plan cache.

        A second ``prepare`` (or ``execute``/``submit``) of the same
        query — whitespace-insensitively — returns the cached plan and
        performs no parsing, translation, analysis or rewriting at all;
        the skip shows up as ``plan_cache_hits`` in the counters.
        """
        self._ensure_open()
        if engine not in SERVICE_ENGINES:
            raise ServiceError(
                f"the service prepares algebraic plans; engine {engine!r} "
                f"is not one of {SERVICE_ENGINES}"
            )
        key = PlanCacheKey(normalize_query(query), engine, bool(optimize))
        generation = self.db.generation

        def compile_fn() -> TranslationResult:
            with spanlib.span("compile", engine=engine):
                translation = self.engine.plan(query, engine, optimize)
            if self.strict and engine == "tlc":
                from ..analysis import analyze
                from ..errors import PlanValidationError

                analysis = analyze(translation.plan)
                if not analysis.ok:
                    raise PlanValidationError(
                        "plan failed static LC-flow validation",
                        analysis.errors,
                    )
            return translation

        with spanlib.span("plan_cache"):
            translation, hit = self.cache.get_or_compile(
                key, generation, compile_fn
            )
        return PreparedQuery(
            text=query,
            engine=engine,
            optimize=bool(optimize),
            translation=translation,
            key=key,
            generation=generation,
            cache_hit=hit,
        )

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def submit(
        self,
        query: Union[str, PreparedQuery],
        engine: str = "tlc",
        optimize: bool = False,
        deadline: Optional[float] = None,
        max_trees: Optional[int] = None,
    ) -> QueryHandle:
        """Queue a query on the pool; returns a cancellable handle.

        ``query`` may be raw text (prepared through the cache first) or
        an existing :class:`PreparedQuery`.  ``deadline``/``max_trees``
        default to the service-wide budgets.

        Every request gets a trace id here — the same id its query-log
        event carries, so log lines join against exported span files.
        With spans on, a :class:`SpanRecorder` starts now: preparation
        runs inside a ``prepare`` span on this thread, and the ``queue``
        span opened before the pool hand-off measures the wait until a
        worker thread picks the request up.
        """
        self._ensure_open()
        trace_id = new_trace_id()
        recorder = SpanRecorder(trace_id) if self.spans else None
        if isinstance(query, PreparedQuery):
            prepared = query
        elif recorder is not None:
            try:
                with bind_recorder(recorder):
                    with recorder.span(
                        "prepare", {"engine": engine}
                    ) as sid:
                        prepared = self.prepare(
                            query, engine=engine, optimize=optimize
                        )
                    recorder.annotate(sid, cache_hit=prepared.cache_hit)
            except Exception:
                # compile failures never reach _observe; freeze the
                # partial capture so the failed request stays traceable
                self.span_store.put(recorder.finish(status="error"))
                raise
        else:
            prepared = self.prepare(query, engine=engine, optimize=optimize)
        limits = ExecutionLimits(
            deadline=(
                deadline if deadline is not None else self.default_deadline
            ),
            max_trees=(
                max_trees if max_trees is not None else self.default_max_trees
            ),
        )
        queue_sid = recorder.begin("queue") if recorder is not None else None
        future = self._pool.submit(
            self._run, prepared, limits, trace_id, recorder, queue_sid
        )
        return QueryHandle(
            future, limits, prepared, on_queue_cancel=self._count_queue_cancel
        )

    def execute(
        self,
        query: Union[str, PreparedQuery],
        engine: str = "tlc",
        optimize: bool = False,
        deadline: Optional[float] = None,
        max_trees: Optional[int] = None,
    ) -> TreeSequence:
        """Synchronous convenience: submit and wait for the result."""
        return self.submit(
            query,
            engine=engine,
            optimize=optimize,
            deadline=deadline,
            max_trees=max_trees,
        ).result()

    def execute_many(
        self,
        queries: Iterable[Union[str, PreparedQuery]],
        engine: str = "tlc",
        optimize: bool = False,
        deadline: Optional[float] = None,
        max_trees: Optional[int] = None,
    ) -> List[TreeSequence]:
        """Run a batch concurrently; results in submission order.

        The first structured failure (in submission order) is re-raised
        only after *every* handle has finished — sibling queries run to
        completion rather than being orphaned mid-flight, so the caller
        can retry the batch without racing stragglers from the last one.
        """
        handles = [
            self.submit(
                q,
                engine=engine,
                optimize=optimize,
                deadline=deadline,
                max_trees=max_trees,
            )
            for q in queries
        ]
        results: List[TreeSequence] = []
        first_error: Optional[BaseException] = None
        for handle in handles:
            try:
                results.append(handle.result())
            except BaseException as error:
                if first_error is None:
                    first_error = error
        if first_error is not None:
            raise first_error
        return results

    # ------------------------------------------------------------------
    # the worker body
    # ------------------------------------------------------------------
    def _run(
        self,
        prepared: PreparedQuery,
        limits: ExecutionLimits,
        trace_id: Optional[str] = None,
        recorder: Optional[SpanRecorder] = None,
        queue_sid: Optional[int] = None,
    ) -> TreeSequence:
        """Execute one prepared plan with a fresh, request-scoped context.

        The counter window is *thread-local* (``local_snapshot`` /
        ``local_diff``): this request runs wholly on this worker thread
        — and in process mode, the remote delta is merged into this
        thread's cell before the window closes — so the query-log row
        carries exactly this request's work, with no bleed from
        concurrent requests (a global snapshot here would attribute
        their deltas to whichever request happened to finish first).
        """
        started = time.perf_counter()
        if recorder is not None and queue_sid is not None:
            recorder.end(queue_sid)
        before = self.db.metrics.local_snapshot()
        status = "ok"
        error_text: Optional[str] = None
        result_trees = 0
        try:
            if recorder is not None:
                with bind_recorder(recorder), recorder.span("execute"):
                    result = self._evaluate(prepared, limits, recorder)
            else:
                result = self._evaluate(prepared, limits, None)
            result_trees = len(result)
            return result
        except BaseException as error:
            status = request_status(error)
            error_text = f"{type(error).__name__}: {error}"
            raise
        finally:
            elapsed = time.perf_counter() - started
            self._observe(
                prepared,
                status,
                error_text,
                elapsed,
                result_trees,
                self.db.metrics.local_diff(before),
                trace_id=trace_id,
                recorder=recorder,
            )
            # counted last so an ``executed == N`` stats read implies the
            # log events and latencies of all N requests are recorded
            with self._lock:
                self._executed += 1
                key = (prepared.engine, status)
                self._requests[key] = self._requests.get(key, 0) + 1
                if status != "ok":
                    self._failed += 1
                    if status == "timeout":
                        self._timeouts += 1
                    elif status == "cancelled":
                        self._cancelled += 1

    def _evaluate(
        self,
        prepared: PreparedQuery,
        limits: ExecutionLimits,
        recorder: Optional[SpanRecorder] = None,
    ) -> TreeSequence:
        """Evaluate in a worker process or on this thread."""
        if self._worker_pool is not None:
            return self._run_process(prepared, limits, recorder)
        # a fresh Context per request: its ScanCache is request-scoped
        # (and asserts that — see the ScanCache lifetime contract)
        ctx = Context(self.db, scan_cache=True, limits=limits)
        return evaluate(prepared.plan, ctx)

    # ------------------------------------------------------------------
    # process-mode dispatch
    # ------------------------------------------------------------------
    def _run_process(
        self,
        prepared: PreparedQuery,
        limits: ExecutionLimits,
        recorder: Optional[SpanRecorder] = None,
    ) -> TreeSequence:
        """Ship one request to a worker process and merge its result.

        The limits are anchored *before* dispatch and the worker gets
        the remaining budget, so queue wait counts against the deadline
        exactly as it does in thread mode.  The dispatcher pickles the
        :class:`~repro.service.pool.WorkItem` itself and ships the blob;
        the worker returns its pickled result plus span records timing
        its own deserialize / execute / result-serialize phases (see
        :func:`~repro.service.pool._execute_blob`).  The wait loop polls
        the cancel event: a worker task cannot be interrupted mid-plan,
        so a cancelled request unblocks the caller immediately and the
        stray result — bounded by its worker-side deadline — is
        absorbed by a done-callback that merges its counters (totals
        stay exact; the result itself is dropped).

        With a recorder, every wire phase becomes a span under
        ``dispatch``; without one, the worker's records are dropped.
        """
        assert self._worker_pool is not None
        from .pool import WorkItem

        limits.start()
        if limits.cancelled:
            raise QueryCancelledError()
        remaining = limits.remaining()
        if remaining is not None and remaining <= 0.0:
            # the budget died in the queue; don't ship a dead request
            # (worker-side limits also reject a non-positive deadline)
            raise QueryTimeoutError(limits.deadline, limits.elapsed())
        item = WorkItem(
            prepared=prepared,
            deadline=remaining,
            max_trees=limits.max_trees,
        )
        if recorder is None:
            blob = pickle.dumps(item, pickle.HIGHEST_PROTOCOL)
            result_blob, _ = self._dispatch(blob, limits)
            return self._merge_worker_result(pickle.loads(result_blob))
        dispatch_sid = recorder.begin("dispatch")
        try:
            with recorder.span("serialize") as sid:
                blob = pickle.dumps(item, pickle.HIGHEST_PROTOCOL)
            recorder.annotate(sid, bytes=len(blob))
            # send/receive instants come off the recorder's own perf
            # timeline (wall-vs-perf drift must not reorder dispatcher
            # spans); only the worker's endpoints need the wall bridge
            t_sent = recorder.now()
            result_blob, wire_records = self._dispatch(blob, limits)
            t_recv = recorder.now()
            with recorder.span("result_deserialize") as sid:
                worker_result = pickle.loads(result_blob)
            recorder.annotate(sid, bytes=len(result_blob))
            _record_wire(
                recorder,
                dispatch_sid,
                wire_records,
                worker_result.pid,
                t_sent,
                t_recv,
            )
            with recorder.span("merge"):
                return self._merge_worker_result(worker_result)
        finally:
            recorder.end(dispatch_sid)

    def _dispatch(
        self, blob: bytes, limits: ExecutionLimits
    ) -> Tuple[bytes, List[Dict[str, Any]]]:
        """Submit one pickled request; wait for its reply or a cancel."""
        assert self._worker_pool is not None
        try:
            future = self._worker_pool.submit(blob)
        except Exception as error:
            raise WorkerError(type(error).__name__, str(error)) from error
        while True:
            try:
                return future.result(_DISPATCH_POLL_SECONDS)
            except FuturesTimeoutError:
                if limits.cancelled:
                    future.add_done_callback(self._absorb_abandoned)
                    raise QueryCancelledError() from None
            except Exception as error:
                # the future failed without a reply: a worker process
                # died mid-request, or the pool broke
                raise WorkerError(type(error).__name__, str(error)) from error

    def _merge_worker_result(self, wr: "WorkerResult") -> TreeSequence:
        """Fold a worker's deltas into this process; return or raise.

        Counters merge into the *calling thread's* cell, inside the
        ``_run`` window that is timing this request — so the query-log
        row attributes the remote work to the right request.  A worker
        error is raised as the worker shipped it.
        """
        if wr.worker_info and self._worker_pool is not None:
            self._worker_pool.note_worker(wr.worker_info)
        if wr.counters:
            self.db.metrics.merge(wr.counters)
        if wr.error is not None:
            raise wr.error
        assert wr.result is not None
        return wr.result

    def _absorb_abandoned(self, future: "Future[Tuple[bytes, list]]") -> None:
        """Done-callback for a worker task its request abandoned.

        Runs on the executor's result thread once the worker finishes.
        The request was already reported cancelled; only the side
        effects are kept — counters merge (into this callback thread's
        cell: global totals stay exact) so abandoned work never goes
        missing from ``/metrics``.
        """
        try:
            if future.cancelled() or future.exception() is not None:
                return
            self._merge_worker_result(pickle.loads(future.result()[0]))
        except Exception:
            # the worker's own error belongs to a request that was
            # already answered as cancelled
            pass

    def _count_queue_cancel(self) -> None:
        """Account for a request cancelled before its task started.

        Its worker body never runs, so the per-request bookkeeping in
        ``_run`` never fires; without this, ``stats()`` totals drift
        from submissions (executed + queued ≠ submitted).
        """
        with self._lock:
            self._executed += 1
            self._failed += 1
            self._cancelled += 1

    # ------------------------------------------------------------------
    # telemetry: per-request observation and slow-query capture
    # ------------------------------------------------------------------
    def _observe(
        self,
        prepared: PreparedQuery,
        status: str,
        error_text: Optional[str],
        elapsed: float,
        result_trees: int,
        delta: Dict[str, int],
        trace_id: Optional[str] = None,
        recorder: Optional[SpanRecorder] = None,
    ) -> None:
        """Record one finished request: log event, spans, latency.

        Runs in the worker thread *after* the result future resolves;
        it must never raise into the caller (a telemetry bug must not
        turn a good result into a failed query), so everything here is
        defensive.  ``trace_id`` is the id minted in :meth:`submit` —
        the query-log row and the span capture carry the same one, so
        ``tail`` output joins against exported span files.
        """
        try:
            qhash = query_hash(prepared.key.text)
            slow = (
                self.slow_threshold is not None
                and elapsed >= self.slow_threshold
            )
            trace_payload = None
            if slow:
                with self._lock:
                    self._slow_queries += 1
                # capture a full EXPLAIN ANALYZE once per query hash:
                # re-running a *slow* query is expensive, so the ring's
                # dedup check keeps a hot slow query from being traced
                # on every request
                if status == "ok" and self.slow_log.should_capture(qhash):
                    trace_payload = self._capture_slow(prepared)
            if recorder is not None:
                self.span_store.put(
                    recorder.finish(status=status, slow=slow)
                )
            event = QueryLogEvent(
                trace_id=trace_id if trace_id is not None else new_trace_id(),
                query_hash=qhash,
                query=excerpt(prepared.text),
                engine=prepared.engine,
                optimize=prepared.optimize,
                cache_hit=prepared.cache_hit,
                status=status,
                seconds=elapsed,
                result_trees=result_trees,
                slow=slow,
                error=error_text,
                counters={k: v for k, v in delta.items() if v},
                trace=trace_payload,
            )
            if slow:
                self.slow_log.record(event)
            self._latency_all.observe(elapsed)
            self._engine_hists[prepared.engine].observe(elapsed)
            hist = self._class_hist(
                prepared.engine, qhash, excerpt(prepared.text)
            )
            hist.observe(elapsed)
            # last: a failing sink write (a full disk) must not skip the
            # statistics above
            self.query_log.emit(event)
        except Exception:  # pragma: no cover - defensive
            pass

    def _capture_slow(self, prepared: PreparedQuery) -> Optional[dict]:
        """Re-run a slow query under the tracer; JSON trace or None.

        The re-run runs wholly on this thread, so resetting the thread's
        counter cell afterwards takes its work back out of the
        ``Metrics`` totals: they count client-visible executions only.
        It runs under the service's default budgets so a pathological
        query cannot wedge a worker twice.
        """
        from ..trace import Tracer, trace_to_json

        metrics = self.db.metrics
        before = metrics.local_snapshot()
        try:
            limits = ExecutionLimits(
                deadline=self.default_deadline,
                max_trees=self.default_max_trees,
            )
            ctx = Context(self.db, scan_cache=True, limits=limits)
            tracer = Tracer(ctx.metrics)
            evaluate(prepared.plan, ctx, tracer)
            return trace_to_json(tracer.finish(prepared.plan))
        except Exception:
            return None
        finally:
            metrics.local_restore(before)

    def _class_hist(self, engine: str, qhash: str, query: str) -> Histogram:
        """The latency histogram for one query class (bounded set).

        Classes are ``engine:queryhash``; once :data:`MAX_QUERY_CLASSES`
        distinct classes exist, further queries share the ``other``
        bucket so an adversarial query stream cannot grow stats without
        bound.
        """
        key = f"{engine}:{qhash}"
        with self._class_lock:
            entry = self._class_hists.get(key)
            if entry is None:
                if len(self._class_hists) >= MAX_QUERY_CLASSES:
                    key = "other"
                    query = ""
                    entry = self._class_hists.get(key)
                if entry is None:
                    entry = (query, new_latency_histogram())
                    self._class_hists[key] = entry
            return entry[1]

    # ------------------------------------------------------------------
    # lifecycle and introspection
    # ------------------------------------------------------------------
    def stats(self) -> ServiceStats:
        """Lifetime counters plus the plan-cache snapshot."""
        latency: Dict[str, Dict[str, object]] = {}
        snap = self._latency_all.snapshot()
        entry: Dict[str, object] = {"count": snap.count}
        entry.update(snap.percentiles_ms())
        latency["all"] = entry
        with self._class_lock:
            classes = list(self._class_hists.items())
        for key, (query, hist) in sorted(classes):
            snap = hist.snapshot()
            entry = {"count": snap.count}
            entry.update(snap.percentiles_ms())
            if query:
                entry["query"] = query
            latency[key] = entry
        with self._lock:
            requests: Dict[str, Dict[str, int]] = {}
            for (engine, status), count in sorted(self._requests.items()):
                requests.setdefault(engine, {})[status] = count
            return ServiceStats(
                executed=self._executed,
                failed=self._failed,
                timeouts=self._timeouts,
                cancelled=self._cancelled,
                slow_queries=self._slow_queries,
                threads=self.threads,
                mode=self.mode,
                spans=self.spans,
                cache=self.cache.stats(),
                counters=self.db.metrics.snapshot(),
                requests=requests,
                latency=latency,
            )

    def engine_latency(self) -> Dict[str, HistogramSnapshot]:
        """Request-latency snapshots of every engine that served one."""
        snapshots = {
            engine: hist.snapshot()
            for engine, hist in self._engine_hists.items()
        }
        return {e: snap for e, snap in snapshots.items() if snap.count}

    @property
    def start_method(self) -> Optional[str]:
        """The worker pool's resolved start method; None in thread mode."""
        if self._worker_pool is None:
            return None
        return self._worker_pool.start_method

    def workers(self) -> Dict[str, object]:
        """Per-worker introspection (the ``/workers`` endpoint's body).

        Process mode reports one entry per worker process — requests
        served, plans cached by plan hash, snapshot load milliseconds,
        last heartbeat — plus the pool-level in-flight and dispatched
        gauges.  Thread mode has no worker processes; the shape stays
        identical with an empty worker list so callers need no branch.
        """
        payload: Dict[str, object] = {
            "mode": self.mode,
            "threads": self.threads,
            "start_method": self.start_method,
            "in_flight": 0,
            "dispatched": 0,
            "workers": [],
        }
        if self._worker_pool is not None:
            payload["in_flight"] = self._worker_pool.in_flight
            payload["dispatched"] = self._worker_pool.dispatched
            payload["workers"] = self._worker_pool.worker_info()
        return payload

    def prime(self, timeout: Optional[float] = None) -> List[int]:
        """Start and warm every worker now; returns worker pids.

        Thread mode is a no-op (threads are cheap and start eagerly
        enough); in process mode this forces all worker processes up
        and through database materialization before the first request
        — benchmarks call it so round 1 measures queries, not forks.
        """
        if self._worker_pool is None:
            return []
        return self._worker_pool.prime(timeout)

    def close(self, wait: bool = True) -> None:
        """Stop accepting queries and shut the pool down."""
        with self._lock:
            self._closed = True
        self._pool.shutdown(wait=wait)
        if self._worker_pool is not None:
            self._worker_pool.close(wait=wait)
        self.query_log.close()

    def _ensure_open(self) -> None:
        if self._closed:
            raise ServiceError("the query service has been closed")

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "closed" if self._closed else f"threads={self.threads}"
        return f"<QueryService {state} cache={self.cache!r}>"
