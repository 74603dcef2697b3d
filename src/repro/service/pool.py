"""Process-pool worker backend: query execution across address spaces.

EXPERIMENTS E12/E13 measured the thread pool running *slower* than
serial — TLC plan evaluation is CPU-bound pure Python, so threads
serialise on the GIL.  This module is the other side of that wall: a
:class:`WorkerPool` owns N worker *processes*, each holding its own
materialization of the one immutable :class:`~repro.storage.database.
Database`, and the dispatcher (the :class:`~repro.service.service.
QueryService` thread pool) ships prepared plans over and merges
serialized results back — in submission order, byte-identical to
serial execution (the 23-query XMark sweep is the oracle).

**Database handoff.**  Two start methods, selected per pool:

* ``fork`` (Linux default): the dispatcher parks the database in a
  module-level registry under a token; forked children inherit the
  whole object graph for free and look the token up in
  :func:`_init_worker`.  Zero serialization, copy-on-write memory.
* ``spawn`` (portable, and what macOS/Windows require): the dispatcher
  persists the database once with
  :func:`~repro.storage.persist.write_snapshot` and ships the tiny
  :class:`~repro.storage.persist.SnapshotHandle`; each worker loads and
  sha256-verifies its private copy at start.  Plans cross the hop by
  pickle: the test suite round-trips every benchmark plan and an
  instance of every operator class.

**Why results stay exact.**  Everything request-scoped in thread mode
stays request-scoped here: each worker builds a fresh ``Context`` (and
with it a fresh ScanCache) per plan, cooperative
:class:`~repro.core.limits.ExecutionLimits` are rebuilt worker-side
from the *remaining* budget the dispatcher measured at dispatch.
Exceptions never cross the boundary as objects — several carry
multi-argument constructors that break ``pickle`` round-trips — so
:class:`WorkerResult` carries a status plus the constructor arguments
of the structured errors, and the dispatcher re-raises the real
exception types.

**Why /metrics stays exact.**  Each result ships one delta: the
worker database's :class:`~repro.storage.stats.Metrics` window (exact —
a worker process runs one request at a time on one thread).  The
dispatcher folds it into its own database metrics, and everything else
``/metrics`` serves — request counts, latencies, spans — is counted
dispatcher-side, so the endpoint reports the same totals it would have
had the work run locally.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import pickle
import tempfile
import threading
import time
from concurrent.futures import Future, ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from ..core.base import Context
from ..core.evaluator import evaluate
from ..core.limits import ExecutionLimits
from ..errors import (
    QueryCancelledError,
    QueryTimeoutError,
    ResourceLimitError,
    ServiceError,
)
from ..model.sequence import TreeSequence
from ..storage.database import Database
from ..storage.persist import SnapshotHandle, open_snapshot, write_snapshot
from ..storage.seal import bulk_load

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .service import PreparedQuery

#: Start methods a pool will accept.
START_METHODS = ("fork", "spawn")


def default_start_method() -> str:
    """``fork`` where the platform offers it (free memory sharing),
    ``spawn`` otherwise."""
    if "fork" in multiprocessing.get_all_start_methods():
        return "fork"
    return "spawn"


# ---------------------------------------------------------------------------
# wire protocol
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class WorkItem:
    """One dispatched request: the compiled plan plus its budgets.

    ``deadline`` is the *remaining* wall-clock budget at dispatch time
    (the dispatcher anchors the limits first), so queue wait is charged
    to the request exactly as it is in thread mode.
    """

    prepared: "PreparedQuery"
    deadline: Optional[float]
    max_trees: Optional[int]


@dataclass
class WorkerResult:
    """What a worker ships back for one :class:`WorkItem`.

    ``status`` is one of ``ok`` / ``timeout`` / ``resource`` /
    ``cancelled`` / ``error``; for the structured statuses,
    ``error_args`` are the constructor arguments of the corresponding
    exception type, which the dispatcher re-raises (the exception
    object itself never crosses the boundary — multi-argument
    ``__init__`` signatures do not survive pickling).  ``counters`` is
    the worker database's exact per-request Metrics window, merged
    dispatcher-side.
    """

    status: str
    result: Optional[TreeSequence] = None
    error_type: str = ""
    error_args: Tuple[Any, ...] = ()
    error_text: str = ""
    counters: Dict[str, int] = field(default_factory=dict)
    pid: int = 0
    #: Per-worker introspection snapshot (requests served, plans seen
    #: by plan hash, snapshot load ms, last heartbeat) — piggybacked on
    #: every result so the dispatcher's registry stays current without
    #: extra IPC.
    worker_info: Optional[Dict[str, Any]] = None


# ---------------------------------------------------------------------------
# worker-process state (each worker process has its own copy)
# ---------------------------------------------------------------------------
#: Fork-mode handoff: token -> database, populated by the dispatcher
#: *before* the executor forks so children inherit the entry.  Keyed
#: (rather than a single slot) so several fork-mode pools over
#: different databases can coexist in one dispatcher process.
_FORK_DBS: Dict[str, Database] = {}
_FORK_DBS_LOCK = threading.Lock()

#: The worker's materialized database and config, set by
#: :func:`_init_worker`.  A worker process is single-threaded, but the
#: writes stay lock-guarded so these functions stay safe if they are
#: ever called from a thread; uncontended, the lock costs nothing.
_WORKER_STATE: Dict[str, Any] = {}
_WORKER_STATE_LOCK = threading.Lock()


def _fork_token_for(db: Database) -> str:
    return f"{os.getpid()}:{id(db)}"


def _init_worker(
    source: Optional[SnapshotHandle],
    fork_token: Optional[str],
) -> None:
    """Materialize this worker's database once, then seal the process.

    Runs in the child at process start.  Fork workers resolve the
    inherited ``fork_token``; spawn workers load and digest-verify the
    snapshot.  A failure here poisons the executor (every pending
    future breaks), which is the right behaviour: a worker that cannot
    produce a verified database must not answer queries.

    The whole start-up runs as one bulk load, so on exit everything the
    worker will keep — a spawn worker's private copy, or what a fork
    worker inherited outside the dispatcher's permanent generation —
    is frozen: collector passes in the worker then write no GC headers
    into the copy-on-write pages it shares with the dispatcher.
    """
    load_started = time.perf_counter()
    with bulk_load():
        if fork_token is not None:
            with _FORK_DBS_LOCK:
                db = _FORK_DBS.get(fork_token)
            if db is None:
                raise ServiceError(
                    f"fork handoff token {fork_token!r} not found in "
                    "worker; was the database released before the pool "
                    "started?"
                )
        elif source is not None:
            db = open_snapshot(source)
        else:
            raise ServiceError(
                "worker started with neither snapshot nor token"
            )
        with _WORKER_STATE_LOCK:
            _WORKER_STATE["db"] = db
            _WORKER_STATE["started_wall"] = time.time()
            _WORKER_STATE["requests"] = 0
            _WORKER_STATE["plan_hashes"] = {}
            _WORKER_STATE["last_heartbeat"] = time.time()
    # snapshot load ms is materialization plus the seal (for a fork
    # worker: the token lookup plus the seal); the indexes are built by
    # the load itself, so there is no separate warm-up.  The freeze
    # count walks the permanent generation: read it once, here, not per
    # shipped result.
    with _WORKER_STATE_LOCK:
        _WORKER_STATE["snapshot_load_ms"] = round(
            (time.perf_counter() - load_started) * 1000, 3
        )
        _WORKER_STATE["sealed_objects"] = gc.get_freeze_count()


#: Distinct plan hashes a worker tracks before new ones fold into the
#: ``other`` bucket (bounds the per-result introspection payload).
MAX_WORKER_PLAN_HASHES = 64


def _worker_info_snapshot() -> Dict[str, Any]:
    """This worker's introspection record (shipped with every result)."""
    with _WORKER_STATE_LOCK:
        return {
            "pid": os.getpid(),
            "requests": int(_WORKER_STATE.get("requests", 0)),
            "plans": dict(_WORKER_STATE.get("plan_hashes", {})),
            "snapshot_load_ms": _WORKER_STATE.get("snapshot_load_ms"),
            "sealed_objects": _WORKER_STATE.get("sealed_objects", 0),
            "started_wall": _WORKER_STATE.get("started_wall"),
            "last_heartbeat": _WORKER_STATE.get("last_heartbeat"),
        }


def _note_request(plan_hash: str) -> None:
    """Bump this worker's served-request and plan-hash bookkeeping."""
    with _WORKER_STATE_LOCK:
        _WORKER_STATE["requests"] = int(_WORKER_STATE.get("requests", 0)) + 1
        _WORKER_STATE["last_heartbeat"] = time.time()
        plans = _WORKER_STATE.setdefault("plan_hashes", {})
        if plan_hash not in plans and len(plans) >= MAX_WORKER_PLAN_HASHES:
            plan_hash = "other"
        plans[plan_hash] = plans.get(plan_hash, 0) + 1


def _ping(hold_seconds: float = 0.0) -> Tuple[int, int, Dict[str, Any]]:
    """Liveness probe: (worker pid, documents materialized, worker info).

    ``hold_seconds`` keeps the probed worker busy briefly so a batch of
    probes cannot all be drained by the first worker to come up — the
    executor spawns processes on demand, one per *pending* item.
    """
    with _WORKER_STATE_LOCK:
        db = _WORKER_STATE.get("db")
        _WORKER_STATE["last_heartbeat"] = time.time()
    if db is None:
        raise ServiceError("worker has no database (initializer did not run)")
    if hold_seconds > 0:
        time.sleep(hold_seconds)
    return os.getpid(), len(db.document_names()), _worker_info_snapshot()


def _execute_item(item: WorkItem) -> WorkerResult:
    """The worker body: evaluate one plan, ship result plus deltas."""
    with _WORKER_STATE_LOCK:
        db = _WORKER_STATE.get("db")
    if db is None:
        return WorkerResult(
            status="error",
            error_type="ServiceError",
            error_text="worker has no database (initializer did not run)",
            pid=os.getpid(),
        )
    from ..telemetry.querylog import query_hash

    _note_request(query_hash(item.prepared.key.text))
    limits = ExecutionLimits(deadline=item.deadline, max_trees=item.max_trees)
    counters_before = db.metrics.local_snapshot()
    status = "ok"
    result: Optional[TreeSequence] = None
    error_type = ""
    error_text = ""
    error_args: Tuple[Any, ...] = ()
    try:
        # a fresh Context per request, exactly as in thread mode: its
        # ScanCache is request-scoped and asserts the lifetime contract
        ctx = Context(db, scan_cache=True, limits=limits)
        result = evaluate(item.prepared.plan, ctx)
    except QueryTimeoutError as error:
        status = "timeout"
        error_type = type(error).__name__
        error_text = str(error)
        error_args = (error.budget_seconds, error.elapsed_seconds)
    except ResourceLimitError as error:
        status = "resource"
        error_type = type(error).__name__
        error_text = str(error)
        error_args = (error.limit, error.produced, error.operator)
    except QueryCancelledError as error:
        status = "cancelled"
        error_type = type(error).__name__
        error_text = str(error)
    except BaseException as error:
        status = "error"
        error_type = type(error).__name__
        error_text = str(error)
    return WorkerResult(
        status=status,
        result=result,
        error_type=error_type,
        error_args=error_args,
        error_text=error_text,
        counters={
            k: v
            for k, v in db.metrics.local_diff(counters_before).items()
            if v
        },
        pid=os.getpid(),
        worker_info=_worker_info_snapshot(),
    )


def _execute_blob(blob: bytes) -> Tuple[bytes, List[Dict[str, Any]]]:
    """Traced worker body: time every wire phase the dispatcher cannot.

    The spans-enabled dispatch path ships the pickled :class:`WorkItem`
    as an opaque blob so *this* function owns both pickle hops and can
    time them: payload deserialize, plan execution, result serialize.
    Each phase is reported as a wall-anchored span record — the worker
    pins one ``(perf_counter, time.time())`` pair at entry and converts
    its monotonic readings through it, which is what lets the
    dispatcher reconcile worker-relative clocks onto the request
    timeline under both ``fork`` and ``spawn``.  The result travels
    back pre-pickled (the executor pickles the small outer tuple again;
    that hop is charged to IPC, where it belongs).
    """
    wall0 = time.time()
    perf0 = time.perf_counter()

    def wall(perf: float) -> float:
        return wall0 + (perf - perf0)

    item: WorkItem = pickle.loads(blob)
    t_loaded = time.perf_counter()
    result = _execute_item(item)
    t_executed = time.perf_counter()
    payload = pickle.dumps(result, pickle.HIGHEST_PROTOCOL)
    t_serialized = time.perf_counter()
    records: List[Dict[str, Any]] = [
        {
            "name": "worker",
            "start": wall0,
            "end": wall(t_serialized),
            "parent": None,
            "tags": {"pid": os.getpid(), "status": result.status},
        },
        {
            "name": "worker.deserialize",
            "start": wall0,
            "end": wall(t_loaded),
            "parent": "worker",
            "tags": {"bytes": len(blob)},
        },
        {
            "name": "worker.execute",
            "start": wall(t_loaded),
            "end": wall(t_executed),
            "parent": "worker",
        },
        {
            "name": "worker.result_serialize",
            "start": wall(t_executed),
            "end": wall(t_serialized),
            "parent": "worker",
            "tags": {"bytes": len(payload)},
        },
    ]
    return payload, records


# ---------------------------------------------------------------------------
# dispatcher side
# ---------------------------------------------------------------------------
class WorkerPool:
    """Owns the worker processes and the database handoff for one service.

    ``close()`` releases everything the handoff created: the fork-token
    registry entry, and (when this pool wrote its own snapshot) the
    temp snapshot file.
    """

    def __init__(
        self,
        db: Database,
        workers: int,
        start_method: Optional[str] = None,
        snapshot_path: Optional[str] = None,
    ) -> None:
        if workers <= 0:
            raise ServiceError("worker count must be positive")
        method = start_method or default_start_method()
        if method not in START_METHODS:
            raise ServiceError(
                f"start method must be one of {START_METHODS}, got {method!r}"
            )
        if method not in multiprocessing.get_all_start_methods():
            raise ServiceError(
                f"start method {method!r} is unavailable on this platform"
            )
        self.workers = workers
        self.start_method = method
        self._fork_token: Optional[str] = None
        self._snapshot_path: Optional[str] = None
        self._owns_snapshot = False
        self._close_lock = threading.Lock()
        self._closed = False
        #: dispatcher-side introspection: pid -> latest worker_info
        #: snapshot (updated from every result and prime probe)
        self._registry_lock = threading.Lock()
        self._worker_registry: Dict[int, Dict[str, Any]] = {}
        self._in_flight = 0
        self._dispatched = 0
        if method == "fork":
            token = _fork_token_for(db)
            with _FORK_DBS_LOCK:
                _FORK_DBS[token] = db
            self._fork_token = token
            initargs: Tuple[Any, ...] = (None, token)
        else:
            if snapshot_path is None:
                fd, snapshot_path = tempfile.mkstemp(
                    prefix="repro-snapshot-", suffix=".tlcdb"
                )
                os.close(fd)
                self._owns_snapshot = True
            handle = write_snapshot(db, snapshot_path)
            self._snapshot_path = snapshot_path
            initargs = (handle, None)
        self._executor = ProcessPoolExecutor(
            max_workers=workers,
            mp_context=multiprocessing.get_context(method),
            initializer=_init_worker,
            initargs=initargs,
        )

    def _track(self, future: "Future[Any]") -> None:
        with self._registry_lock:
            self._in_flight += 1
            self._dispatched += 1
        future.add_done_callback(self._untrack)

    def _untrack(self, future: "Future[Any]") -> None:
        with self._registry_lock:
            self._in_flight -= 1

    def submit(self, item: WorkItem) -> "Future[WorkerResult]":
        """Queue one request on the worker processes."""
        future = self._executor.submit(_execute_item, item)
        self._track(future)
        return future

    def submit_blob(self, blob: bytes) -> "Future[Tuple[bytes, List[Dict[str, Any]]]]":
        """Queue one pre-pickled request on the traced wire path.

        The spans-enabled dispatcher pickles the :class:`WorkItem`
        itself (timing the hop) and ships the blob; the worker times
        its own deserialize / execute / result-serialize phases — see
        :func:`_execute_blob`.
        """
        future = self._executor.submit(_execute_blob, blob)
        self._track(future)
        return future

    def note_worker(self, info: Optional[Dict[str, Any]]) -> None:
        """Fold one worker_info snapshot into the dispatcher registry."""
        if not info or "pid" not in info:
            return
        with self._registry_lock:
            self._worker_registry[int(info["pid"])] = dict(info)

    def worker_info(self) -> List[Dict[str, Any]]:
        """Latest per-worker snapshots, sorted by pid."""
        with self._registry_lock:
            return [
                dict(info)
                for _, info in sorted(self._worker_registry.items())
            ]

    @property
    def in_flight(self) -> int:
        """Requests currently dispatched and not yet resolved."""
        with self._registry_lock:
            return self._in_flight

    @property
    def dispatched(self) -> int:
        """Requests ever dispatched to the worker processes."""
        with self._registry_lock:
            return self._dispatched

    def prime(self, timeout: Optional[float] = None) -> List[int]:
        """Start and warm every worker now; returns their pids.

        The executor starts processes on demand, one per outstanding
        item — submitting ``workers`` probes forces the whole fleet up
        front so the first real requests (and benchmark rounds) do not
        pay process start + database materialization.  Each probe also
        seeds the dispatcher-side worker registry (``/workers`` shows
        the fleet before the first request lands).
        """
        hold = 0.2 if self.workers > 1 else 0.0
        probes = [
            self._executor.submit(_ping, hold) for _ in range(self.workers)
        ]
        pids = set()
        for probe in probes:
            pid, _, info = probe.result(timeout)
            pids.add(pid)
            self.note_worker(info)
        return sorted(pids)

    def close(self, wait: bool = True) -> None:
        """Shut workers down and release the handoff artifacts."""
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
        self._executor.shutdown(wait=wait, cancel_futures=True)
        if self._fork_token is not None:
            with _FORK_DBS_LOCK:
                _FORK_DBS.pop(self._fork_token, None)
        if self._owns_snapshot and self._snapshot_path is not None:
            try:
                os.unlink(self._snapshot_path)
            except OSError:  # pragma: no cover - best-effort cleanup
                pass

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<WorkerPool workers={self.workers} "
            f"start_method={self.start_method}>"
        )
