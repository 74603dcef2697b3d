"""Execution metrics for the storage and physical layers.

The paper's experiments report wall-clock time on a specific 2004 machine.
Our substrate is a Python simulation, so in addition to wall time the bench
harness reports *work counters* that explain the shape of every result:
page reads through the buffer pool, node records touched, structural joins
executed, group-by restructurings (the expensive operation TAX/GTP rely on),
and navigation steps (children fetched by the navigational baseline).

Concurrency model.  :class:`Metrics` is shared by a database, its buffer
pool, its documents and every evaluator over them, so a concurrent query
service writes to it from many threads at once.  The counters are striped
per thread (:class:`threading.local` cells): an increment touches only the
calling thread's cell, so

* increments never race and never drop — :meth:`snapshot` totals are
  *exact* under concurrency, not best-effort;
* a worker thread's own window is observable in isolation —
  :meth:`local_snapshot` / :meth:`local_diff` give the service layer
  request-scoped counter attribution (a request runs wholly on one
  thread, so the thread's delta *is* the request's delta, with no bleed
  from concurrent requests);
* pickling (process-pool workers ship a database to a child, and ship
  counter deltas back) reduces a Metrics to its merged totals — see
  :meth:`merge` for folding a shipped delta back in.

Cells are registered when a thread first touches the bundle and are kept
alive past thread exit, so totals never lose a finished worker's counts.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..trace.model import PlanTrace

#: Every counter carried by :class:`Metrics`, in rendering order.
#:
#: ``scan_cache_hits`` / ``postings_reused`` observe the columnar fast
#: path (identical scans served from the query-scoped ScanCache, joins
#: that consumed precomputed posting columns); the ``plan_cache_*``
#: counters mirror the service layer's prepared-plan LRU.
COUNTER_FIELDS: Tuple[str, ...] = (
    "pages_read",
    "pages_written",
    "buffer_hits",
    "nodes_touched",
    "index_lookups",
    "index_entries_scanned",
    "structural_joins",
    "value_joins",
    "nest_joins",
    "groupby_ops",
    "pattern_matches",
    "navigation_steps",
    "trees_built",
    "sort_ops",
    "scan_cache_hits",
    "postings_reused",
    "plan_cache_hits",
    "plan_cache_misses",
    "plan_cache_evictions",
    "batch_ops",
    "batch_rows",
    "batch_fallbacks",
)

#: Metrics instance -> the per-thread cell dicts it has handed out.
#: Values hold strong references to the cells so a dead worker thread's
#: counts stay in the totals; the instance key is weak so the registry
#: does not keep databases alive.
_CELLS: "weakref.WeakKeyDictionary[Metrics, List[Dict[str, int]]]" = (
    weakref.WeakKeyDictionary()
)
_CELLS_LOCK = threading.Lock()


def _register_cell(metrics: "Metrics", cell: Dict[str, int]) -> None:
    with _CELLS_LOCK:
        _CELLS.setdefault(metrics, []).append(cell)


def _cells_of(metrics: "Metrics") -> List[Dict[str, int]]:
    with _CELLS_LOCK:
        return list(_CELLS.get(metrics, ()))


def _metrics_from_totals(totals: Dict[str, int]) -> "Metrics":
    """Pickle reconstructor: a fresh bundle pre-loaded with ``totals``."""
    metrics = Metrics()
    metrics.merge(totals)
    return metrics


class Metrics(threading.local):
    """Thread-striped counter bundle shared by a database's evaluators.

    Reads and writes of the plain counter attributes touch the *calling
    thread's* cell only (cheap, lock-free, race-free); the merged views
    below aggregate across every thread that ever touched the bundle.
    """

    def __init__(self) -> None:
        # runs once per (instance, thread): threading.local re-invokes
        # __init__ the first time a new thread touches the object
        for name in COUNTER_FIELDS:
            setattr(self, name, 0)
        _register_cell(self, vars(self))

    # ------------------------------------------------------------------
    # merged views (totals across every thread)
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Point-in-time totals across all threads, as a plain dict."""
        totals = dict.fromkeys(COUNTER_FIELDS, 0)
        for cell in _cells_of(self):
            for name in COUNTER_FIELDS:
                totals[name] += cell.get(name, 0)
        return totals

    def diff(self, before: dict) -> dict:
        """Totals accumulated since ``before`` (a prior :meth:`snapshot`)."""
        now = self.snapshot()
        return {
            name: now[name] - before.get(name, 0) for name in COUNTER_FIELDS
        }

    # ------------------------------------------------------------------
    # thread-local views (request-scoped attribution)
    # ------------------------------------------------------------------
    def local_snapshot(self) -> dict:
        """The calling thread's own counters (request-scoped window).

        A service request executes wholly on one worker thread, so a
        ``local_snapshot`` / :meth:`local_diff` pair around it measures
        exactly that request's work — concurrent requests on other
        threads cannot bleed into the window.
        """
        return {name: getattr(self, name) for name in COUNTER_FIELDS}

    def local_diff(self, before: dict) -> dict:
        """Calling-thread counters since ``before`` (a local snapshot)."""
        return {
            name: getattr(self, name) - before.get(name, 0)
            for name in COUNTER_FIELDS
        }

    # ------------------------------------------------------------------
    # maintenance and aggregation
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Zero every counter in every thread's cell."""
        for cell in _cells_of(self):
            for name in COUNTER_FIELDS:
                cell[name] = 0

    def merge(self, delta: Dict[str, int]) -> None:
        """Fold a shipped counter delta into the calling thread's cell.

        The process-pool dispatcher calls this with the delta a worker
        shipped back, from the dispatcher thread that owns the request —
        so the merged counts land inside that request's
        :meth:`local_diff` window *and* in the global totals.
        Unknown keys are ignored (forward compatibility with snapshots
        from newer workers).
        """
        for name in COUNTER_FIELDS:
            value = delta.get(name, 0)
            if value:
                setattr(self, name, getattr(self, name) + value)

    def __add__(self, other: "Metrics") -> "Metrics":
        merged = Metrics()
        ours, theirs = self.snapshot(), other.snapshot()
        merged.merge(ours)
        merged.merge(theirs)
        return merged

    def __reduce__(self):
        # a pickled Metrics collapses to its merged totals: the copy a
        # spawn-mode worker reconstructs starts from the same numbers
        return (_metrics_from_totals, (self.snapshot(),))


@dataclass(frozen=True)
class CardinalityStats:
    """Per-(document, tag) node counts for the cardinality interpreter.

    A frozen snapshot of the tag indexes: how many nodes each tag has in
    each document, plus per-document totals.  The static analyzer's
    interval interpretation (``analysis/cardinality.py``) propagates
    these through a plan to bound every operator's output cardinality,
    which ``explain --lint`` prints and the LC3xx rules check.
    """

    #: doc name -> tag -> node count
    tag_counts: Dict[str, Dict[str, int]]
    #: doc name -> total node count
    totals: Dict[str, int]

    @classmethod
    def from_database(cls, db) -> "CardinalityStats":
        """Snapshot the tag indexes of every loaded document."""
        tag_counts: Dict[str, Dict[str, int]] = {}
        totals: Dict[str, int] = {}
        for name in db.document_names():
            index = db.tag_index(name)
            counts = {tag: index.count(tag) for tag in index.tags()}
            tag_counts[name] = counts
            totals[name] = sum(counts.values())
        return cls(tag_counts, totals)

    def tag_count(
        self, doc: Optional[str], tag: Optional[str]
    ) -> Optional[int]:
        """Nodes of ``tag`` in ``doc``; None when unknown.

        A ``None`` doc (an extension pattern matching inside trees of
        unrecorded provenance) falls back to the count across *all*
        loaded documents — any node of the tag lives in some document.
        A ``None`` tag is a wildcard node: bounded by the total node
        count.  A named but unloaded document is unknown.
        """
        if doc is None:
            if tag is None:
                return self.database_nodes
            return sum(
                counts.get(tag, 0) for counts in self.tag_counts.values()
            )
        if doc not in self.tag_counts:
            return None
        if tag is None:
            return self.totals[doc]
        return self.tag_counts[doc].get(tag, 0)

    def total(self, doc: Optional[str]) -> Optional[int]:
        if doc is None:
            return None
        return self.totals.get(doc)

    @property
    def database_nodes(self) -> int:
        """Total nodes across every document (blowup-threshold anchor)."""
        return sum(self.totals.values())


@dataclass
class QueryReport:
    """One benchmark observation: timing plus the counter snapshot."""

    engine: str
    query: str
    seconds: float
    counters: dict = field(default_factory=dict)
    result_trees: int = 0
    #: per-operator execution trace when measured with ``trace=True``
    trace: Optional["PlanTrace"] = None

    def row(self) -> tuple:
        """Compact tuple for tabular reports."""
        return (
            self.query,
            self.engine,
            round(self.seconds, 4),
            self.result_trees,
            self.counters.get("pages_read", 0),
            self.counters.get("nodes_touched", 0),
            self.counters.get("structural_joins", 0),
            self.counters.get("groupby_ops", 0),
        )
