"""Process-wide metrics: counters, gauges and log2-bucketed histograms.

The paper's evaluation argues for TLC by *measuring* operator work; a
service serving that workload needs the same numbers continuously, not
per benchmark run.  :class:`MetricsRegistry` is the aggregation point:
named metrics, optionally labelled (``engine="tlc"``), that every
instrumented layer updates through :mod:`repro.telemetry.instrument`
and that the exposition layer renders as Prometheus text or JSON.

Concurrency model.  The 8-thread service sweep must not serialise on a
single metrics mutex, and telemetry totals must be *exact*, like the
thread-striped ``Metrics`` work counters (the concurrency test
compares an 8-thread sweep's totals against a serial run).  Every
metric therefore stripes its state over :data:`SHARDS` independently
locked cells; a writer locks only the cell its thread hashes to, so
two threads contend only on an identity-hash collision, and readers
take all cell locks to produce a consistent merged value.

Histograms use base-2 exponential buckets: bucket *i* counts
observations in ``(base * 2**(i-1), base * 2**i]``.  That covers
sub-millisecond evaluator calls and multi-second slow queries in ~30
buckets, and percentile estimates interpolate inside one bucket, so
p50/p95/p99 are accurate to within a factor-2 bucket width at worst
(exact ``sum``/``count``/``min``/``max`` are tracked alongside).
"""

from __future__ import annotations

import bisect
import threading
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

#: Lock stripes per metric (a power of two; threads hash to one stripe).
SHARDS = 8

#: Label sets are carried as sorted tuples so they hash and render
#: deterministically.
LabelSet = Tuple[Tuple[str, str], ...]


def _labelset(labels: Optional[Dict[str, str]]) -> LabelSet:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _shard_index() -> int:
    return threading.get_ident() % SHARDS


class Counter:
    """A monotonically increasing value, striped over sharded locks."""

    def __init__(self) -> None:
        self._locks = [threading.Lock() for _ in range(SHARDS)]
        self._cells = [0.0] * SHARDS

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge")
        i = _shard_index()
        with self._locks[i]:
            self._cells[i] += amount

    @property
    def value(self) -> float:
        total = 0.0
        for i in range(SHARDS):
            with self._locks[i]:
                total += self._cells[i]
        return total


class Gauge:
    """A value that can go up and down (one lock; sets don't stripe)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class _HistogramCell:
    """One lock stripe of a histogram: bucket counts plus exact moments."""

    __slots__ = ("lock", "counts", "sum", "count", "min", "max")

    def __init__(self, buckets: int) -> None:
        self.lock = threading.Lock()
        self.counts = [0] * buckets
        self.sum = 0.0
        self.count = 0
        self.min = float("inf")
        self.max = float("-inf")


class Histogram:
    """Log2-bucketed distribution with percentile estimation.

    ``base`` is the upper bound of the first bucket; bucket ``i`` has
    upper bound ``base * 2**i`` and the last bucket is the +Inf
    overflow.  The default (100 µs × 28 buckets ≈ up to 3.7 h) suits
    wall-clock latencies in seconds; cardinality histograms pass
    ``base=1``.
    """

    def __init__(self, base: float = 1e-4, buckets: int = 28) -> None:
        if base <= 0 or buckets < 2:
            raise ValueError("histogram needs base > 0 and >= 2 buckets")
        self.base = base
        #: inclusive upper bounds, finite part (the +Inf bucket is extra)
        self.bounds: List[float] = [base * (2 ** i) for i in range(buckets)]
        self._cells = [_HistogramCell(buckets + 1) for _ in range(SHARDS)]

    def _bucket(self, value: float) -> int:
        return bisect.bisect_left(self.bounds, value)

    def observe(self, value: float) -> None:
        cell = self._cells[_shard_index()]
        index = self._bucket(value)
        with cell.lock:
            cell.counts[index] += 1
            cell.sum += value
            cell.count += 1
            if value < cell.min:
                cell.min = value
            if value > cell.max:
                cell.max = value

    # -- merged views ---------------------------------------------------
    def snapshot(self) -> "HistogramSnapshot":
        counts = [0] * (len(self.bounds) + 1)
        total = 0.0
        count = 0
        lo = float("inf")
        hi = float("-inf")
        for cell in self._cells:
            with cell.lock:
                for i, c in enumerate(cell.counts):
                    counts[i] += c
                total += cell.sum
                count += cell.count
                lo = min(lo, cell.min)
                hi = max(hi, cell.max)
        return HistogramSnapshot(
            bounds=list(self.bounds),
            counts=counts,
            sum=total,
            count=count,
            min=lo if count else 0.0,
            max=hi if count else 0.0,
        )

    @property
    def count(self) -> int:
        return self.snapshot().count

    def percentile(self, q: float) -> float:
        """Estimated value at quantile ``q`` in [0, 1]."""
        return self.snapshot().percentile(q)

    # -- cross-process shipping ------------------------------------------
    def export_state(self) -> Dict[str, Any]:
        """Picklable copy of this histogram's merged state.

        ``min``/``max`` are ``None`` while empty (the ±Inf sentinels do
        not survive a JSON hop and 0.0 would corrupt a later merge).
        """
        snap = self.snapshot()
        return {
            "base": self.base,
            "buckets": len(self.bounds),
            "counts": list(snap.counts),
            "sum": snap.sum,
            "count": snap.count,
            "min": snap.min if snap.count else None,
            "max": snap.max if snap.count else None,
        }

    def merge_state(self, state: Dict[str, Any]) -> None:
        """Fold an exported state (usually a worker's delta) into cell 0.

        Bucket counts, ``sum`` and ``count`` add; ``min``/``max`` fold by
        extremum, which is exact whether the shipped state is a delta or
        a lifetime snapshot (extremes are monotone).  The shipped bucket
        layout must match (same ``base``/``buckets``).
        """
        if (
            state.get("base") != self.base
            or state.get("buckets") != len(self.bounds)
        ):
            raise ValueError("histogram bucket layouts differ; cannot merge")
        counts = [int(c) for c in state["counts"]]
        total = float(state["sum"])
        count = int(state["count"])
        lo = None if state.get("min") is None else float(state["min"])
        hi = None if state.get("max") is None else float(state["max"])
        cell = self._cells[0]
        with cell.lock:
            for i, c in enumerate(counts[: len(cell.counts)]):
                cell.counts[i] += c
            cell.sum += total
            cell.count += count
            if lo is not None and lo < cell.min:
                cell.min = lo
            if hi is not None and hi > cell.max:
                cell.max = hi


class HistogramSnapshot:
    """A merged, point-in-time copy of one histogram's state."""

    def __init__(
        self,
        bounds: List[float],
        counts: List[int],
        sum: float,
        count: int,
        min: float,
        max: float,
    ) -> None:
        self.bounds = bounds
        self.counts = counts
        self.sum = sum
        self.count = count
        self.min = min
        self.max = max

    def percentile(self, q: float) -> float:
        """Quantile estimate by linear interpolation inside one bucket.

        The estimate is clamped to the observed ``[min, max]`` range, so
        a single-valued distribution reports that exact value for every
        quantile instead of a bucket bound.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be within [0, 1]")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        seen = 0
        for i, bucket_count in enumerate(self.counts):
            if bucket_count == 0:
                continue
            if seen + bucket_count >= rank:
                upper = (
                    self.bounds[i] if i < len(self.bounds) else self.max
                )
                lower = self.bounds[i - 1] if i > 0 else 0.0
                fraction = (
                    (rank - seen) / bucket_count if bucket_count else 1.0
                )
                estimate = lower + (upper - lower) * fraction
                return min(max(estimate, self.min), self.max)
            seen += bucket_count
        return self.max

    def percentiles_ms(self) -> Dict[str, float]:
        """The standard p50/p95/p99 triple, in milliseconds."""
        return {
            "p50_ms": round(self.percentile(0.50) * 1000, 3),
            "p95_ms": round(self.percentile(0.95) * 1000, 3),
            "p99_ms": round(self.percentile(0.99) * 1000, 3),
        }

    def cumulative(self) -> Iterator[Tuple[float, int]]:
        """(upper_bound, cumulative_count) pairs, ending with +Inf."""
        running = 0
        for bound, count in zip(self.bounds, self.counts):
            running += count
            yield bound, running
        yield float("inf"), running + self.counts[-1]


class MetricsRegistry:
    """Named, optionally labelled metrics with get-or-create semantics.

    One registry serves the whole process (see
    :func:`repro.telemetry.instrument.get_registry`); tests swap in a
    fresh one to isolate their totals.  Metric handles are created under
    a registry-wide lock and updated through their own sharded locks, so
    the common path — updating an existing metric — contends only on
    the metric's thread-local stripe.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[Tuple[str, LabelSet], Counter] = {}
        self._gauges: Dict[Tuple[str, LabelSet], Gauge] = {}
        self._histograms: Dict[Tuple[str, LabelSet], Histogram] = {}
        self._help: Dict[str, str] = {}

    def _describe_locked(self, name: str, help: str) -> None:
        # caller holds self._lock (the _locked-suffix convention)
        if help and name not in self._help:
            self._help[name] = help

    def counter(
        self,
        name: str,
        labels: Optional[Dict[str, str]] = None,
        help: str = "",
    ) -> Counter:
        key = (name, _labelset(labels))
        with self._lock:
            metric = self._counters.get(key)
            if metric is None:
                metric = self._counters[key] = Counter()
                self._describe_locked(name, help)
            return metric

    def gauge(
        self,
        name: str,
        labels: Optional[Dict[str, str]] = None,
        help: str = "",
    ) -> Gauge:
        key = (name, _labelset(labels))
        with self._lock:
            metric = self._gauges.get(key)
            if metric is None:
                metric = self._gauges[key] = Gauge()
                self._describe_locked(name, help)
            return metric

    def histogram(
        self,
        name: str,
        labels: Optional[Dict[str, str]] = None,
        help: str = "",
        base: float = 1e-4,
        buckets: int = 28,
    ) -> Histogram:
        key = (name, _labelset(labels))
        with self._lock:
            metric = self._histograms.get(key)
            if metric is None:
                metric = self._histograms[key] = Histogram(
                    base=base, buckets=buckets
                )
                self._describe_locked(name, help)
            return metric

    # -- read side ------------------------------------------------------
    def help_for(self, name: str) -> str:
        with self._lock:
            return self._help.get(name, "")

    def counters(self) -> Sequence[Tuple[str, LabelSet, float]]:
        with self._lock:
            items = list(self._counters.items())
        return [(n, ls, c.value) for (n, ls), c in sorted(items)]

    def gauges(self) -> Sequence[Tuple[str, LabelSet, float]]:
        with self._lock:
            items = list(self._gauges.items())
        return [(n, ls, g.value) for (n, ls), g in sorted(items)]

    def histograms(
        self,
    ) -> Sequence[Tuple[str, LabelSet, HistogramSnapshot]]:
        with self._lock:
            items = list(self._histograms.items())
        return [(n, ls, h.snapshot()) for (n, ls), h in sorted(items)]

    def snapshot(self) -> Dict[str, object]:
        """JSON-ready view of every metric (the /stats building block)."""
        counters: Dict[str, float] = {}
        gauges: Dict[str, float] = {}
        histograms: Dict[str, Dict[str, float]] = {}
        for name, labelset, value in self.counters():
            counters[_flat_name(name, labelset)] = value
        for name, labelset, value in self.gauges():
            gauges[_flat_name(name, labelset)] = value
        for name, labelset, snap in self.histograms():
            entry = {
                "count": float(snap.count),
                "sum": round(snap.sum, 6),
                "min": round(snap.min, 6),
                "max": round(snap.max, 6),
            }
            entry.update(snap.percentiles_ms())
            histograms[_flat_name(name, labelset)] = entry
        return {
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }

    # -- cross-process shipping ------------------------------------------
    def export_state(self) -> Dict[str, Any]:
        """Picklable copy of every metric, for shipping across processes.

        A process-pool worker exports before and after a request,
        computes the window with :func:`diff_states`, and ships the
        delta back with the result; the dispatcher folds it in through
        :meth:`merge_state` so ``/metrics`` stays exact while the work
        happens in another address space.
        """
        with self._lock:
            counters = list(self._counters.items())
            gauges = list(self._gauges.items())
            histograms = list(self._histograms.items())
            help_map = dict(self._help)
        return {
            "counters": [
                (name, ls, c.value) for (name, ls), c in counters
            ],
            "gauges": [(name, ls, g.value) for (name, ls), g in gauges],
            "histograms": [
                (name, ls, h.export_state()) for (name, ls), h in histograms
            ],
            "help": help_map,
        }

    def merge_state(self, state: Dict[str, Any]) -> None:
        """Fold an exported state (typically a worker's delta) into here.

        Counter and histogram contributions *add*; gauges take the
        shipped value (last writer wins — a gauge is a point-in-time
        reading, not a sum).  Metrics absent here are created with the
        shipped help text and bucket layout.
        """
        help_map: Dict[str, str] = state.get("help", {})
        for name, ls, value in state.get("counters", ()):
            labels = dict(ls) or None
            metric = self.counter(name, labels, help=help_map.get(name, ""))
            if value:
                metric.inc(float(value))
        for name, ls, value in state.get("gauges", ()):
            labels = dict(ls) or None
            self.gauge(name, labels, help=help_map.get(name, "")).set(
                float(value)
            )
        for name, ls, hstate in state.get("histograms", ()):
            labels = dict(ls) or None
            hist = self.histogram(
                name,
                labels,
                help=help_map.get(name, ""),
                base=float(hstate["base"]),
                buckets=int(hstate["buckets"]),
            )
            if hstate.get("count") or any(hstate.get("counts", ())):
                hist.merge_state(hstate)


def diff_states(
    before: Dict[str, Any], after: Dict[str, Any]
) -> Dict[str, Any]:
    """The window of registry activity between two exported states.

    Returns a state in the same shape as
    :meth:`MetricsRegistry.export_state`, suitable for
    :meth:`MetricsRegistry.merge_state`: counter values and histogram
    bucket counts / ``sum`` / ``count`` are subtracted, gauges carry the
    ``after`` reading, and histogram ``min``/``max`` carry the lifetime
    extremes (merging extremes is idempotent, so shipping them with
    every delta is safe).  Metrics absent from ``before`` diff against
    zero.
    """

    def _indexed(
        entries: Sequence[Tuple[str, LabelSet, Any]]
    ) -> Dict[Tuple[str, LabelSet], Any]:
        return {(name, tuple(ls)): value for name, ls, value in entries}

    counters_before = _indexed(before.get("counters", ()))
    hists_before = _indexed(before.get("histograms", ()))

    counters: List[Tuple[str, LabelSet, float]] = []
    for name, ls, value in after.get("counters", ()):
        before = float(counters_before.get((name, tuple(ls)), 0.0))
        delta = float(value) - before
        if delta:
            counters.append((name, tuple(ls), delta))

    histograms: List[Tuple[str, LabelSet, Dict[str, Any]]] = []
    for name, ls, hstate in after.get("histograms", ()):
        prior = hists_before.get((name, tuple(ls)))
        if prior is None:
            window = dict(hstate)
        else:
            window = {
                "base": hstate["base"],
                "buckets": hstate["buckets"],
                "counts": [
                    a - b
                    for a, b in zip(hstate["counts"], prior["counts"])
                ],
                "sum": float(hstate["sum"]) - float(prior["sum"]),
                "count": int(hstate["count"]) - int(prior["count"]),
                "min": hstate.get("min"),
                "max": hstate.get("max"),
            }
        if window["count"] or any(window["counts"]):
            histograms.append((name, tuple(ls), window))

    return {
        "counters": counters,
        "gauges": list(after.get("gauges", ())),
        "histograms": histograms,
        "help": dict(after.get("help", {})),
    }


def _flat_name(name: str, labelset: LabelSet) -> str:
    if not labelset:
        return name
    inner = ",".join(f"{k}={v}" for k, v in labelset)
    return f"{name}{{{inner}}}"
