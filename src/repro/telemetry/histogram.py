"""Log2-bucketed latency histograms with percentile estimation.

The query service keeps its request latencies in these: one histogram
for every request, one per engine (``repro_request_seconds{engine}``)
and one per query class (the ``/stats`` percentiles).  Many worker
threads observe into the same histogram, so each one stripes its state
over :data:`SHARDS` independently locked cells; a writer locks only
the cell its thread hashes to, so two threads contend only on an
identity-hash collision, and readers take all cell locks to produce a
consistent merged snapshot.

Bucket *i* counts observations in ``(base * 2**(i-1), base * 2**i]``.
That covers sub-millisecond requests and multi-second slow queries in
~30 buckets, and percentile estimates interpolate inside one bucket,
so p50/p95/p99 are accurate to within a factor-2 bucket width at worst
(exact ``sum``/``count``/``min``/``max`` are tracked alongside).
"""

from __future__ import annotations

import bisect
import threading
from typing import Dict, Iterator, List, Tuple

#: Lock stripes per histogram (threads hash to one stripe).
SHARDS = 8


def _shard_index() -> int:
    return threading.get_ident() % SHARDS


def new_latency_histogram() -> "Histogram":
    """A request-latency histogram: 100 µs first bucket, 28 buckets."""
    return Histogram(base=1e-4, buckets=28)


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
    wall-clock latencies in seconds.
    """

    def __init__(self, base: float = 1e-4, buckets: int = 28) -> None:
        if base <= 0 or buckets < 2:
            raise ValueError("histogram needs base > 0 and >= 2 buckets")
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
