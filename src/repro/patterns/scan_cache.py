"""Query-scoped memoisation of index scans and APT-leaf matches.

A TLC plan routinely evaluates several Select operators whose pattern
trees scan the *same* tag with the *same* content predicate — the FOR
clause binds ``//person``, the RETURN paths scan ``name`` and ``age``,
a correlated sub-plan scans ``//person`` again.  The stored documents
are immutable for the duration of one plan execution, so those repeated
scans (index probe + record fetch per posting + predicate filter) are
pure rework.

:class:`ScanCache` memoises the candidate lists of pattern-node scans
within one query execution, keyed on ``(doc, tag, predicate)``.  A fresh
cache is created per :class:`~repro.core.base.Context` — i.e. per
``Engine.run_plan`` — so nothing leaks across queries or documents
reloaded between runs.  Hits are metered as ``Metrics.scan_cache_hits``
(and the skipped index/record work simply never happens, which is why
the work counters of a cached run are never higher than an uncached
one).

**Lifetime contract.**  A cache serves *one database* and *one query
execution at a time*.  The keys carry the document name, so entries
could not collide across documents of one database — but entries built
against one :class:`~repro.storage.database.Database` are meaningless
against another, and two *concurrent* executions sharing a cache would
race on entry construction and cross-pollinate their metering.  The
evaluator therefore brackets every execution with
:meth:`ScanCache.begin_query` / :meth:`ScanCache.end_query`:

* sequential reuse (benchmark warm runs over immutable data) is fine —
  begin/end pairs nest zero-deep between runs;
* entering a cache that is already inside an execution, or moving it to
  a different database, raises
  :class:`~repro.errors.ScanCacheLifetimeError`.

This is exactly the trap a service layer could fall into by handing one
cache to its thread pool; :class:`repro.service.QueryService` creates a
fresh cache per request, and this assertion keeps it honest.

:class:`Candidates` is the list type the matcher builds candidate lists
with: a plain ``list`` that can additionally carry the columnar
``starts``/``levels`` probe columns a structural join attaches on first
use (see :func:`repro.physical.structural_join.child_columns`), so a
cached scan's join columns are computed once per query, not once per
join — and not at all when the scan hands over the postings' own.
"""

from __future__ import annotations

from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..storage.stats import Metrics
from ..telemetry import hooks as telemetry

#: Cache key: (document name, tag test, content comparisons).
ScanKey = Tuple[Hashable, ...]


class Candidates(List[Any]):
    """Candidate-match list that can cache its columnar probe columns.

    ``starts``/``levels`` are the columns a structural join attached
    (``None`` until the first join over the list).  A scan that already
    holds them — a tag's postings columns, shared as they are, or taken
    by surviving position under a predicate — leaves them in ``ready``:
    the first join adopts those instead of deriving them item by item,
    and ``postings_reused`` still counts second and later joins only.
    Nothing ever writes into a column, so sharing one with the index
    (and, through the scan cache, between joins) is safe.
    """

    starts: Optional[Sequence[Tuple[int, int]]]
    levels: Optional[Sequence[int]]
    ready: Optional[Tuple[Sequence[Tuple[int, int]], Sequence[int]]]

    # list subclasses carry a __dict__ unless slotted; keep the column
    # attributes explicit so mypy and readers see the contract
    __slots__ = ("starts", "levels", "ready")

    def __init__(self, *args: Any) -> None:
        super().__init__(*args)
        self.starts = None
        self.levels = None
        self.ready = None


class ScanCache:
    """Memo of identical scans within one plan execution.

    See the module docstring for the single-database, single-execution
    lifetime contract enforced by :meth:`begin_query`/:meth:`end_query`.
    """

    def __init__(self, metrics: Optional[Metrics] = None) -> None:
        self._entries: Dict[ScanKey, Candidates] = {}
        self.metrics = metrics
        #: identity of the database this cache's entries were built
        #: against (pinned on first begin_query)
        self._db: Optional[object] = None
        #: True while an execution is inside begin_query/end_query
        self._active = False

    # ------------------------------------------------------------------
    # lifetime bracketing (called by the evaluator)
    # ------------------------------------------------------------------
    def begin_query(self, db: object) -> None:
        """Enter one query execution; assert the lifetime contract.

        Raises :class:`~repro.errors.ScanCacheLifetimeError` when the
        cache is already inside another execution (concurrent sharing)
        or was previously used against a different database.
        """
        from ..errors import ScanCacheLifetimeError

        if self._active:
            raise ScanCacheLifetimeError(
                "ScanCache is already in use by another query execution; "
                "a scan cache is query-scoped — create one per request "
                "(concurrent requests must never share one)"
            )
        if self._db is not None and self._db is not db:
            raise ScanCacheLifetimeError(
                "ScanCache was built against a different Database; its "
                "entries are meaningless here — create a fresh cache"
            )
        self._db = db
        self._active = True

    def end_query(self) -> None:
        """Leave the current query execution (keeps the entries warm)."""
        self._active = False

    def candidates(
        self, key: ScanKey, build: Callable[[], Candidates]
    ) -> Candidates:
        """The cached candidate list for ``key``, building it on miss.

        The returned list is shared between all scans with the same key:
        callers treat it (and the match variants inside) as immutable,
        which the matcher guarantees — combination always builds fresh
        variant objects.
        """
        hit = self._entries.get(key)
        if hit is not None:
            if self.metrics is not None:
                self.metrics.scan_cache_hits += 1
            if telemetry.enabled():
                telemetry.instrument("scan_cache.hit")
            return hit
        value = build()
        self._entries[key] = value
        if telemetry.enabled():
            telemetry.instrument("scan_cache.miss")
        return value

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        """Drop every memoised scan (the cache becomes cold).

        Also unpins the database identity: an empty cache can be safely
        re-entered against any database.
        """
        self._entries.clear()
        self._db = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<ScanCache entries={len(self._entries)}>"
