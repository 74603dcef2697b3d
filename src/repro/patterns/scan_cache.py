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

:class:`Candidates` is the one candidate type of the matcher — what a
scan returns, what this cache holds and what a pattern node's match
result is.  A scan's candidates are a *column view* (``ids`` / ``tag`` /
``values`` plus the probe columns): structural joins read the columns,
and a :class:`MatchVariant` object exists only for what a join kept
("materialise on keep", DESIGN §10).  A cached scan's join columns are
computed once per query, not once per join — and not at all when the
scan hands over the postings' own.
"""

from __future__ import annotations

from itertools import repeat
from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..storage.stats import Metrics
from ..telemetry import hooks as telemetry

#: Cache key: (document name, tag test, content comparisons).
ScanKey = Tuple[Hashable, ...]


class MatchVariant:
    """One match variant of a pattern node: identity plus per-edge slots.

    ``slots`` holds one *alternative* per pattern edge — the children
    placed under this node for that edge: a list of variants, or for a
    leaf child pattern a ``(view, lo, hi)`` run of a candidate view's
    columns (no object per child).  ``ref`` is set when the match lives
    in an in-memory tree (the node is marked rather than copied);
    otherwise ``nid/tag/value`` describe a stored node to materialise.
    """

    __slots__ = ("nid", "tag", "value", "slots", "ref")

    def __init__(
        self,
        nid: Any,
        tag: str,
        value: Any,
        slots: Optional[List[Any]] = None,
        ref: Any = None,
    ) -> None:
        self.nid = nid
        self.tag = tag
        self.value = value
        self.slots: List[Any] = slots if slots is not None else []
        self.ref = ref


class Candidates(Sequence[MatchVariant]):
    """Candidate matches of one pattern node, as columns.

    A scan builds the view over ``ids`` (document order), ``tag`` — one
    string, or a column under a wildcard test — and ``values``; indexing,
    slicing or iterating it creates fresh slot-less variants, which is
    what a consumer that reads columns instead never pays for.  The
    match result of a pattern node *with* edges wraps the variants the
    joins kept (:meth:`of`): ``items`` holds them and ``ids`` their node
    ids, and indexing returns those objects.

    ``starts``/``levels`` are the probe columns a structural join
    attached (``None`` until the first join over the view as the child
    side).  A scan leaves the columns it holds — a tag's postings
    columns, shared as they are, or taken by surviving position under a
    predicate — in ``ready``: the first join adopts those instead of
    deriving them, and ``postings_reused`` still counts second and later
    joins only.  ``flat`` says no candidate contains another (see
    :func:`repro.physical.structural_join.probe`).  Nothing ever writes
    into a column, so sharing one with the index (and, through the scan
    cache, between joins) is safe.
    """

    __slots__ = (
        "ids", "tag", "values", "items", "starts", "levels", "ready", "flat"
    )

    def __init__(
        self,
        ids: Sequence[Any] = (),
        tag: Union[str, Sequence[str]] = "",
        values: Sequence[Any] = (),
        ready: Optional[
            Tuple[Sequence[Tuple[int, int]], Sequence[int]]
        ] = None,
        flat: bool = False,
    ) -> None:
        self.ids = ids
        self.tag = tag
        self.values = values
        self.items: Optional[List[MatchVariant]] = None
        self.starts: Optional[Sequence[Tuple[int, int]]] = None
        self.levels: Optional[Sequence[int]] = None
        self.ready = ready
        self.flat = flat

    @classmethod
    def of(cls, items: List[MatchVariant]) -> "Candidates":
        """The view over variants that already exist (a join's output)."""
        view = cls([item.nid for item in items])
        view.items = items
        return view

    def run_tags(self, lo: int, hi: int) -> Iterable[str]:
        """The tags of candidates ``lo:hi`` (a repeat, or a column slice)."""
        tag = self.tag
        return repeat(tag, hi - lo) if isinstance(tag, str) else tag[lo:hi]

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, index: Union[int, slice]) -> Any:
        if self.items is not None:
            return self.items[index]
        if isinstance(index, slice):
            lo, hi, _ = index.indices(len(self.ids))
            return list(
                map(
                    MatchVariant,
                    self.ids[lo:hi],
                    self.run_tags(lo, hi),
                    self.values[lo:hi],
                )
            )
        tag = self.tag
        return MatchVariant(
            self.ids[index],
            tag if isinstance(tag, str) else tag[index],
            self.values[index],
        )

    def __iter__(self) -> Iterator[MatchVariant]:
        return iter(self[:])


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

    def peek(self, key: ScanKey) -> Optional[Candidates]:
        """The cached view for ``key`` (metered as a hit), or None."""
        hit = self._entries.get(key)
        if hit is not None:
            if self.metrics is not None:
                self.metrics.scan_cache_hits += 1
            if telemetry.enabled():
                telemetry.instrument("scan_cache.hit")
        return hit

    def candidates(
        self, key: ScanKey, build: Callable[[], Candidates]
    ) -> Candidates:
        """The cached candidate list for ``key``, building it on miss.

        The returned view is shared between all scans with the same key:
        callers treat it and its columns as immutable, which the matcher
        guarantees — it only reads them, and every variant it builds is
        a fresh object.
        """
        hit = self.peek(key)
        if hit is not None:
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
