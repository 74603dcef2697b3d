"""The prepared-plan cache: a bounded LRU of compiled query plans.

Every ``Engine.run`` re-parses, re-translates, re-analyzes and (with
``optimize``) re-rewrites the query before a single index is probed.
For a service answering repeated queries that compile work is pure
rework — the documents are immutable between loads and translation is
deterministic, so the plan for a given ``(query text, engine, rewrite
config)`` never changes while the database generation stands still.

:class:`PlanCache` memoises :class:`~repro.xquery.translator.TranslationResult`
objects keyed on the *normalized* query text (insignificant whitespace
collapses, so reformatting a query does not defeat the cache), the
engine name and the rewrite flag.  Entries carry the
:attr:`~repro.storage.database.Database.generation` they were compiled
under; a lookup after a document (re)load sees a stale generation and
recompiles (counted as an eviction + miss), so the cache can never serve
a plan compiled against data that has been replaced.

The cache is safe for concurrent use: lookups and inserts hold a lock,
while compilation happens *outside* it (two racing threads may compile
the same query once each — both count as misses, the second insert
wins — which is cheaper than serialising every compile behind the
lock).  Plans themselves are immutable once built and the evaluator
never mutates operator trees, so one cached plan can execute on many
threads at once.

Hit/miss/eviction counts are mirrored into the database's
:class:`~repro.storage.stats.Metrics` (``plan_cache_hits`` /
``plan_cache_misses`` / ``plan_cache_evictions``), so they appear in
every counter snapshot, ``--stats`` line and trace report alongside the
scan-cache and fast-path counters.
"""

from __future__ import annotations

import re
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

from ..storage.stats import Metrics
from ..xquery.translator import TranslationResult

#: Default number of prepared plans kept resident.
DEFAULT_CACHE_SIZE = 64

#: One token of a query, scanned left to right: a string literal or an
#: XQuery comment (kept verbatim), the rest of the text from the first
#: ``<`` (element constructors can start there), or a whitespace run.
#: The parser's own whitespace is exactly `` \t\r\n``.
_TOKEN = re.compile(
    r"""("[^"]*"|'[^']*'|“[^”]*”|“[^“]*“|”[^”]*”"""
    r"""|\(:.*?:\))|(<.*)|[ \t\r\n]+""",
    re.DOTALL,
)

#: In that rest: everything from the first quote on (kept verbatim), a
#: bare tag and the run after it, or a run right before ``<``, ``{`` or
#: ``$``.
_CONSTRUCTOR_TOKEN = re.compile(
    r"""(["'“”].*)|(</?[A-Za-z_][\w.\-]*/?>)[ \t\r\n]+"""
    r"|[ \t\r\n]+(?=[<{$])",
    re.DOTALL,
)


def _collapse(match: "re.Match[str]") -> str:
    """A kept token verbatim, a whitespace run as one space."""
    kept, rest = match.groups()
    if rest is not None:
        return _CONSTRUCTOR_TOKEN.sub(_collapse_constructor, rest)
    return kept or " "


def _collapse_constructor(match: "re.Match[str]") -> str:
    kept, tag = match.groups()
    if kept is not None:
        return kept
    return (tag or "") + " "


def normalize_query(text: str) -> str:
    """Canonical cache form of a query: insignificant whitespace collapsed.

    Two texts share a form only if they parse to the same AST: an
    extra cache miss is harmless, a shared key serves one query's plan
    for another's.  Whitespace inside string literals and inside element
    constructor text is part of the query, so only runs that are
    provably insignificant become one space:

    * before the first ``<``, the text is all expressions (FOR, LET,
      WHERE, ORDER BY, RETURN clauses), where every run outside a string
      literal or comment separates tokens;
    * from the first ``<`` on, where constructor text may begin, only a
      run right after a bare tag (``<a>``, ``</a>``, ``<a/>``) or right
      before ``<``, ``{`` or ``$``: constructor text cannot contain a
      tag and is trimmed at both ends.  And only up to the first quote
      character, since an apostrophe in constructor text is not a
      string literal and would misalign the literals after it.

    Leading and trailing whitespace is dropped.  So differently
    indented copies of one query still share a cache entry.
    """
    return _TOKEN.sub(_collapse, text).strip(" \t\r\n")


@dataclass(frozen=True)
class PlanCacheKey:
    """Identity of one prepared plan: query × engine × rewrite config."""

    text: str  # normalized query text
    engine: str
    optimize: bool


@dataclass
class CacheStats:
    """A point-in-time snapshot of one cache's behaviour."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    size: int = 0
    capacity: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when unused)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class PlanCache:
    """Bounded LRU of compiled plans with generation invalidation."""

    def __init__(
        self,
        capacity: int = DEFAULT_CACHE_SIZE,
        metrics: Optional[Metrics] = None,
    ) -> None:
        if capacity <= 0:
            raise ValueError("plan cache capacity must be positive")
        self.capacity = capacity
        self.metrics = metrics
        self._lock = threading.Lock()
        #: key -> (database generation at compile time, compiled plan)
        self._entries: "OrderedDict[PlanCacheKey, Tuple[int, TranslationResult]]" = (
            OrderedDict()
        )
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    # ------------------------------------------------------------------
    # the lookup protocol
    # ------------------------------------------------------------------
    def get(
        self, key: PlanCacheKey, generation: int
    ) -> Optional[TranslationResult]:
        """The cached plan for ``key`` at ``generation``, or None.

        A stale entry (compiled under an older database generation) is
        dropped and counted as an eviction; the lookup is then a miss.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                if entry[0] == generation:
                    self._entries.move_to_end(key)
                    self._hits += 1
                    if self.metrics is not None:
                        self.metrics.plan_cache_hits += 1
                    return entry[1]
                del self._entries[key]
                self._evictions += 1
                if self.metrics is not None:
                    self.metrics.plan_cache_evictions += 1
            self._misses += 1
            if self.metrics is not None:
                self.metrics.plan_cache_misses += 1
            return None

    def put(
        self,
        key: PlanCacheKey,
        generation: int,
        translation: TranslationResult,
    ) -> None:
        """Insert a freshly compiled plan, evicting LRU past capacity."""
        with self._lock:
            self._entries[key] = (generation, translation)
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self._evictions += 1
                if self.metrics is not None:
                    self.metrics.plan_cache_evictions += 1

    def get_or_compile(
        self,
        key: PlanCacheKey,
        generation: int,
        compile_fn: Callable[[], TranslationResult],
    ) -> Tuple[TranslationResult, bool]:
        """The plan for ``key``, compiling on miss; returns (plan, hit).

        Compilation runs outside the lock: concurrent misses on one key
        compile independently rather than queueing every other query
        behind one compile.
        """
        cached = self.get(key, generation)
        if cached is not None:
            return cached, True
        translation = compile_fn()
        self.put(key, generation, translation)
        return translation, False

    # ------------------------------------------------------------------
    # introspection and maintenance
    # ------------------------------------------------------------------
    def stats(self) -> CacheStats:
        """Snapshot of hit/miss/eviction counts and occupancy."""
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                size=len(self._entries),
                capacity=self.capacity,
            )

    def clear(self) -> None:
        """Drop every cached plan (counts are kept)."""
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: PlanCacheKey) -> bool:
        with self._lock:
            return key in self._entries

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        stats = self.stats()
        return (
            f"<PlanCache {stats.size}/{stats.capacity} "
            f"hits={stats.hits} misses={stats.misses} "
            f"evictions={stats.evictions}>"
        )
