"""Findings of the CC1xx concurrency lint.

The lint (:mod:`.concurrency`) reports :class:`CheckFinding` records
rather than plan-anchored :class:`~repro.analysis.diagnostics.Diagnostic`
objects: a finding names a *location* (a source file) and a *symbol*
within it, and its identity — the ``key`` — deliberately omits line
numbers so that unrelated edits do not change which finding a reviewer
has already accepted.  Every CC code is an error.
"""

from __future__ import annotations

from dataclasses import dataclass

#: A module-level global is rebound from function scope (``global X``)
#: without a lock held — concurrent callers race on the swap.
GLOBAL_REBIND = "CC101"
#: An instance attribute of a shared-scope class (service/telemetry) is
#: written outside ``__init__`` without the writer holding a lock.
UNGUARDED_ATTR_WRITE = "CC102"
#: Two functions acquire the same pair of locks in opposite orders — a
#: deadlock waiting for the right interleaving.
LOCK_ORDER_CYCLE = "CC103"
#: Check-then-set lazy initialisation (``if self._x is None: self._x =
#: ...``) outside a lock — two threads can both run the initialiser.
UNSAFE_LAZY_INIT = "CC104"
#: A module-level mutable container is mutated from function scope
#: without a lock held.
GLOBAL_MUTATION = "CC105"


@dataclass(frozen=True)
class CheckFinding:
    """One finding of the concurrency lint.

    ``location`` is the source path relative to the package root;
    ``symbol`` is the specific item within it (``Class.method``,
    ``module:GLOBAL`` or an attribute path).  ``line`` is display-only
    and excluded from the ``key``.
    """

    code: str
    location: str
    symbol: str
    message: str
    line: int = 0

    @property
    def key(self) -> str:
        """Line-independent identity of the finding."""
        return f"{self.code} {self.location}::{self.symbol}"

    def render(self) -> str:
        where = (
            f"{self.location}:{self.line}" if self.line else self.location
        )
        return f"{self.code} error: {where} [{self.symbol}] {self.message}"
