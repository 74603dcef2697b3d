"""Check findings and the reviewed suppression baseline.

The ``repro check`` passes (concurrency lint, cardinality bounds) report
:class:`CheckFinding` records rather than plan-anchored
:class:`~repro.analysis.diagnostics.Diagnostic` objects: a finding names
a *location* (a source file or a benchmark query) and a *symbol* within
it, and its identity — the ``key`` — deliberately omits line numbers so
that unrelated edits do not invalidate a reviewed suppression.

The baseline file (``tools/check_baseline.json``) is the list of
findings a reviewer has looked at and accepted.  ``repro check`` fails
only on findings whose key is *not* in the baseline; a baseline entry
whose finding no longer fires is *stale* and reported so the file keeps
shrinking as code improves (CI runs with ``--strict-baseline`` and
fails on drift in either direction).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

from .diagnostics import Severity

# -- concurrency lint (pass 1) ----------------------------------------
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

#: code -> (severity, one-line description) for check findings.  LC3xx
#: findings reuse the plan-diagnostic catalogue in ``diagnostics.py``.
CHECK_CATALOG: Dict[str, Tuple[Severity, str]] = {
    GLOBAL_REBIND: (
        Severity.ERROR,
        "module global rebound from function scope without a lock",
    ),
    UNGUARDED_ATTR_WRITE: (
        Severity.ERROR,
        "shared attribute written outside a held-lock scope",
    ),
    LOCK_ORDER_CYCLE: (
        Severity.ERROR,
        "locks are acquired in inconsistent order across functions",
    ),
    UNSAFE_LAZY_INIT: (
        Severity.ERROR,
        "check-then-set lazy initialisation without a lock",
    ),
    GLOBAL_MUTATION: (
        Severity.ERROR,
        "module-level mutable container mutated without a lock",
    ),
}


@dataclass(frozen=True)
class CheckFinding:
    """One finding of a ``repro check`` pass.

    ``location`` is where the finding lives (a source path relative to
    the package root, an object name, or ``xmark:<query>``); ``symbol``
    is the specific item within it (``Class.method``, ``module:GLOBAL``
    or an attribute path).  ``line`` is display-only and excluded from
    the suppression key.
    """

    code: str
    location: str
    symbol: str
    message: str
    line: int = 0

    @property
    def severity(self) -> Severity:
        from .diagnostics import CATALOG

        if self.code in CHECK_CATALOG:
            return CHECK_CATALOG[self.code][0]
        return CATALOG[self.code][0]

    @property
    def is_error(self) -> bool:
        return self.severity is Severity.ERROR

    @property
    def key(self) -> str:
        """Line-independent identity used by the suppression baseline."""
        return f"{self.code} {self.location}::{self.symbol}"

    def render(self) -> str:
        where = (
            f"{self.location}:{self.line}" if self.line else self.location
        )
        return (
            f"{self.code} {self.severity}: {where} [{self.symbol}] "
            f"{self.message}"
        )


@dataclass
class Baseline:
    """The reviewed suppressions: key -> reason."""

    suppressions: Dict[str, str]

    @classmethod
    def load(cls, path: Path) -> "Baseline":
        payload = json.loads(Path(path).read_text())
        entries = payload.get("suppressions", [])
        suppressions = {}
        for entry in entries:
            suppressions[entry["key"]] = entry.get("reason", "")
        return cls(suppressions)

    @classmethod
    def empty(cls) -> "Baseline":
        return cls({})

    def save(self, path: Path) -> None:
        payload = {
            "version": 1,
            "suppressions": [
                {"key": key, "reason": reason}
                for key, reason in sorted(self.suppressions.items())
            ],
        }
        Path(path).write_text(json.dumps(payload, indent=2) + "\n")

    def split(
        self, findings: Sequence[CheckFinding]
    ) -> Tuple[List[CheckFinding], List[CheckFinding], List[str]]:
        """Partition findings into (new, suppressed) plus stale keys."""
        new: List[CheckFinding] = []
        suppressed: List[CheckFinding] = []
        fired = set()
        for finding in findings:
            fired.add(finding.key)
            if finding.key in self.suppressions:
                suppressed.append(finding)
            else:
                new.append(finding)
        stale = sorted(set(self.suppressions) - fired)
        return new, suppressed, stale
