"""Exception hierarchy for the TLC reproduction.

Every error raised by this package derives from :class:`ReproError` so that
callers can catch library failures without masking programming errors.
"""

from __future__ import annotations

from typing import Optional, Tuple


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class PicklesByArguments:
    """Mixin: pickle as ``type(*arguments)``, not ``type(*self.args)``
    (``args`` holds the formatted message).  A subclass names its
    constructor arguments in ``_arguments``, each kept as an attribute.
    """

    _arguments: Tuple[str, ...] = ()

    def __reduce__(self):
        return type(self), tuple(getattr(self, n) for n in self._arguments)


class StorageError(ReproError):
    """Raised for failures in the storage layer (pages, documents, indexes)."""


class XMLParseError(StorageError):
    """Raised when an XML document cannot be parsed."""

    def __init__(self, message: str, line: int = -1, column: int = -1):
        location = f" at line {line}, column {column}" if line >= 0 else ""
        super().__init__(f"{message}{location}")
        self.line = line
        self.column = column


class PatternError(ReproError):
    """Raised for malformed annotated pattern trees or match requests."""


class AlgebraError(ReproError):
    """Raised when a TLC algebra operator receives invalid input.

    The paper requires several operators (Join predicates, Flatten, Shadow,
    Duplicate-Elimination) to be applied to logical classes that bind to
    singleton sets; violating that contract "generates an error" (Section
    2.3), which surfaces as this exception.
    """


class CardinalityError(AlgebraError):
    """Raised when a logical class does not bind to the required singleton."""

    def __init__(self, lcl: int, found: int, operator: str):
        super().__init__(
            f"operator {operator} requires logical class {lcl} to bind to a "
            f"singleton set per tree, found {found} nodes"
        )
        self.lcl = lcl
        self.found = found
        self.operator = operator


class XQueryError(ReproError):
    """Base class for XQuery front-end failures."""


class XQuerySyntaxError(XQueryError):
    """Raised when the query text does not conform to the Figure 5 grammar."""

    def __init__(self, message: str, line: int = -1, column: int = -1):
        location = f" at line {line}, column {column}" if line >= 0 else ""
        super().__init__(f"{message}{location}")
        self.line = line
        self.column = column


class TranslationError(XQueryError):
    """Raised when a parsed query cannot be translated to a TLC plan."""


class RewriteError(ReproError):
    """Raised when a rewrite rule is applied to a plan it does not match."""


class EvaluationError(ReproError):
    """Raised when plan evaluation fails at runtime."""


class ExecutionLimitError(PicklesByArguments, EvaluationError):
    """Base class for cooperative aborts of a running query.

    Raised by the evaluator's per-operator limit check (see
    :class:`repro.core.limits.ExecutionLimits`) when a query exceeds a
    budget it was given.  Catching this class covers every structured
    abort: deadline, output-cardinality, and explicit cancellation.
    Each subclass pickles by its constructor arguments, so a worker
    process ships the abort itself.
    """


class QueryTimeoutError(ExecutionLimitError):
    """Raised when a query runs past its wall-clock deadline.

    The check is cooperative — it fires between operator executions in
    the evaluator loop and between candidate batches inside long pattern
    matches — so the query is aborted shortly after the budget elapses
    instead of hanging indefinitely.
    """

    _arguments = ("budget_seconds", "elapsed_seconds")

    def __init__(self, budget_seconds: float, elapsed_seconds: float):
        super().__init__(
            f"query exceeded its {budget_seconds * 1000:.0f} ms deadline "
            f"(aborted after {elapsed_seconds * 1000:.0f} ms)"
        )
        self.budget_seconds = budget_seconds
        self.elapsed_seconds = elapsed_seconds


class ResourceLimitError(ExecutionLimitError):
    """Raised when a query exceeds its output-cardinality budget.

    The limit applies to every intermediate operator output, not just the
    final result: a query whose Join explodes past the budget is aborted
    at the Join instead of running to completion and failing at the root.
    """

    _arguments = ("limit", "produced", "operator")

    def __init__(self, limit: int, produced: int, operator: str):
        super().__init__(
            f"operator {operator} produced {produced} trees, past the "
            f"configured budget of {limit}"
        )
        self.limit = limit
        self.produced = produced
        self.operator = operator


class QueryCancelledError(ExecutionLimitError):
    """Raised when a query is cancelled via its limits' cancel event."""

    def __init__(self) -> None:
        super().__init__("query cancelled")


class ScanCacheLifetimeError(ReproError):
    """Raised when a :class:`~repro.patterns.scan_cache.ScanCache` is
    shared in a way that violates its single-query lifetime.

    A scan cache memoises candidate lists for *one* plan execution over
    immutable documents.  Sequential reuse across warm benchmark runs is
    allowed; entering a second concurrent execution with the same cache
    (or moving a cache to a different database) is a bug in the caller —
    typically a service layer accidentally sharing one cache between
    requests — and raises this error rather than silently returning
    another query's scans.
    """


class ServiceError(ReproError):
    """Raised for query-service misuse (closed service, bad config)."""


class WorkerError(PicklesByArguments, ServiceError):
    """Raised when a pool worker fails outside the structured aborts.

    A worker ships a structured abort (:class:`ExecutionLimitError`) as
    itself; any other failure it ships as this error, built from the
    original's type name and message, because an arbitrary exception
    need not survive pickling.  The dispatcher raises both as it
    receives them.  Failures without a worker result — a worker that
    died mid-request, a snapshot that failed verification at worker
    start — surface as this error too, with the original type preserved
    in :attr:`worker_error_type`.
    """

    _arguments = ("worker_error_type", "message")

    def __init__(self, worker_error_type: str, message: str):
        super().__init__(f"worker failed with {worker_error_type}: {message}")
        self.worker_error_type = worker_error_type
        self.message = message


def request_status(error: Optional[BaseException]) -> str:
    """The status the service counts and logs for a request that
    raised ``error`` (``None``: it succeeded)."""
    if error is None:
        return "ok"
    if isinstance(error, QueryTimeoutError):
        return "timeout"
    if isinstance(error, QueryCancelledError):
        return "cancelled"
    if isinstance(error, ResourceLimitError):
        return "resource"
    return "error"


class PlanValidationError(ReproError):
    """Raised when the static LC-flow analyzer rejects a plan.

    Carries the list of :class:`repro.analysis.Diagnostic` findings that
    caused the rejection in :attr:`diagnostics` (errors and warnings; at
    least one has error severity, or the plan would not have been
    rejected).
    """

    def __init__(self, message: str, diagnostics=()):
        rendered = "".join(f"\n  {d.render()}" for d in diagnostics)
        super().__init__(f"{message}{rendered}")
        self.diagnostics = list(diagnostics)
