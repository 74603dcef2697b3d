"""High-level facade: load documents, run XQuery under any of the four
engines (TLC / TAX / GTP / NAV), optionally with the Section 4 rewrites.

This is the entry point downstream users and the benchmark harness share::

    from repro import Engine
    engine = Engine()
    engine.load_xml("auction.xml", xml_text)
    result = engine.run(query_text)               # TLC by default
    result = engine.run(query_text, engine="gtp")  # a competitor
    result = engine.run(query_text, optimize=True) # Flatten/Shadow rewrites
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Optional, Union

from .baselines.gtp.translator import translate_gtp
from .baselines.nav.evaluator import NavEvaluator
from .baselines.tax.translator import translate_tax
from .core.base import Context, Operator
from .core.evaluator import evaluate
from .core.limits import ExecutionLimits
from .errors import ReproError
from .model.sequence import TreeSequence
from .storage.database import DEFAULT_POOL_PAGES, Database
from .storage.stats import CardinalityStats, QueryReport
from .xquery.translator import TLCTranslator, TranslationResult

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .service import QueryService

#: Engine names accepted by :meth:`Engine.run`.
ENGINES = ("tlc", "tax", "gtp", "nav")


def _require_query_text(query: str) -> None:
    """Reject empty/whitespace-only query text with a clear error.

    Without this guard a blank query would surface as a confusing parser
    error (or, historically, an ``IndexError`` from the benchmark label
    fallback in :meth:`Engine.measure`).
    """
    if not query or not query.strip():
        raise ReproError("query text is empty")


def _validate_plan(plan: Operator) -> None:
    """Lint a TLC plan, raising on error-severity diagnostics."""
    from .analysis import analyze
    from .errors import PlanValidationError

    analysis = analyze(plan)
    if not analysis.ok:
        raise PlanValidationError(
            "plan failed static LC-flow validation", analysis.errors
        )


class Engine:
    """A database plus the four query evaluation strategies of Section 6."""

    def __init__(
        self,
        db: Optional[Database] = None,
        pool_pages: int = DEFAULT_POOL_PAGES,
    ) -> None:
        self.db = db if db is not None else Database(pool_pages)
        #: (db.generation, snapshot) — see :meth:`cardinality_stats`
        self._stats_cache: Optional[tuple] = None

    # ------------------------------------------------------------------
    # loading
    # ------------------------------------------------------------------
    def load_xml(self, name: str, text: str):
        """Parse and store an XML document."""
        return self.db.load_xml(name, text)

    def load_xmark(self, factor: float = 0.01, name: str = "auction.xml"):
        """Generate and store a synthetic XMark document."""
        from .xmark.generator import load_xmark

        return load_xmark(self.db, factor, name)

    # ------------------------------------------------------------------
    # planning and execution
    # ------------------------------------------------------------------
    def cardinality_stats(self) -> CardinalityStats:
        """A cached tag-count snapshot of the loaded documents.

        Documents are load-only (the Database has no update API), so the
        snapshot stays valid until the next (re)load; the cache key is
        ``db.generation``, which every install bumps — reloading a name
        with different content must not serve the old counts.  This
        keeps the cost-based planner's per-query overhead at pure
        arithmetic instead of a per-plan walk over every tag index.
        """
        generation = self.db.generation
        if self._stats_cache is None or self._stats_cache[0] != generation:
            self._stats_cache = (
                generation,
                CardinalityStats.from_database(self.db),
            )
        return self._stats_cache[1]

    def plan(
        self,
        query: str,
        engine: str = "tlc",
        optimize: bool = False,
        planner: Optional[bool] = None,
    ) -> TranslationResult:
        """Translate a query into a plan for the given algebraic engine.

        ``nav`` has no plan (it interprets the AST); asking for one raises.

        ``planner`` runs cost-based physical planning on the TLC plan
        (``None`` follows the process-wide ``REPRO_PLANNER`` toggle):
        structural-join edge orders are chosen by the cost model and
        the :class:`~repro.planner.PlanDecision` lands on
        ``translation.plan.planner_decision``.
        """
        _require_query_text(query)
        if engine == "tlc":
            # span() is a no-op thread-local read unless the calling
            # thread is serving a traced service request
            from .telemetry.spans import span
            from .xquery.parser import parse_query

            with span("parse"):
                ast = parse_query(query)
            with span("translate"):
                translation = TLCTranslator().translate(ast)
            if optimize:
                from .rewrites.pipeline import optimize_plan

                with span("rewrite"):
                    translation = optimize_plan(translation)
            if planner is None:
                from .planner import planner_enabled

                planner = planner_enabled()
            if planner:
                from .planner import plan_physical

                with span("planner"):
                    plan_physical(
                        translation.plan,
                        self.cardinality_stats(),
                        metrics=self.db.metrics,
                    )
            return translation
        if optimize:
            raise ReproError(
                "the Flatten/Shadow rewrites are TLC-specific (Section 4)"
            )
        if engine == "tax":
            return translate_tax(query)
        if engine == "gtp":
            return translate_gtp(query)
        raise ReproError(f"engine {engine!r} has no algebraic plan")

    def run(
        self,
        query: str,
        engine: str = "tlc",
        optimize: bool = False,
        strict: bool = False,
        trace: bool = False,
        scan_cache: bool = True,
        limits: Optional[ExecutionLimits] = None,
        deadline: Optional[float] = None,
        max_trees: Optional[int] = None,
        planner: Optional[bool] = None,
    ) -> TreeSequence:
        """Evaluate a query and return the result forest.

        ``planner`` applies cost-based physical planning to the TLC plan
        before execution (``None`` follows the ``REPRO_PLANNER``
        toggle); see :meth:`plan`.  The planned plan's output is
        byte-identical — only the work to produce it changes.

        With ``strict`` the TLC plan is linted by the static LC-flow
        analyzer before execution and a
        :class:`~repro.errors.PlanValidationError` is raised when any
        error-severity diagnostic is found.  The baseline algebras do not
        carry LC-flow metadata, so ``strict`` applies to ``tlc`` only.

        With ``trace`` the evaluation is instrumented per operator and
        the resulting :class:`~repro.trace.PlanTrace` is attached to the
        returned sequence as ``result.trace``.  Tracing instruments the
        shared ``Operator`` protocol, so it works for every algebraic
        plan (``tlc``, ``tax``, ``gtp``); the navigational baseline
        interprets the AST and has no operators to trace.

        ``scan_cache`` controls the query-scoped memo of identical index
        scans and pattern-leaf matches (on by default; hits show up as
        ``scan_cache_hits`` in the counters).  Disable it to reproduce
        the uncached behaviour, e.g. for before/after benchmarking.

        ``limits`` (or the ``deadline``/``max_trees`` shorthands, which
        build one) arms the cooperative abort checks: a query past its
        wall-clock budget raises
        :class:`~repro.errors.QueryTimeoutError`, one past its
        output-cardinality budget raises
        :class:`~repro.errors.ResourceLimitError` — at the next operator
        boundary or matcher tick, instead of hanging.  Limits apply to
        the algebraic engines only (``nav`` interprets the AST without
        an evaluator loop to check in).
        """
        if engine not in ENGINES:
            raise ReproError(
                f"unknown engine {engine!r}; choose one of {ENGINES}"
            )
        _require_query_text(query)
        if limits is None and (deadline is not None or max_trees is not None):
            limits = ExecutionLimits(deadline=deadline, max_trees=max_trees)
        if engine == "nav":
            if optimize:
                raise ReproError("rewrites do not apply to navigation")
            if trace:
                raise ReproError(
                    "the tracer instruments algebraic plans; 'nav' "
                    "interprets the AST and has no operators to trace"
                )
            if limits is not None:
                raise ReproError(
                    "execution limits need the evaluator loop; 'nav' "
                    "has none (use an algebraic engine)"
                )
            return NavEvaluator(self.db).run(query)
        translation = self.plan(query, engine, optimize, planner=planner)
        return self.run_plan(
            translation.plan,
            strict=strict and engine == "tlc",
            trace=trace,
            scan_cache=scan_cache,
            limits=limits,
        )

    def run_plan(
        self,
        plan: Operator,
        strict: bool = False,
        trace: bool = False,
        scan_cache: bool = True,
        limits: Optional[ExecutionLimits] = None,
    ) -> TreeSequence:
        """Evaluate an already-built plan against this engine's database."""
        if strict:
            _validate_plan(plan)
        ctx = Context(self.db, scan_cache=scan_cache, limits=limits)
        if not trace:
            return evaluate(plan, ctx)
        from .trace import Tracer

        tracer = Tracer(ctx.metrics)
        result = evaluate(plan, ctx, tracer)
        result.trace = tracer.finish(plan)
        return result

    def service(self, **kwargs) -> "QueryService":
        """A concurrent :class:`~repro.service.QueryService` over this
        engine's database (prepared-plan cache, thread pool, deadlines).

        Keyword arguments are forwarded to
        :class:`~repro.service.QueryService` (``threads``, ``mode``,
        ``start_method``, ``cache_size``, ``default_deadline``,
        ``default_max_trees``).
        """
        from .service import QueryService

        return QueryService(self, **kwargs)

    # ------------------------------------------------------------------
    # measurement (the benchmark harness entry point)
    # ------------------------------------------------------------------
    def measure(
        self,
        query: str,
        engine: str = "tlc",
        optimize: bool = False,
        label: str = "",
        cold_cache: bool = False,
        strict: bool = False,
        trace: bool = False,
        scan_cache: bool = True,
        planner: Optional[bool] = None,
    ) -> QueryReport:
        """Run a query and report wall time plus the work counters.

        ``strict`` and ``trace`` are forwarded to :meth:`run`: a
        benchmark run can lint its plan pre-execution and/or attach the
        per-operator :class:`~repro.trace.PlanTrace` to the report
        (``report.trace``).  ``planner`` (default: the ``REPRO_PLANNER``
        toggle) cost-plans the TLC plan first; planning time is part of
        the measured wall time, as it would be for a real request.
        """
        _require_query_text(query)
        self.db.reset_metrics(cold_cache=cold_cache)
        started = time.perf_counter()
        result = self.run(
            query,
            engine=engine,
            optimize=optimize,
            strict=strict,
            trace=trace,
            scan_cache=scan_cache,
            planner=planner,
        )
        elapsed = time.perf_counter() - started
        name = engine + ("+opt" if optimize else "")
        first_line = next(
            (
                line.strip()
                for line in query.splitlines()
                if line.strip()
            ),
            "<query>",
        )
        return QueryReport(
            engine=name,
            query=label or first_line,
            seconds=elapsed,
            counters=self.db.metrics.snapshot(),
            result_trees=len(result),
            trace=result.trace,
        )
