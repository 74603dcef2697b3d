"""Measured cost-model calibration: constants from the traced sweep.

The cost model's tuning constants
(:data:`~repro.planner.cost.BATCH_SAVING_PER_ROW`,
:data:`~repro.planner.cost.BATCH_CONVERT_PER_ROW`) are hand-fit against
committed benchmark sweeps; they are *this machine's* ratios only by
accident.  ``repro calibrate`` replaces the accident with a measurement:
it runs the 23-query XMark sweep under the runtime tracer and distils

* **per-operator unit costs** — self time per output row for every
  operator in the core registry (Shadow/Illuminate included via the
  ``optimize`` pass), the observability half of the table: ``explain
  --cost`` and the drift test read these;
* **the batch constants** — a two-parameter least squares of the
  per-query tree-vs-batch wall-time difference against the *estimated*
  columnar and boundary row flows (estimated on purpose: the planner
  applies the constants to the same estimates, so calibrating against
  them keeps the units consistent).

The result persists as a :class:`CalibrationTable` JSON file.  A table
becomes *active* through :func:`set_calibration` (or the
``REPRO_CALIBRATION=<path>`` environment toggle), at which point
:func:`calibrated` — the lookup the planner and the feedback re-coster
go through — serves the measured values instead of the defaults.  The
defaults in :mod:`repro.planner.cost` never change: the committed docs
and tests pin them, and a missing/invalid table falls back cleanly.
"""

from __future__ import annotations

import json
import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional

from .cost import BATCH_CONVERT_PER_ROW, BATCH_SAVING_PER_ROW

#: Environment toggle: point at a table file to activate it process-wide
#: (mirrors ``REPRO_PLANNER`` / ``REPRO_SPANS``).
CALIBRATION_ENV = "REPRO_CALIBRATION"

#: Conventional table location at a repository root.
DEFAULT_CALIBRATION_PATH = "CALIBRATION.json"

#: The hand-fit defaults :func:`calibrated` falls back to.
DEFAULT_CONSTANTS: Dict[str, float] = {
    "batch_saving_per_row": BATCH_SAVING_PER_ROW,
    "batch_convert_per_row": BATCH_CONVERT_PER_ROW,
}

#: Sanity clamps on measured constants: a pathological run (timer
#: resolution, a loaded machine) must not produce a table that makes
#: the planner absurd.  The batch constants are work units per row
#: like their defaults.
BATCH_SAVING_RANGE = (0.0, 5.0)
BATCH_CONVERT_RANGE = (0.0, 20.0)


def expected_operator_names() -> List[str]:
    """``Operator.name`` of every ``*Op`` class in the core registry.

    This is the key set a well-formed table's ``operators`` block must
    carry — the CI drift check compares against it, so adding a core
    operator without re-running ``repro calibrate`` fails loudly.
    """
    from ..analysis.forksafety import registry_classes

    return sorted(cls.name for cls in registry_classes())


@dataclass
class CalibrationTable:
    """One machine's measured cost constants and per-operator rates.

    ``operators`` maps every registry ``Operator.name`` to its sweep
    aggregate: total traced ``self_seconds``, total output ``rows``,
    the derived ``us_per_row``, and whether the sweep actually
    instantiated it (``measured`` — unexercised operators carry the
    one-work-unit fallback so the key set always matches the registry).
    """

    version: int = 1
    factor: float = 0.0               #: XMark scale the sweep ran at
    repeats: int = 0                  #: timing repetitions (min taken)
    cpu_count: int = 0
    queries: int = 0                  #: queries swept
    unit_us: float = 1.0              #: measured µs of one work unit
    batch_saving_per_row: float = BATCH_SAVING_PER_ROW
    batch_convert_per_row: float = BATCH_CONVERT_PER_ROW
    operators: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    note: str = ""

    def to_dict(self) -> dict:
        return {
            "version": self.version,
            "factor": self.factor,
            "repeats": self.repeats,
            "cpu_count": self.cpu_count,
            "queries": self.queries,
            "unit_us": self.unit_us,
            "constants": {
                "batch_saving_per_row": self.batch_saving_per_row,
                "batch_convert_per_row": self.batch_convert_per_row,
            },
            "operators": {
                name: dict(entry)
                for name, entry in sorted(self.operators.items())
            },
            "note": self.note,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "CalibrationTable":
        if not isinstance(payload, dict) or payload.get("version") != 1:
            raise ValueError(
                "not a version-1 calibration table: "
                f"{type(payload).__name__}"
            )
        constants = payload.get("constants", {})
        return cls(
            version=1,
            factor=float(payload.get("factor", 0.0)),
            repeats=int(payload.get("repeats", 0)),
            cpu_count=int(payload.get("cpu_count", 0)),
            queries=int(payload.get("queries", 0)),
            unit_us=float(payload.get("unit_us", 1.0)),
            batch_saving_per_row=float(
                constants.get("batch_saving_per_row", BATCH_SAVING_PER_ROW)
            ),
            batch_convert_per_row=float(
                constants.get(
                    "batch_convert_per_row", BATCH_CONVERT_PER_ROW
                )
            ),
            operators={
                str(name): dict(entry)
                for name, entry in payload.get("operators", {}).items()
            },
            note=str(payload.get("note", "")),
        )

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")

    @classmethod
    def load(cls, path: str) -> "CalibrationTable":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_dict(json.load(handle))


def check_table(table: CalibrationTable) -> List[str]:
    """Drift and sanity problems of one table; empty means well-formed.

    The operator key set must equal the core registry (both directions:
    an operator added without recalibrating, or one removed while the
    table still prices it, each produce a problem string), and every
    constant must sit inside its sanity clamp.
    """
    problems: List[str] = []
    expected = set(expected_operator_names())
    present = set(table.operators)
    for name in sorted(expected - present):
        problems.append(f"registry operator {name!r} missing from table")
    for name in sorted(present - expected):
        problems.append(f"table operator {name!r} not in the registry")
    lo, hi = BATCH_SAVING_RANGE
    if not (lo <= table.batch_saving_per_row <= hi):
        problems.append(
            f"batch_saving_per_row {table.batch_saving_per_row} outside "
            f"[{lo}, {hi}]"
        )
    lo, hi = BATCH_CONVERT_RANGE
    if not (lo <= table.batch_convert_per_row <= hi):
        problems.append(
            f"batch_convert_per_row {table.batch_convert_per_row} "
            f"outside [{lo}, {hi}]"
        )
    for name, entry in sorted(table.operators.items()):
        if float(entry.get("us_per_row", 0.0)) < 0.0:
            problems.append(f"operator {name!r} has negative us_per_row")
    return problems


# ---------------------------------------------------------------------------
# the active table (what `calibrated` reads)
# ---------------------------------------------------------------------------
_active: Optional[CalibrationTable] = None
_env_checked = False
_state_lock = threading.Lock()


def _check_env() -> None:
    """Load the ``REPRO_CALIBRATION`` table once, on first lookup."""
    global _active, _env_checked
    with _state_lock:
        if _env_checked:
            return
        _env_checked = True
        path = os.environ.get(CALIBRATION_ENV, "").strip()
        if not path:
            return
        try:
            _active = CalibrationTable.load(path)
        except (OSError, ValueError, KeyError, TypeError):
            _active = None  # a broken table must not break planning


def active() -> Optional[CalibrationTable]:
    """The calibration table currently in force, if any."""
    if not _env_checked:
        _check_env()
    return _active


def set_calibration(
    table: Optional[CalibrationTable],
) -> Optional[CalibrationTable]:
    """Install (or clear, with None) the active table; returns previous."""
    global _active, _env_checked
    from ..telemetry.hooks import instrument

    with _state_lock:
        _env_checked = True  # an explicit set overrides the env toggle
        previous = _active
        _active = table
    instrument("calibration.loaded", 1.0 if table is not None else 0.0)
    return previous


@contextmanager
def use_calibration(
    table: Optional[CalibrationTable],
) -> Iterator[Optional[CalibrationTable]]:
    """Scoped table install (tests and ``explain --calibration``)."""
    previous = set_calibration(table)
    try:
        yield table
    finally:
        set_calibration(previous)


def calibrated(name: str) -> float:
    """The effective value of one tunable cost constant.

    ``name`` is one of :data:`DEFAULT_CONSTANTS`; the active table's
    measured value wins, the hand-fit default otherwise.  This is the
    single indirection the planner and the feedback re-coster read —
    the constants in :mod:`repro.planner.cost` stay untouched defaults.
    """
    default = DEFAULT_CONSTANTS[name]  # KeyError on typos, on purpose
    table = active()
    if table is None:
        return default
    return float(getattr(table, name))


# ---------------------------------------------------------------------------
# the measurement (`repro calibrate`)
# ---------------------------------------------------------------------------
def _clamp(value: float, bounds: "tuple[float, float]") -> float:
    lo, hi = bounds
    return min(max(value, lo), hi)


def _least_squares_2(
    xs: List["tuple[float, float]"], ys: List[float]
) -> Optional["tuple[float, float]"]:
    """Solve ``y ~= a*x0 + b*x1`` by normal equations; None if singular."""
    s00 = s01 = s11 = t0 = t1 = 0.0
    for (x0, x1), y in zip(xs, ys):
        s00 += x0 * x0
        s01 += x0 * x1
        s11 += x1 * x1
        t0 += x0 * y
        t1 += x1 * y
    det = s00 * s11 - s01 * s01
    if abs(det) < 1e-9:
        return None
    a = (t0 * s11 - t1 * s01) / det
    b = (t1 * s00 - t0 * s01) / det
    return a, b


def run_calibration(
    factor: float = 0.05,
    repeats: int = 3,
    queries: Optional[List[str]] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> CalibrationTable:
    """Run the traced sweep and distil a :class:`CalibrationTable`.

    Per query (the Figure 15 set by default) and per rewrite setting
    (off *and* on, so Shadow/Illuminate get exercised), the plan is
    evaluated ``repeats`` times under the tracer, per-tree, and the
    fastest run's per-operator self times and output rows accumulate
    into the operator table.  The same plans are then timed with the
    batch runtime on vs off (the batch least squares).  Telemetry hooks
    are suppressed throughout: a calibration run must not pollute
    registry totals.
    """
    from ..columns.batch import use_batch
    from ..core.base import Context
    from ..core.evaluator import evaluate
    from ..engine import Engine
    from ..telemetry import hooks as telemetry
    from ..trace import Tracer
    from ..xmark.generator import load_xmark
    from ..xmark.queries import FIGURE15_ORDER, QUERIES
    from .cost import CostModel
    from .planner import currency_flow
    from .cost import post_order
    import time

    def say(message: str) -> None:
        if progress is not None:
            progress(message)

    names = list(queries or FIGURE15_ORDER)
    say(f"loading XMark factor {factor:g} ...")
    engine = Engine()
    load_xmark(engine.db, factor)
    stats = engine.cardinality_stats()
    model = CostModel(stats)

    op_seconds: Dict[str, float] = {}
    op_rows: Dict[str, float] = {}
    modeled_work = 0.0
    measured_seconds = 0.0
    flows: List["tuple[float, float]"] = []
    deltas_us: List[float] = []

    def run_once(plan: Any, tracer_on: bool) -> "tuple[float, Any]":
        ctx = Context(engine.db, scan_cache=True)
        if tracer_on:
            tracer = Tracer(ctx.metrics)
            started = time.perf_counter()
            evaluate(plan, ctx, tracer)
            elapsed = time.perf_counter() - started
            return elapsed, tracer.finish(plan)
        started = time.perf_counter()
        evaluate(plan, ctx)
        return time.perf_counter() - started, None

    def best_traced(plan: Any) -> Any:
        best_elapsed, best_trace = run_once(plan, True)
        for _ in range(max(repeats - 1, 0)):
            elapsed, trace = run_once(plan, True)
            if elapsed < best_elapsed:
                best_elapsed, best_trace = elapsed, trace
        return best_trace

    def best_plain(plan: Any) -> float:
        best_elapsed = run_once(plan, False)[0]
        for _ in range(max(repeats - 1, 0)):
            best_elapsed = min(best_elapsed, run_once(plan, False)[0])
        return best_elapsed

    with telemetry.disabled():
        for position, name in enumerate(names, start=1):
            text = QUERIES[name].text
            say(f"[{position}/{len(names)}] {name}")
            for optimize in (False, True):
                plan = engine.plan(
                    text, "tlc", optimize, planner=False
                ).plan
                with use_batch(False):
                    trace = best_traced(plan)
                for record in trace.records:
                    op_seconds[record.name] = (
                        op_seconds.get(record.name, 0.0)
                        + record.self_seconds
                    )
                    op_rows[record.name] = (
                        op_rows.get(record.name, 0.0) + record.output_card
                    )
                measured_seconds += trace.total_self_seconds()
                ops = post_order(plan)
                rows = model.plan_rows(plan)
                modeled_work += sum(model.op_cost(op, rows) for op in ops)
                if not optimize:
                    # the batch delta only needs one rewrite setting;
                    # flows come from the same estimates the planner
                    # prices with, so the fitted constants share units
                    with use_batch(False):
                        tree_seconds = best_plain(plan)
                    with use_batch(True):
                        batch_seconds = best_plain(plan)
                    _, _, columnar_rows, boundary_rows = currency_flow(
                        ops, rows
                    )
                    if columnar_rows > 0 or boundary_rows > 0:
                        flows.append((columnar_rows, boundary_rows))
                        deltas_us.append(
                            (tree_seconds - batch_seconds) * 1e6
                        )

    # µs of one abstract work unit: measured sweep time over modeled work
    unit_us = 1.0
    if modeled_work > 0 and measured_seconds > 0:
        unit_us = measured_seconds * 1e6 / modeled_work

    saving = DEFAULT_CONSTANTS["batch_saving_per_row"]
    convert = DEFAULT_CONSTANTS["batch_convert_per_row"]
    fit = _least_squares_2(flows, deltas_us) if len(flows) >= 3 else None
    if fit is not None and unit_us > 0:
        saving_us, neg_convert_us = fit
        fitted_saving = saving_us / unit_us
        fitted_convert = -neg_convert_us / unit_us
        # a degenerate fit (non-positive saving: batch did not win on
        # this machine's sweep) keeps the hand-fit defaults
        if fitted_saving > 0:
            saving = _clamp(fitted_saving, BATCH_SAVING_RANGE)
            convert = _clamp(max(fitted_convert, 0.0), BATCH_CONVERT_RANGE)

    operators: Dict[str, Dict[str, Any]] = {}
    for name in expected_operator_names():
        seconds = op_seconds.get(name, 0.0)
        rows_total = op_rows.get(name, 0.0)
        measured = name in op_seconds
        if rows_total > 0:
            us_per_row = seconds * 1e6 / rows_total
        else:
            us_per_row = unit_us  # one work unit: the neutral fallback
        operators[name] = {
            "self_seconds": round(seconds, 6),
            "rows": int(rows_total),
            "us_per_row": round(us_per_row, 4),
            "measured": measured,
        }

    return CalibrationTable(
        factor=factor,
        repeats=repeats,
        cpu_count=os.cpu_count() or 1,
        queries=len(names),
        unit_us=round(unit_us, 4),
        batch_saving_per_row=round(saving, 4),
        batch_convert_per_row=round(convert, 4),
        operators=operators,
        note=(
            "measured by `repro calibrate`; constants feed "
            "planner lookups via repro.planner.calibration.calibrated"
        ),
    )
