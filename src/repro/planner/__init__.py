"""Cost-based physical planning over index statistics.

The translator fixes the *logical* plan; this package chooses its
*physical* shape: structural-join edge order per pattern node and
operator currency (trees vs columns) — each decision recorded as a
chosen-vs-rejected :class:`~repro.planner.choice.PlanChoice` with cost
estimates, and the whole run rolled up into a
:class:`~repro.planner.choice.PlanDecision`
(what ``explain --cost`` and the ``plan`` subcommand render).

The model (:mod:`repro.planner.cost`) is arithmetic over
:class:`~repro.storage.stats.CardinalityStats` and the static
``card [lo, hi]`` bounds; the feedback loop
(:mod:`repro.planner.feedback`) corrects it with cardinalities the
runtime tracer actually measured, evicting cached plans whose shape a
corrected model no longer picks.  Everything is annotation-only — a
planned plan evaluates through the same operators and returns
byte-identical results — and the whole layer sits behind the
``REPRO_PLANNER`` toggle (default off), like the batch runtime
before it.  docs/PLANNING.md is the guided tour.
"""

from .calibration import (
    CALIBRATION_ENV,
    DEFAULT_CALIBRATION_PATH,
    DEFAULT_CONSTANTS,
    CalibrationTable,
    calibrated,
    check_table,
    expected_operator_names,
    run_calibration,
    set_calibration,
    use_calibration,
)
from .calibration import active as active_calibration
from .choice import CHOICE_KINDS, Alternative, PlanChoice, PlanDecision
from .cost import (
    BATCH_CONVERT_PER_ROW,
    BATCH_SAVING_PER_ROW,
    MAX_EXHAUSTIVE_EDGES,
    PREDICATE_SELECTIVITY,
    TREE_VETO_MARGIN,
    UNKNOWN_COUNT,
    CostModel,
    EdgeEstimate,
    PatternEstimate,
    post_order,
)
from .feedback import (
    FEEDBACK_CAPACITY,
    RECOST_MARGIN,
    FeedbackStore,
    RecostResult,
    observed_from_trace,
    recost,
    shape_cost,
)
from .planner import DECISION_MARGIN, currency_flow, plan_physical
from .toggles import planner_enabled, set_planner, use_planner

__all__ = [
    "Alternative",
    "BATCH_CONVERT_PER_ROW",
    "BATCH_SAVING_PER_ROW",
    "CALIBRATION_ENV",
    "CHOICE_KINDS",
    "CalibrationTable",
    "CostModel",
    "DEFAULT_CALIBRATION_PATH",
    "DEFAULT_CONSTANTS",
    "DECISION_MARGIN",
    "EdgeEstimate",
    "FEEDBACK_CAPACITY",
    "FeedbackStore",
    "MAX_EXHAUSTIVE_EDGES",
    "PREDICATE_SELECTIVITY",
    "PatternEstimate",
    "PlanChoice",
    "PlanDecision",
    "RECOST_MARGIN",
    "RecostResult",
    "TREE_VETO_MARGIN",
    "UNKNOWN_COUNT",
    "active_calibration",
    "calibrated",
    "check_table",
    "currency_flow",
    "expected_operator_names",
    "observed_from_trace",
    "plan_physical",
    "planner_enabled",
    "post_order",
    "recost",
    "run_calibration",
    "set_calibration",
    "set_planner",
    "shape_cost",
    "use_calibration",
    "use_planner",
]
