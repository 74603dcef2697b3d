"""Cost-based physical planning over index statistics.

The translator fixes the *logical* plan; this package chooses its
*physical* shape: the structural-join edge order per pattern node —
each decision recorded as a chosen-vs-rejected
:class:`~repro.planner.choice.PlanChoice` with cost estimates, and the
whole run rolled up into a :class:`~repro.planner.choice.PlanDecision`
(what ``explain --cost`` and the ``plan`` subcommand render).

The model (:mod:`repro.planner.cost`) is arithmetic over
:class:`~repro.storage.stats.CardinalityStats` and the static
``card [lo, hi]`` bounds.  Everything is annotation-only — a planned
plan evaluates through the same operators and returns byte-identical
results — and the whole layer sits behind the ``REPRO_PLANNER`` toggle
(default off).  docs/PLANNING.md is the guided tour.
"""

from .choice import CHOICE_KINDS, Alternative, PlanChoice, PlanDecision
from .cost import (
    MAX_EXHAUSTIVE_EDGES,
    PREDICATE_SELECTIVITY,
    UNKNOWN_COUNT,
    CostModel,
    EdgeEstimate,
    PatternEstimate,
    post_order,
)
from .planner import DECISION_MARGIN, plan_physical
from .toggles import planner_enabled, set_planner, use_planner

__all__ = [
    "Alternative",
    "CHOICE_KINDS",
    "CostModel",
    "DECISION_MARGIN",
    "EdgeEstimate",
    "MAX_EXHAUSTIVE_EDGES",
    "PREDICATE_SELECTIVITY",
    "PatternEstimate",
    "PlanChoice",
    "PlanDecision",
    "UNKNOWN_COUNT",
    "plan_physical",
    "planner_enabled",
    "post_order",
    "set_planner",
    "use_planner",
]
