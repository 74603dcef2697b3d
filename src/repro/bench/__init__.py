"""Benchmark harness, paper-style reporting and the §6.3 verdicts."""

from .env import runtime_flags
from .harness import DEFAULT_FACTOR, FIGURE15_ENGINES, Harness
from .reporting import (
    counters_table,
    figure15_table,
    figure16_breakdown,
    figure16_table,
    figure17_table,
    operator_breakdown,
)

__all__ = [
    "DEFAULT_FACTOR",
    "FIGURE15_ENGINES",
    "Harness",
    "runtime_flags",
    "counters_table",
    "figure15_table",
    "figure16_breakdown",
    "figure16_table",
    "figure17_table",
    "operator_breakdown",
]
