"""Benchmark harness and paper-style reporting."""

from .env import runtime_flags
from .harness import DEFAULT_FACTOR, FIGURE15_ENGINES, Harness
from .reporting import (
    counters_table,
    figure15_speedups,
    figure15_table,
    figure16_breakdown,
    figure16_table,
    figure17_table,
    linear_r2,
    operator_breakdown,
)

__all__ = [
    "DEFAULT_FACTOR",
    "FIGURE15_ENGINES",
    "Harness",
    "runtime_flags",
    "counters_table",
    "figure15_speedups",
    "figure15_table",
    "figure16_breakdown",
    "figure16_table",
    "figure17_table",
    "linear_r2",
    "operator_breakdown",
]
