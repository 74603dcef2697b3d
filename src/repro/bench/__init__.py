"""Benchmark harness and paper-style reporting."""

from .batch import (
    BatchReport,
    BatchRow,
    batch_table,
    check_batch_against_baseline,
    compare_batch,
)
from .env import runtime_flags
from .harness import DEFAULT_FACTOR, FIGURE15_ENGINES, Harness
from .planner_bench import (
    PlannerReport,
    PlannerRow,
    check_planner_against_baseline,
    compare_planner,
    planner_table,
)
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
from .service_bench import (
    ServiceBenchReport,
    ServiceBenchRow,
    bench_service,
    service_table,
)

__all__ = [
    "BatchReport",
    "BatchRow",
    "DEFAULT_FACTOR",
    "FIGURE15_ENGINES",
    "batch_table",
    "check_batch_against_baseline",
    "compare_batch",
    "Harness",
    "PlannerReport",
    "PlannerRow",
    "ServiceBenchReport",
    "ServiceBenchRow",
    "bench_service",
    "service_table",
    "check_planner_against_baseline",
    "compare_planner",
    "planner_table",
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
