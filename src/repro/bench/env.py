"""Runtime environment stamp shared by every benchmark report.

Committed ``BENCH_*.json`` files must be self-describing: a number
measured with numpy columns on a 16-core box is not comparable to one
measured pure-Python on 2 cores, and a report cannot say so unless it
records the configuration it ran under.  :func:`runtime_flags` snapshots
the machine (``cpu_count``) and every process-wide execution toggle
(batch runtime, numpy columns, cost-based planner).

For a before/after experiment the swept toggle is flipped *inside* the
run (``compare_batch`` sweeps the batch flag, ``compare_planner`` the
planner flag); the stamp records the *ambient* state around the sweep,
which is what the non-swept toggles ran under on both sides.
"""

from __future__ import annotations

import os
from typing import Dict


def runtime_flags() -> Dict[str, object]:
    """The machine and toggle configuration of this process, for JSON."""
    from ..columns.arrays import numpy_available, numpy_enabled
    from ..columns.batch import batch_enabled
    from ..planner import active_calibration, planner_enabled
    from ..telemetry.spans import spans_enabled

    calibration = active_calibration()
    return {
        "cpu_count": os.cpu_count() or 1,
        "batch": batch_enabled(),
        "numpy": numpy_enabled() and numpy_available(),
        "planner": planner_enabled(),
        "spans": spans_enabled(),
        "calibration": (
            round(calibration.factor, 6)
            if calibration is not None
            else None
        ),
    }
