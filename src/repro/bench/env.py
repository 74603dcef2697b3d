"""Runtime environment stamp for benchmark reports.

A report must be self-describing: a number measured on a 16-core box
with request spans on is not comparable to one measured on 2 cores with
them off, and a report cannot say so unless it records the configuration
it ran under.  :func:`runtime_flags` snapshots the machine
(``cpu_count``) and every process-wide execution toggle (request
spans) — the *ambient* state of the process;
``benchmarks/layers/run.py`` stamps it into every ``--out`` report.
"""

from __future__ import annotations

import os
from typing import Dict


def runtime_flags() -> Dict[str, object]:
    """The machine and toggle configuration of this process, for JSON."""
    from ..telemetry.spans import spans_enabled

    return {
        "cpu_count": os.cpu_count() or 1,
        "spans": spans_enabled(),
    }
