"""The planner's process-wide switch (mirrors ``_BATCH``).

Off by default: plan shape stays exactly what the translator emitted,
which is the configuration every committed baseline was measured under.
Switch it on per call (``Engine.run(..., planner=True)``), per scope
(:func:`use_planner`), per process (``REPRO_PLANNER=1``), or per service
(``QueryService(planner=True)``).
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator

#: Module switch for cost-based physical planning (mirrors _BATCH).
_PLANNER = os.environ.get("REPRO_PLANNER", "").strip().lower() in (
    "1", "true", "yes", "on"
)


def planner_enabled() -> bool:
    """Whether queries are cost-planned before execution by default."""
    return _PLANNER


def set_planner(enabled: bool) -> bool:
    """Switch the planner on or off; returns the previous setting."""
    global _PLANNER
    previous = _PLANNER
    _PLANNER = bool(enabled)
    return previous


@contextmanager
def use_planner(enabled: bool = True) -> Iterator[None]:
    """Scoped :func:`set_planner` (equivalence sweeps, benchmarks)."""
    previous = set_planner(enabled)
    try:
        yield
    finally:
        set_planner(previous)
