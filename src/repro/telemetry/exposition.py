"""Prometheus text-format exposition of metric families.

Every family is built at scrape time from state the program already
keeps (the ``Metrics`` work counters, the service's request counts and
latency histograms, the span store) and rendered here in the
Prometheus text exposition format 0.0.4: ``# HELP`` / ``# TYPE``
headers, one sample per line, histograms as cumulative
``_bucket{le=...}`` series with ``_sum`` and ``_count``.  The companion
parser in ``tools/promformat.py`` (stdlib only) validates exactly this
output in CI's telemetry smoke job.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

from .histogram import HistogramSnapshot

#: Content type the /metrics endpoint serves.
CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: One family: (name, help, type, [(labels, value), ...]); a
#: ``histogram`` family's values are histogram snapshots.
Family = Tuple[
    str,
    str,
    str,
    Sequence[Tuple[Optional[Dict[str, str]], Union[float, HistogramSnapshot]]],
]


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label(value: str) -> str:
    return (
        value.replace("\\", "\\\\")
        .replace("\n", "\\n")
        .replace('"', '\\"')
    )


def _labels_text(labels: Optional[Dict[str, str]], extra: str = "") -> str:
    parts = [
        f'{k}="{_escape_label(str(v))}"'
        for k, v in sorted((labels or {}).items())
    ]
    if extra:
        parts.append(extra)
    if not parts:
        return ""
    return "{" + ",".join(parts) + "}"


def _format_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def render_prometheus(families: Sequence[Family]) -> str:
    """The families as Prometheus exposition text."""
    lines: List[str] = []
    for name, help, kind, series in families:
        lines.append(f"# HELP {name} {_escape_help(help)}")
        lines.append(f"# TYPE {name} {kind}")
        for labels, value in series:
            if not isinstance(value, HistogramSnapshot):
                lines.append(
                    f"{name}{_labels_text(labels)} {_format_value(value)}"
                )
                continue
            for bound, cumulative in value.cumulative():
                le = f'le="{_format_value(bound)}"'
                lines.append(
                    f"{name}_bucket{_labels_text(labels, le)} {cumulative}"
                )
            plain = _labels_text(labels)
            lines.append(f"{name}_sum{plain} {_format_value(value.sum)}")
            lines.append(f"{name}_count{plain} {_format_value(value.count)}")
    return "\n".join(lines) + "\n"


def work_counter_families(counters: Dict[str, int]) -> List[Family]:
    """The ``Metrics`` snapshot as one-sample counter families.

    The shared work counters (pages read, structural joins, pattern
    matches, scan-cache hits, plan-cache outcomes, …) are read at
    scrape time rather than mirrored per increment — they live on the
    storage hot path where even a sharded lock would be felt.  They are
    thread-striped and exact under concurrency; see
    :class:`~repro.storage.stats.Metrics`.
    """
    return [
        (
            f"repro_work_{name}_total",
            f"Work counter Metrics.{name} (exact, read at scrape time)",
            "counter",
            [(None, float(value))],
        )
        for name, value in sorted(counters.items())
    ]
