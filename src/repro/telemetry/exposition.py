"""Prometheus text-format exposition of a metrics registry.

Renders the registry (plus any extra single-value families, e.g. the
``Metrics`` work counters read at scrape time) in the Prometheus
text exposition format 0.0.4: ``# HELP`` / ``# TYPE`` headers, one
sample per line, histograms as cumulative ``_bucket{le=...}`` series
with ``_sum`` and ``_count``.  The companion parser in
``tools/promformat.py`` (stdlib only) validates exactly this output in
CI's telemetry smoke job.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from .registry import HistogramSnapshot, LabelSet, MetricsRegistry

#: Content type the /metrics endpoint serves.
CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: One extra family: (name, help, type, [(labels, value), ...]).
ExtraFamily = Tuple[
    str, str, str, Sequence[Tuple[Optional[Dict[str, str]], float]]
]


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label(value: str) -> str:
    return (
        value.replace("\\", "\\\\")
        .replace("\n", "\\n")
        .replace('"', '\\"')
    )


def _labels_text(labelset: LabelSet, extra: str = "") -> str:
    parts = [f'{k}="{_escape_label(v)}"' for k, v in labelset]
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


def render_prometheus(
    registry: MetricsRegistry,
    extras: Sequence[ExtraFamily] = (),
) -> str:
    """The registry (and extras) as Prometheus exposition text."""
    lines: List[str] = []

    def header(name: str, help: str, kind: str) -> None:
        lines.append(f"# HELP {name} {_escape_help(help)}")
        lines.append(f"# TYPE {name} {kind}")

    grouped_counters: Dict[str, List[Tuple[LabelSet, float]]] = {}
    for name, labelset, value in registry.counters():
        grouped_counters.setdefault(name, []).append((labelset, value))
    for name, series in grouped_counters.items():
        header(name, registry.help_for(name), "counter")
        for labelset, value in series:
            lines.append(
                f"{name}{_labels_text(labelset)} {_format_value(value)}"
            )

    grouped_gauges: Dict[str, List[Tuple[LabelSet, float]]] = {}
    for name, labelset, value in registry.gauges():
        grouped_gauges.setdefault(name, []).append((labelset, value))
    for name, series in grouped_gauges.items():
        header(name, registry.help_for(name), "gauge")
        for labelset, value in series:
            lines.append(
                f"{name}{_labels_text(labelset)} {_format_value(value)}"
            )

    grouped_hists: Dict[str, List[Tuple[LabelSet, HistogramSnapshot]]] = {}
    for name, labelset, snap in registry.histograms():
        grouped_hists.setdefault(name, []).append((labelset, snap))
    for name, hist_series in grouped_hists.items():
        header(name, registry.help_for(name), "histogram")
        for labelset, snap in hist_series:
            for bound, cumulative in snap.cumulative():
                le = _format_value(bound)
                labels = _labels_text(labelset, f'le="{le}"')
                lines.append(f"{name}_bucket{labels} {cumulative}")
            labels = _labels_text(labelset)
            lines.append(f"{name}_sum{labels} {_format_value(snap.sum)}")
            lines.append(
                f"{name}_count{labels} {_format_value(snap.count)}"
            )

    for name, help, kind, series2 in extras:
        header(name, help, kind)
        for labels_dict, value in series2:
            labelset: LabelSet = tuple(sorted(
                (str(k), str(v)) for k, v in (labels_dict or {}).items()
            ))
            lines.append(
                f"{name}{_labels_text(labelset)} {_format_value(value)}"
            )

    return "\n".join(lines) + "\n"


def work_counter_families(counters: Dict[str, int]) -> List[ExtraFamily]:
    """The ``Metrics`` snapshot as one-sample counter families.

    The shared work counters (pages read, structural joins, scan-cache
    hits, …) are read at scrape time rather than mirrored per
    increment — they live on the storage hot path where even a sharded
    lock would be felt.  They are thread-striped and exact under
    concurrency; see :class:`~repro.storage.stats.Metrics`.
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
