"""Tabular reports in the paper's layout for Figures 15, 16 and 17."""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..storage.stats import QueryReport
from ..xmark.queries import FIGURE15_ORDER, QUERIES


def _grid(
    reports: Sequence[QueryReport],
) -> Dict[Tuple[str, str], QueryReport]:
    return {(r.query, r.engine): r for r in reports}


def _cell(report: Optional[QueryReport]) -> str:
    if report is None:
        return "-"
    if report.counters.get("dnf"):
        return "DNF"
    if "error" in report.counters:  # a crash is not the paper's DNF
        return "ERR"
    return f"{report.seconds:.3f}"


def figure15_table(reports: Sequence[QueryReport]) -> str:
    """Render the Figure 15 grid: queries × engines, with comments."""
    grid = _grid(reports)
    engines = list(dict.fromkeys(r.engine for r in reports))
    queries = [q for q in FIGURE15_ORDER if any(
        (q, e) in grid for e in engines
    )]
    header = (
        f"{'query':6s}" + "".join(f"{e.upper():>9s}" for e in engines)
        + "  comments"
    )
    lines = [header, "-" * len(header)]
    for name in queries:
        cells = "".join(
            f"{_cell(grid.get((name, e))):>9s}" for e in engines
        )
        lines.append(f"{name:6s}{cells}  {QUERIES[name].comment}")
    return "\n".join(lines)


def figure16_table(reports: Sequence[QueryReport]) -> str:
    """Render Figure 16: plain TLC vs rewritten (OPT) per query."""
    grid = _grid(reports)
    queries = sorted({r.query for r in reports}, key=_query_order)
    header = f"{'query':6s}{'TLC':>9s}{'OPT':>9s}{'speedup':>9s}"
    lines = [header, "-" * len(header)]
    for name in queries:
        plain = grid.get((name, "tlc"))
        opt = grid.get((name, "tlc+opt"))
        speed = (
            f"{plain.seconds / opt.seconds:.2f}x"
            if plain and opt and opt.seconds
            else "-"
        )
        lines.append(
            f"{name:6s}{_cell(plain):>9s}{_cell(opt):>9s}{speed:>9s}"
        )
    return "\n".join(lines)


def figure17_table(reports: Sequence[QueryReport]) -> str:
    """Render Figure 17: seconds and nodes touched per (query, factor)."""
    cells = {(r.query, r.counters["factor"]): r for r in reports}
    factors = sorted({f for _, f in cells})
    queries = sorted({q for q, _ in cells}, key=_query_order)
    header = f"{'query':6s}" + "".join(f"{f:>10g}" for f in factors)
    lines = [header, "-" * len(header)]
    for title, show in (
        ("seconds", lambda r: f"{r.seconds:>10.4f}"),
        ("nodes touched", lambda r: f"{r.counters['nodes_touched']:>10d}"),
    ):
        lines.append(f"({title} per XMark factor)")
        lines += [
            f"{q:6s}" + "".join(show(cells[q, f]) for f in factors)
            for q in queries
        ]
    return "\n".join(lines)


def counters_table(reports: Sequence[QueryReport]) -> str:
    """Work-counter report: why each engine costs what it costs."""
    header = (
        f"{'query':6s}{'engine':>8s}{'secs':>9s}{'trees':>7s}"
        f"{'pages':>8s}{'nodes':>9s}{'sjoins':>8s}{'groups':>8s}"
        f"{'navsteps':>9s}"
    )
    lines = [header, "-" * len(header)]
    for report in reports:
        counters = report.counters
        lines.append(
            f"{report.query:6s}{report.engine:>8s}"
            f"{_cell(report):>9s}{report.result_trees:>7d}"
            f"{counters.get('pages_read', 0):>8d}"
            f"{counters.get('nodes_touched', 0):>9d}"
            f"{counters.get('structural_joins', 0):>8d}"
            f"{counters.get('groupby_ops', 0):>8d}"
            f"{counters.get('navigation_steps', 0):>9d}"
        )
    return "\n".join(lines)


def operator_breakdown(report: QueryReport) -> str:
    """EXPLAIN-ANALYZE rendering of one traced report's plan.

    Requires the report to have been measured with ``trace=True``
    (``Harness.run_query(..., trace=True)`` or
    ``Engine.measure(..., trace=True)``).
    """
    title = f"{report.query} × {report.engine}"
    if report.trace is None:
        return f"{title}: no trace (measure with trace=True)"
    return f"{title}\n{report.trace.render()}"


def figure16_breakdown(reports: Sequence[QueryReport]) -> str:
    """Attribute each Figure 16 rewrite win to specific operators.

    For every query measured with traces under both plain TLC and the
    rewritten (OPT) plan, aggregates per-operator self time by operator
    name and prints them side by side: an operator the rewrite removed
    shows ``-`` in the OPT column (its cost is the win), one it
    introduced (Flatten's nest-join, say) shows ``-`` under TLC.
    """
    grid = _grid(reports)
    sections: List[str] = []
    for name in sorted({r.query for r in reports}, key=_query_order):
        plain = grid.get((name, "tlc"))
        opt = grid.get((name, "tlc+opt"))
        if (
            plain is None or opt is None
            or plain.trace is None or opt.trace is None
        ):
            continue
        plain_ms = {
            op: seconds * 1000
            for op, seconds in plain.trace.self_seconds_by_name().items()
        }
        opt_ms = {
            op: seconds * 1000
            for op, seconds in opt.trace.self_seconds_by_name().items()
        }
        header = (
            f"{'operator':24s}{'TLC(ms)':>10s}{'OPT(ms)':>10s}"
            f"{'delta':>10s}"
        )
        lines = [
            f"{name}: self time per operator", header, "-" * len(header)
        ]
        for op in sorted(set(plain_ms) | set(opt_ms)):
            before = plain_ms.get(op)
            after = opt_ms.get(op)
            delta = (after or 0.0) - (before or 0.0)
            cells = "".join(
                f"{value:>10.3f}" if value is not None else f"{'-':>10s}"
                for value in (before, after)
            )
            lines.append(f"{op:24s}{cells}{delta:>+10.3f}")
        total_before = sum(plain_ms.values())
        total_after = sum(opt_ms.values())
        lines.append(
            f"{'total':24s}{total_before:>10.3f}{total_after:>10.3f}"
            f"{total_after - total_before:>+10.3f}"
        )
        sections.append("\n".join(lines))
    if not sections:
        return "no traced TLC/OPT pairs (run figure16 with trace=True)"
    return "\n\n".join(sections)


def _query_order(name: str) -> tuple:
    try:
        return (FIGURE15_ORDER.index(name),)
    except ValueError:
        return (len(FIGURE15_ORDER), name)
