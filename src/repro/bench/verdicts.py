"""The paper's §6.3 claims as predicates over one figure's reports.

A check returns whether its claim holds and the cells that decided it:
the counterexamples when it fails.  A claim whose cells a subset left
out (``--queries``/``--engines``) reads ``not measured``.
"""

from __future__ import annotations

import math
import re
import textwrap

from ..xmark.queries import QUERIES
from .reporting import _cell, _grid


def _secs(report):
    return math.inf if report.counters.get("dnf") else report.seconds


def _every(engines, holds, counter=None):
    """``holds`` on every query measured under all ``engines``; an error
    row fails it.  Cells show seconds, or ``counter``."""

    def show(r):
        plain = counter is None or "error" in r.counters
        return f"{r.engine} {_cell(r) if plain else r.counters[counter]}"

    def check(reports):
        grid = _grid(reports)
        rows = {q: [grid[q, e] for e in engines] for q, e in grid
                if e == engines[0] and all((q, o) in grid for o in engines)}
        if not rows:
            raise KeyError(engines)
        failed = [" ".join([q, *map(show, row)]) for q, row in rows.items()
                  if any("error" in r.counters for r in row)
                  or not holds(*row)]
        return not failed, failed or [f"all {len(rows)} queries"]

    return check


def _less(*engines, counter=None):
    """Seconds (or ``counter``) under the first engine below the second."""
    key = _secs if counter is None else (lambda r: r.counters[counter])
    return _every(engines, lambda a, b: key(a) < key(b), counter)


def _tlc_vs_gtp(reports):
    holds, cells = _every(("tlc", "gtp"),
                          lambda a, b: _secs(a) <= _secs(b))(reports)
    grid = _grid(reports)
    ratio = {q: _secs(grid[q, "gtp"]) / _secs(r)
             for (q, e), r in grid.items() if e == "tlc"}
    top = max(ratio, key=ratio.get)
    # the paper's heterogeneity instigators: counts, LETs, joins, many A/R
    instigator = re.search(r"count|LET|J\b|[2-9] A/R", QUERIES[top].comment)
    return (holds and bool(instigator),
            cells + [f"largest {top} {ratio[top]:.1f}x"])


def _gtp_dnf(reports):
    x10, x10a = (_grid(reports)[q, "gtp"] for q in ("x10", "x10a"))
    return (bool(x10.counters.get("dnf") and not x10a.counters.get("dnf")),
            [f"x10 GTP {_cell(x10)}", f"x10a GTP {_cell(x10a)}"])


def loglog_slope(points):
    """Least-squares k of y ~ x**k; NaN unless 2+ points, all y > 0."""
    if len(points) < 2 or min(y for _, y in points) <= 0:
        return math.nan
    xs, ys = ([math.log(v) for v in axis] for axis in zip(*points))
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    return sxy / sum((x - mx) ** 2 for x in xs)


def _linear(metric):
    """Figure 17: every query's exponent k over the sweep is 1 ± 0.25."""

    def check(reports):
        series: dict = {}
        for r in reports:
            series.setdefault(r.query, []).append(
                (r.counters["factor"], metric(r)))
        k = {q: loglog_slope(points) for q, points in series.items()}
        return (all(0.75 <= v <= 1.25 for v in k.values()),
                [f"{q} k={v:.2f}" for q, v in k.items()])

    return check


#: (figure, claim, check): the timing claims, then the counter claims
#: that ``tests/bench/test_verdicts.py`` pins at factor 0.002.
CLAIMS = (
    ("15", "TLC faster than NAV on every query", _less("tlc", "nav")),
    ("15", "TLC faster than TAX on every query", _less("tlc", "tax")),
    ("15", "TLC >= GTP everywhere, most on a heterogeneity instigator",
     _tlc_vs_gtp),
    ("15", "GTP DNF on x10 but not on x10a", _gtp_dnf),
    ("16", "OPT faster than plain TLC on x3, x5, Q1 and Q2",
     _less("tlc+opt", "tlc")),
    ("17", "seconds linear in factor", _linear(lambda r: r.seconds)),
    ("15", "TLC runs 0 groupby_ops, GTP groups where TLC nest-joins",
     _every(("tlc", "gtp"), lambda a, b: not a.counters["groupby_ops"] and (
         b.counters["groupby_ops"] > 0 or not a.counters["nest_joins"]),
         "groupby_ops")),
    ("15", "TAX touches more nodes than TLC",
     _less("tlc", "tax", counter="nodes_touched")),
    ("15", "NAV makes 0 index_lookups", _every(
        ("nav",), lambda r: not r.counters["index_lookups"], "index_lookups")),
    ("16", "OPT runs fewer structural_joins",
     _less("tlc+opt", "tlc", counter="structural_joins")),
    ("16", "OPT touches fewer nodes",
     _less("tlc+opt", "tlc", counter="nodes_touched")),
    ("17", "nodes_touched linear in factor",
     _linear(lambda r: r.counters["nodes_touched"])),
)


def verdicts(figure, reports):
    """``(claim, holds, cells)`` per claim; ``holds`` None: not measured."""
    for claim_figure, claim, check in CLAIMS:
        if claim_figure == figure:
            try:
                yield (claim, *check(reports))
            except KeyError:
                yield claim, None, []


def verdicts_table(figure, reports) -> str:
    """The verdict block: one line per claim, then its deciding cells."""
    word = {True: "reproduced", False: "not reproduced", None: "not measured"}
    lines = [f"§6.3 claims, Figure {figure}:"]
    for claim, holds, cells in verdicts(figure, reports):
        lines.append(f"  {word[holds]:15s} {claim}")
        lines += textwrap.wrap(", ".join(cells), 79, initial_indent=" " * 20,
                               subsequent_indent=" " * 20)
    return "\n".join(lines)
