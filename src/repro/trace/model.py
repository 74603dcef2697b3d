"""Trace data model: per-operator measurements of one plan execution.

A :class:`PlanTrace` is the runtime counterpart of the static
:class:`~repro.analysis.PlanAnalysis`: where the analyzer
predicts which logical classes flow through each operator, the trace
records what each operator actually *did* — wall time, cardinalities and
the :class:`~repro.storage.stats.Metrics` work counters it accumulated.

Semantics of the two time columns:

* ``self_seconds`` — time spent inside the operator's ``execute`` call.
  Inputs are already evaluated when ``execute`` runs (bottom-up,
  set-at-a-time), so self times are disjoint and their sum is bounded by
  the query's wall time.
* ``cumulative_seconds`` — self time plus the cumulative time of the
  operator's distinct inputs.  A memoised sub-plan (shared in a
  hand-built DAG) is evaluated once and *reported* once, but its
  cumulative time is attributed to every referencing parent — the same
  convention ``EXPLAIN ANALYZE`` uses for shared CTE scans — so sibling
  cumulatives may double-count a shared child while the self-time
  decomposition stays exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..core.base import Operator


@dataclass
class OperatorTrace:
    """One operator's measurements within a single plan execution."""

    index: int                 #: position in execution (post) order
    name: str                  #: operator name (``Operator.name``)
    params: str                #: operator parameters (``Operator.params``)
    input_cards: List[int]     #: cardinality of each input sequence
    output_card: int           #: cardinality of the output sequence
    self_seconds: float        #: wall time inside ``execute``
    cumulative_seconds: float  #: self + distinct input cumulatives
    counters: Dict[str, int]   #: non-zero ``Metrics.diff`` entries
    memo_hits: int = 0         #: extra references served from the memo
    batch: bool = False        #: output stayed columnar (``ColumnBatch``)
    children: List[int] = field(default_factory=list)
    #: indexes (into :attr:`PlanTrace.records`) of the input operators,
    #: in input order; duplicates mean the operator reads one shared
    #: sub-plan several times

    def label(self) -> str:
        """``name params`` one-liner, as the plan pretty-printer writes it."""
        return f"{self.name} {self.params}" if self.params else self.name


@dataclass
class PlanTrace:
    """Everything recorded while evaluating one operator plan."""

    records: List[OperatorTrace]
    total_seconds: float       #: wall time of the whole evaluate() call
    plan: "Operator"           #: the traced plan's root operator
    index_of: Dict[int, int] = field(default_factory=dict)
    #: ``id(operator) -> record index`` while the plan object is alive

    @property
    def root(self) -> OperatorTrace:
        """The plan root's record (last in post order)."""
        return self.records[-1]

    def record_for(self, op: "Operator") -> OperatorTrace:
        """The record of one operator of the traced plan."""
        return self.records[self.index_of[id(op)]]

    def total_self_seconds(self) -> float:
        """Sum of the disjoint per-operator self times."""
        return sum(record.self_seconds for record in self.records)

    def shared_count(self) -> int:
        """Number of memoised operators referenced more than once."""
        return sum(1 for record in self.records if record.memo_hits)

    def self_seconds_by_name(self) -> Dict[str, float]:
        """Self time aggregated per operator name (for attributions)."""
        out: Dict[str, float] = {}
        for record in self.records:
            out[record.name] = out.get(record.name, 0.0) + record.self_seconds
        return out

    def counters_total(self) -> Dict[str, int]:
        """Work counters summed over all operators (equals the query's
        whole-run ``Metrics`` delta: every counter is incremented inside
        some operator's ``execute``)."""
        out: Dict[str, int] = {}
        for record in self.records:
            for key, value in record.counters.items():
                out[key] = out.get(key, 0) + value
        return out

    def render(self) -> str:
        """EXPLAIN-ANALYZE-style annotated plan tree."""
        from .render import render_trace  # local import: avoids a cycle

        return render_trace(self)
