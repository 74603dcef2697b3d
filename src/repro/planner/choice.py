"""Plan-choice records: what the planner picked, what it turned down.

Every decision site produces one :class:`PlanChoice` carrying the chosen
:class:`Alternative` and every rejected one, each with its cost estimate
and a one-line reason — EXPLAIN for the optimizer itself.  A whole
query's choices roll up into a :class:`PlanDecision`, which is what
``explain --cost`` and the ``plan`` subcommand render (it serialises to
JSON losslessly).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List

#: Decision kinds a planner run can emit.
CHOICE_KINDS = ("edge-order",)


@dataclass(frozen=True)
class Alternative:
    """One candidate shape at a decision site, with its cost estimate."""

    label: str         #: e.g. "reserve, bidder" or "source order"
    cost: float        #: abstract work units under the cost model
    detail: str = ""   #: how the label maps onto the plan

    def render(self) -> str:
        text = f"{self.label} (cost {self.cost:,.0f})"
        if self.detail:
            text += f" — {self.detail}"
        return text


@dataclass
class PlanChoice:
    """One decision: a site, the chosen shape, the rejected shapes."""

    site: str                  #: operator/pattern-node the choice is about
    kind: str                  #: one of :data:`CHOICE_KINDS`
    chosen: Alternative
    rejected: List[Alternative] = field(default_factory=list)
    reason: str = ""

    @property
    def changed(self) -> bool:
        """Whether the chosen shape differs from the translator's."""
        return any(alt.label == "source order" for alt in self.rejected)

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    def render(self) -> List[str]:
        lines = [f"{self.site} [{self.kind}]"]
        lines.append(f"  chosen:   {self.chosen.render()}")
        for alt in self.rejected:
            lines.append(f"  rejected: {alt.render()}")
        if self.reason:
            lines.append(f"  why: {self.reason}")
        return lines


@dataclass
class PlanDecision:
    """Every choice of one planner run, plus the plan-level summary."""

    choices: List[PlanChoice] = field(default_factory=list)
    total_cost: float = 0.0
    #: number of pattern nodes whose edge order differs from the source
    reordered_sites: int = 0

    def by_kind(self, kind: str) -> List[PlanChoice]:
        return [c for c in self.choices if c.kind == kind]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "version": 1,
            "total_cost": round(self.total_cost, 1),
            "reordered_sites": self.reordered_sites,
            "choices": [choice.to_dict() for choice in self.choices],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "PlanDecision":
        decision = cls(
            total_cost=payload.get("total_cost", 0.0),
            reordered_sites=payload.get("reordered_sites", 0),
        )
        for entry in payload.get("choices", ()):
            decision.choices.append(
                PlanChoice(
                    site=entry["site"],
                    kind=entry["kind"],
                    chosen=Alternative(**entry["chosen"]),
                    rejected=[
                        Alternative(**alt) for alt in entry["rejected"]
                    ],
                    reason=entry.get("reason", ""),
                )
            )
        return decision

    def summary(self) -> str:
        return (
            f"cost {self.total_cost:,.0f} | {self.reordered_sites} of "
            f"{len(self.by_kind('edge-order'))} join sites reordered"
        )

    def render(self) -> str:
        """The full chosen-vs-rejected report, one block per choice."""
        lines = [f"plan decision: {self.summary()}"]
        for choice in self.choices:
            lines.append("")
            lines.extend(choice.render())
        return "\n".join(lines)
