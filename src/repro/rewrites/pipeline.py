"""The rewrite pipeline: apply all Section 4 rules to a TLC plan.

Order matters and follows the paper's Q1 walk-through:

1. restructure nested/flat same-tag pairs — with **Shadow** when a later
   extension select re-fetches the same nodes (so step 2 can fire), with
   **Flatten** otherwise (Section 4.2),
2. replace redundant re-fetching selects with **Illuminate**
   (Section 4.3).

Section 4.1's pattern-tree reuse needs no step of its own: the
translator already emits extension Selects (``lc_ref``) that read the
classes an earlier Select matched.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Tuple

from ..core.base import Operator
from ..errors import PlanValidationError
from ..xquery.translator import TranslationResult
from .flatten_rewrite import FlattenSite, apply_flatten, find_flatten_sites
from .shadow_rewrite import (
    IlluminateSite,
    apply_illuminate,
    find_illuminate_sites,
    refetch_edges,
)


@dataclass
class RewriteLog:
    """What the optimizer did, for explainers and tests."""

    flattened: List[str] = field(default_factory=list)
    shadowed: List[str] = field(default_factory=list)
    illuminated: List[str] = field(default_factory=list)
    #: rewrite steps that passed the LC-flow preservation check (a step
    #: that changed nothing passes without an analysis)
    verified: List[str] = field(default_factory=list)

    @property
    def changed(self) -> bool:
        return bool(self.flattened or self.shadowed or self.illuminated)


class _StepVerifier:
    """Checks that a rewrite step which changed the plan kept its LC-flow.

    Rewrites legitimately rename labels and restructure operators, so
    "environment preserved" is checked as: the step must not *introduce*
    error diagnostics the plan did not already have (per code, counted).
    The baseline is taken from the plan just before the first step that
    changes it; a step that changes nothing cannot introduce a
    diagnostic, so it is never analyzed.
    """

    def __init__(self, root: Operator) -> None:
        self.baseline = self._profile(root)[0]

    @staticmethod
    def _profile(root: Operator):
        from ..analysis import analyze

        analysis = analyze(root)
        return Counter(d.code for d in analysis.errors), analysis.errors

    def check(self, step: str, root: Operator) -> None:
        profile, errors = self._profile(root)
        introduced = profile - self.baseline
        if introduced:
            raise PlanValidationError(
                f"rewrite step {step!r} broke the plan's LC-flow",
                [d for d in errors if d.code in introduced],
            )
        self.baseline = profile


def _has_refetch(root: Operator, parent_lcl: int, tag: str) -> bool:
    """Is there an extension select re-fetching ``tag`` under the class?"""
    return any(
        edge.child.test.tag == tag
        for op in root.walk()
        for edge in refetch_edges(op, parent_lcl)
    )


def _restructure(
    root: Operator, sites: List[FlattenSite], log: RewriteLog
) -> Operator:
    # one site at a time (each apply invalidates detection)
    for _ in range(8):  # a plan has few sites; bounded for safety
        site = sites[0]
        b_node = site.nested_edge.child
        use_shadow = _has_refetch(
            root, site.parent.lcl, b_node.test.tag
        )
        root = apply_flatten(root, site, use_shadow=use_shadow)
        record = f"({site.parent.lcl},{b_node.lcl})"
        if use_shadow:
            log.shadowed.append(record)
        else:
            log.flattened.append(record)
        sites = find_flatten_sites(root)
        if not sites:
            break
    return root


def _illuminate(
    root: Operator, sites: List[IlluminateSite], log: RewriteLog
) -> Operator:
    for _ in range(8):
        site = sites[0]
        root = apply_illuminate(root, site)
        log.illuminated.append(
            f"({site.refetch_lcl})->({site.shadowed_lcl})"
        )
        sites = find_illuminate_sites(root)
        if not sites:
            break
    return root


#: A Section 4 step: its name, its pure phase-1 scan, and the in-place
#: rewrite of the sites that scan found.
_Step = Tuple[
    str,
    Callable[[Operator], List[Any]],
    Callable[[Operator, List[Any], RewriteLog], Operator],
]

#: The steps, in the paper's order.
_STEPS: Tuple[_Step, ...] = (
    ("restructure", find_flatten_sites, _restructure),
    ("illuminate", find_illuminate_sites, _illuminate),
)


def optimize(root: Operator, verify: bool = True) -> tuple:
    """Apply all rewrites; returns (new_root, RewriteLog).

    Each step first scans the plan for its sites and rewrites only
    when it found some.  With ``verify`` (the default) the static
    LC-flow analyzer re-analyzes the plan after each step that changed
    it, against a baseline taken just before the first such step; a
    step that introduces new error-severity diagnostics raises
    :class:`~repro.errors.PlanValidationError` naming it.  A plan no
    step changes is never analyzed.  Every step that passed, changed or
    not, is recorded in :attr:`RewriteLog.verified`.
    """
    log = RewriteLog()
    verifier: Optional[_StepVerifier] = None
    for step, find_sites, rewrite in _STEPS:
        sites = find_sites(root)
        if sites:
            if verify and verifier is None:
                verifier = _StepVerifier(root)
            root = rewrite(root, sites, log)
            if verifier is not None:
                verifier.check(step, root)
        if verify:
            log.verified.append(step)
    return root, log


def optimize_plan(
    translation: TranslationResult, verify: bool = True
) -> TranslationResult:
    """Optimize a translation result (plan rewritten in place)."""
    plan, _ = optimize(translation.plan, verify=verify)
    return TranslationResult(
        plan, translation.var_lcls, translation.class_tags
    )
