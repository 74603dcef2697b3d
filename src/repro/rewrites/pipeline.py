"""The rewrite pipeline: apply all Section 4 rules to a TLC plan.

Order matters and follows the paper's Q1 walk-through:

1. share identical pattern matches (Section 4.1),
2. restructure nested/flat same-tag pairs — with **Shadow** when a later
   extension select re-fetches the same nodes (so step 3 can fire), with
   **Flatten** otherwise (Section 4.2),
3. replace redundant re-fetching selects with **Illuminate**
   (Section 4.3).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import List

from ..core.base import Operator
from ..errors import PlanValidationError
from ..xquery.translator import TranslationResult
from .flatten_rewrite import apply_flatten, find_flatten_sites
from .reuse import share_common_selects
from .shadow_rewrite import (
    apply_illuminate,
    find_illuminate_sites,
    refetch_edges,
)


@dataclass
class RewriteLog:
    """What the optimizer did, for explainers and tests."""

    shared_selects: int = 0
    flattened: List[str] = field(default_factory=list)
    shadowed: List[str] = field(default_factory=list)
    illuminated: List[str] = field(default_factory=list)
    #: rewrite steps whose output passed the LC-flow preservation check
    verified: List[str] = field(default_factory=list)

    @property
    def changed(self) -> bool:
        return bool(
            self.shared_selects
            or self.flattened
            or self.shadowed
            or self.illuminated
        )


class _StepVerifier:
    """Checks that a rewrite step does not break the plan's LC-flow.

    Rewrites legitimately rename labels and restructure operators, so
    "environment preserved" is checked as: the step must not *introduce*
    error diagnostics the plan did not already have (per code, counted).
    """

    def __init__(self, root: Operator) -> None:
        self.baseline = self._profile(root)[0]

    @staticmethod
    def _profile(root: Operator):
        from ..analysis import analyze

        analysis = analyze(root)
        return Counter(d.code for d in analysis.errors), analysis.errors

    def check(self, step: str, root: Operator, log: RewriteLog) -> None:
        profile, errors = self._profile(root)
        introduced = profile - self.baseline
        if introduced:
            raise PlanValidationError(
                f"rewrite step {step!r} broke the plan's LC-flow",
                [d for d in errors if d.code in introduced],
            )
        self.baseline = profile
        log.verified.append(step)


def _has_refetch(root: Operator, parent_lcl: int, tag: str) -> bool:
    """Is there an extension select re-fetching ``tag`` under the class?"""
    return any(
        edge.child.test.tag == tag
        for op in root.walk()
        for edge in refetch_edges(op, parent_lcl)
    )


def optimize(root: Operator, verify: bool = True) -> tuple:
    """Apply all rewrites; returns (new_root, RewriteLog).

    With ``verify`` (the default) the static LC-flow analyzer runs after
    each of the three rewrite steps; a step that introduces new
    error-severity diagnostics raises
    :class:`~repro.errors.PlanValidationError`.  The verified step names
    are recorded in :attr:`RewriteLog.verified`.
    """
    log = RewriteLog()
    verifier = _StepVerifier(root) if verify else None
    log.shared_selects = share_common_selects(root)
    if verifier:
        verifier.check("reuse", root, log)
    # restructure: one site at a time (each apply invalidates detection)
    for _ in range(8):  # a plan has few sites; bounded for safety
        sites = find_flatten_sites(root)
        if not sites:
            break
        site = sites[0]
        b_node = site.nested_edge.child
        use_shadow = _has_refetch(
            root, site.parent.lcl, b_node.test.tag
        )
        root = apply_flatten(root, site, use_shadow=use_shadow)
        record = (
            f"({site.parent.lcl},{b_node.lcl})"
        )
        if use_shadow:
            log.shadowed.append(record)
        else:
            log.flattened.append(record)
    if verifier:
        verifier.check("restructure", root, log)
    for _ in range(8):
        sites = find_illuminate_sites(root)
        if not sites:
            break
        site = sites[0]
        root = apply_illuminate(root, site)
        log.illuminated.append(
            f"({site.refetch_lcl})->({site.shadowed_lcl})"
        )
    if verifier:
        verifier.check("illuminate", root, log)
    return root, log


def optimize_plan(
    translation: TranslationResult, verify: bool = True
) -> TranslationResult:
    """Optimize a translation result (plan rewritten in place)."""
    plan, _ = optimize(translation.plan, verify=verify)
    return TranslationResult(
        plan, translation.var_lcls, translation.class_tags
    )
