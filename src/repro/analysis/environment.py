"""The LC-flow environment: which classes are live between operators.

An :class:`LCEnv` is the static abstraction of a tree sequence: the set
of logical class labels its trees may carry, each with provenance — who
produced it, what tag its members match, and which class its members
nest under in the producing pattern.  The provenance is what lets the
rules check Flatten sites and track labels through Construct splices.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

#: Provenance kinds for :attr:`ClassInfo.origin`.
ORIGINS = ("select", "aggregate", "join_root", "construct", "ref")


@dataclass(frozen=True)
class ClassInfo:
    """Static facts about one live logical class."""

    label: int
    producer: int  # id() of the producing operator
    producer_name: str
    origin: str
    tag: Optional[str] = None  # pattern tag / aggregate fname, if known
    parent_label: Optional[int] = None  # class its members nest under
    parent_known: bool = False  # whether parent_label is authoritative

    def reparented(self, parent: Optional[int]) -> "ClassInfo":
        """A copy of this info nested under a different class."""
        return replace(self, parent_label=parent, parent_known=True)


@dataclass
class LCEnv:
    """The environment flowing along one plan edge."""

    classes: Dict[int, ClassInfo] = field(default_factory=dict)
    shadowed: FrozenSet[int] = frozenset()

    # ------------------------------------------------------------------
    def has(self, label: int) -> bool:
        return label in self.classes

    def info(self, label: int) -> Optional[ClassInfo]:
        return self.classes.get(label)

    def labels(self) -> Set[int]:
        return set(self.classes)

    def copy(self) -> "LCEnv":
        return LCEnv(dict(self.classes), self.shadowed)

    # ------------------------------------------------------------------
    def descendants_of(self, label: int) -> List[ClassInfo]:
        """Classes provenance-nested (transitively) under ``label``.

        Used by the Construct transfer: splicing a class keeps the class
        markings of the whole subtree, so every class nested under the
        referenced one survives into the constructed output.
        """
        out: List[ClassInfo] = []
        for info in self.classes.values():
            if info.label == label:
                continue
            seen: Set[int] = set()
            current: Optional[ClassInfo] = info
            while current is not None and current.label not in seen:
                seen.add(current.label)
                parent = current.parent_label
                if parent == label and current.label != label:
                    out.append(info)
                    break
                current = self.classes.get(parent) if parent else None
        return out


#: A duplicate-producer conflict found while merging environments.
Conflict = Tuple[ClassInfo, ClassInfo]


def merge_join(left: LCEnv, right: LCEnv) -> Tuple[LCEnv, List[Conflict]]:
    """Merge the two sides of a Join; report duplicate producers.

    A label present on both sides is fine when both occurrences come from
    the *same* operator instance (a shared sub-plan of a hand-built DAG);
    two distinct producers for one label is the classic translator bug
    this analyzer exists to catch.
    """
    merged = dict(left.classes)
    conflicts: List[Conflict] = []
    for label, info in right.classes.items():
        existing = merged.get(label)
        if existing is not None and existing.producer != info.producer:
            conflicts.append((existing, info))
        else:
            merged[label] = info
    return LCEnv(merged, left.shadowed | right.shadowed), conflicts


def merge_union(envs: Iterable[LCEnv]) -> LCEnv:
    """Merge Union branches: alternatives, so duplicates are intended.

    The OR translation deliberately assigns the same label on both
    branches ("the root node of each path assigned the same LCL on both
    sides"), so no conflict is reported; the first branch's info wins.
    """
    merged: Dict[int, ClassInfo] = {}
    shadowed: FrozenSet[int] = frozenset()
    for env in envs:
        for label, info in env.classes.items():
            merged.setdefault(label, info)
        shadowed = shadowed | env.shadowed
    return LCEnv(merged, shadowed)
