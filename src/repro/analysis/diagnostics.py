"""Typed diagnostics for the static LC-flow analyzer.

Every finding carries a stable code (``LC1xx`` = error, ``LC2xx`` =
warning), the offending operator, and a human-readable message.  The
catalogue below is the authoritative list; DESIGN.md documents each rule
in prose.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from ..core.base import Operator


class Severity(enum.Enum):
    """How bad a diagnostic is: errors abort strict execution."""

    WARNING = "warning"
    ERROR = "error"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


#: Undefined reference: an operator consumes a label no upstream operator
#: produces — the class is guaranteed empty, so filters silently drop
#: everything and joins return no pairs.
UNDEFINED_REF = "LC101"
#: Duplicate label allocation: two distinct operators produce the same
#: label in sub-plans that later merge, breaking static addressability
#: ("a single tree cannot have two LCLs pointing to different LCs").
DUPLICATE_LABEL = "LC102"
#: Shadowed reference: a value-reading operator consumes a class that a
#: Shadow hid with no intervening Illuminate — it will see only the one
#: visible member.
SHADOWED_REF = "LC103"
#: Bad Flatten/Shadow site: the child class is not nested directly under
#: the parent class's pattern node, so the operator's "C maps to children
#: of P" contract (Definition 5) fails at runtime.
BAD_FLATTEN_SITE = "LC104"
#: Join side mismatch: a join predicate names a class that lives on the
#: opposite input — every key extraction returns NULL and the join is
#: silently empty.
JOIN_SIDE_MISMATCH = "LC105"
#: Malformed operator: invalid axis/mspec combinations, unknown filter
#: modes or aggregate functions, bad comparison operators, label-0
#: references, or an APT that fails its own validation.
MALFORMED_OPERATOR = "LC106"
#: Dead class: a fresh label is produced (an Aggregate result) but never
#: consumed anywhere in the plan — wasted work, likely a missed Project
#: or a dangling rewrite.
DEAD_CLASS = "LC201"
#: Provably-empty branch: cardinality interval analysis bounds an
#: operator's output at zero trees against the target database — a tag
#: that does not occur, or a join whose side is empty.
EMPTY_BRANCH = "LC301"
#: Intermediate blowup: the cardinality upper bound of an intermediate
#: result is unbounded or exceeds the blowup threshold relative to the
#: database size — a missed selective rewrite or a cross-product-like
#: join.
CARDINALITY_BLOWUP = "LC302"

#: code -> (severity, one-line description), the diagnostic catalogue.
CATALOG = {
    UNDEFINED_REF: (
        Severity.ERROR,
        "reference to a logical class no upstream operator produces",
    ),
    DUPLICATE_LABEL: (
        Severity.ERROR,
        "the same label is allocated by two independent producers",
    ),
    SHADOWED_REF: (
        Severity.ERROR,
        "value access to a Shadow-hidden class without an Illuminate",
    ),
    BAD_FLATTEN_SITE: (
        Severity.ERROR,
        "Flatten/Shadow child class is not nested under the parent class",
    ),
    JOIN_SIDE_MISMATCH: (
        Severity.ERROR,
        "join predicate names a class from the opposite input",
    ),
    MALFORMED_OPERATOR: (
        Severity.ERROR,
        "operator parameters are malformed",
    ),
    DEAD_CLASS: (
        Severity.WARNING,
        "class is produced but never consumed (missed Project?)",
    ),
    EMPTY_BRANCH: (
        Severity.WARNING,
        "cardinality bounds prove this branch produces zero trees",
    ),
    CARDINALITY_BLOWUP: (
        Severity.WARNING,
        "intermediate cardinality bound is unbounded or explosive",
    ),
}


def describe_op(op: Operator) -> str:
    """One-line operator rendering used in diagnostics."""
    params = op.params()
    text = f"{op.name} {params}" if params else op.name
    return text if len(text) <= 96 else text[:93] + "..."


@dataclass(frozen=True)
class Diagnostic:
    """One finding of the static analyzer."""

    code: str
    message: str
    operator: str  # the operator's one-line rendering
    op_id: Optional[int] = None  # id() of the offending operator

    @property
    def severity(self) -> Severity:
        return CATALOG[self.code][0]

    @property
    def is_error(self) -> bool:
        return self.severity is Severity.ERROR

    def render(self) -> str:
        """``LC101 error: message [at Operator ...]``."""
        return (
            f"{self.code} {self.severity}: {self.message} "
            f"[at {self.operator}]"
        )
