"""Annotated Pattern Trees (Definitions 1 and 2).

An APT is a rooted tree of :class:`APTNode`.  Each edge carries the axis
(``pc`` for parent-child, ``ad`` for ancestor-descendant — drawn as double
edges in the paper's figures) and the matching specification:

* ``-`` exactly one match of the child per match of the parent,
* ``?`` zero or one,
* ``+`` one or more (all relatives cluster into one witness tree),
* ``*`` zero or more.

Every APT node carries the Logical Class Label (LCL) its matches will be
tagged with.  A node may instead *reference* an existing logical class of
the input trees (``lc_ref``) — the pattern-tree-reuse mechanism of Section
4.1 ("we permit predicates on logical class membership as part of an
annotated pattern tree specification"), used by the extended patterns of
Figure 7's Selects 8 and 9.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Optional

from ..errors import PatternError
from .predicates import NodeTest

#: Valid matching specifications, in the paper's notation.
MSPECS = ("-", "?", "+", "*")
#: Valid structural axes.
AXES = ("pc", "ad")


@dataclass
class APTEdge:
    """One pattern edge: target node, axis and matching specification."""

    child: "APTNode"
    axis: str = "pc"
    mspec: str = "-"

    def __post_init__(self) -> None:
        if self.axis not in AXES:
            raise PatternError(f"invalid axis {self.axis!r}")
        if self.mspec not in MSPECS:
            raise PatternError(f"invalid matching specification {self.mspec!r}")

    @property
    def optional(self) -> bool:
        """Whether a parent without matches survives (``?`` or ``*``)."""
        return self.mspec in ("?", "*")

    @property
    def nested(self) -> bool:
        """Whether matches cluster into one witness tree (``+`` or ``*``)."""
        return self.mspec in ("+", "*")


@dataclass
class APTNode:
    """One pattern node: predicate, class label and outgoing edges."""

    test: NodeTest
    lcl: int
    edges: List[APTEdge] = field(default_factory=list)
    lc_ref: Optional[int] = None  # bind to existing class instead of matching

    def add_edge(
        self, child: "APTNode", axis: str = "pc", mspec: str = "-"
    ) -> APTEdge:
        """Attach a child pattern node; returns the new edge."""
        edge = APTEdge(child, axis, mspec)
        self.edges.append(edge)
        return edge

    @property
    def single_variant(self) -> bool:
        """Whether a stored node has at most one match variant here.

        True of a leaf, and of a node whose edges are all nested
        (``+``/``*``) to single-variant children: a nested edge adds one
        cluster per parent, whereas ``-``/``?`` add one variant per
        matching child.  A ``+``/``*`` cluster over such a child holds
        every node once already, so the matcher skips the expansion
        that de-duplicates cluster members.
        """
        return all(
            edge.nested and edge.child.single_variant for edge in self.edges
        )

    def walk(self) -> Iterator["APTNode"]:
        """Pre-order traversal of this pattern subtree."""
        yield self
        for edge in self.edges:
            yield from edge.child.walk()

    def find(self, lcl: int) -> Optional["APTNode"]:
        """The pattern node labelled ``lcl`` in this subtree, if any."""
        for node in self.walk():
            if node.lcl == lcl:
                return node
        return None

    def clone(self) -> "APTNode":
        """Deep copy of this pattern subtree."""
        copy = APTNode(self.test, self.lcl, lc_ref=self.lc_ref)
        copy.edges = [
            APTEdge(edge.child.clone(), edge.axis, edge.mspec)
            for edge in self.edges
        ]
        return copy

    def describe(self, depth: int = 0) -> str:
        """Indented multi-line rendering (for plan explainers and tests)."""
        label = (
            f"(ref {self.lc_ref})"
            if self.lc_ref is not None
            else self.test.describe()
        )
        lines = [f"{'  ' * depth}{label} [lcl={self.lcl}]"]
        for edge in self.edges:
            arrow = "//" if edge.axis == "ad" else "/"
            lines.append(
                f"{'  ' * (depth + 1)}{arrow}{edge.mspec}"
            )
            lines.append(edge.child.describe(depth + 2))
        return "\n".join(lines)


@dataclass
class APT:
    """A complete annotated pattern tree, optionally bound to a document.

    ``doc`` names the stored document the pattern matches against; patterns
    whose root references a logical class (``root.lc_ref``) instead extend
    the trees of an input sequence (Section 4.1 pattern-tree reuse).
    """

    root: APTNode
    doc: Optional[str] = None

    def nodes(self) -> List[APTNode]:
        """All pattern nodes in pre-order."""
        return list(self.root.walk())

    def node_by_lcl(self, lcl: int) -> APTNode:
        """The pattern node labelled ``lcl``; raises if absent."""
        found = self.root.find(lcl)
        if found is None:
            raise PatternError(f"pattern has no node labelled {lcl}")
        return found

    def lcls(self) -> List[int]:
        """All class labels introduced by this pattern (not references)."""
        return [n.lcl for n in self.nodes() if n.lc_ref is None]

    def clone(self) -> "APT":
        """Deep copy."""
        return APT(self.root.clone(), self.doc)

    def validate(self) -> None:
        """Check label uniqueness and reference placement.

        LCLs must be unique within one pattern (the paper: "a single tree
        cannot have two LCLs with the same value pointing to different
        LCs"), and class references may only appear at the root — the form
        the translator generates and the matcher supports.
        """
        seen = set()
        for node in self.nodes():
            if node.lcl in seen:
                raise PatternError(f"duplicate LCL {node.lcl} in pattern")
            seen.add(node.lcl)
            if node.lc_ref is not None and node is not self.root:
                raise PatternError(
                    "logical-class references are only supported at the "
                    "pattern root"
                )

    def describe(self) -> str:
        """Readable rendering including the bound document."""
        source = f"doc={self.doc!r}" if self.doc else "extends input"
        return f"APT[{source}]\n{self.root.describe(1)}"


def pattern_node(
    tag: Optional[str],
    lcl: int,
    comparisons: tuple = (),
    lc_ref: Optional[int] = None,
) -> APTNode:
    """Convenience constructor used heavily by tests and the translator."""
    return APTNode(NodeTest(tag, tuple(comparisons)), lcl, lc_ref=lc_ref)
