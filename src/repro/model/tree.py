"""In-memory result trees with logical-class membership.

Intermediate results in every engine of this reproduction are *sequences of
trees*.  Each tree node carries:

* ``tag``   — element name; attribute nodes use the ``@name`` convention,
* ``value`` — the node's atomic text content (or ``None``),
* ``nid``   — its identifier: a stored :class:`~repro.model.node_id.NodeId`
  for database nodes, a :class:`~repro.model.node_id.TempId` for nodes
  created during execution (join roots, constructed elements),
* ``lcls``  — the set of Logical Class Labels the node belongs to
  (Definition 4; a node may be marked by more than one class),
* ``shadowed`` — visibility flag used by the Shadow/Illuminate operators
  (Section 4.3): a shadowed node remains a member of its logical classes but
  is invisible to every operator except Illuminate.
"""

from __future__ import annotations

from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from .node_id import AnyNodeId, NodeId, new_temp_id
from .value import Atomic


class TNode:
    """A node of an in-memory result tree."""

    __slots__ = ("tag", "value", "nid", "children", "lcls", "shadowed")

    def __init__(
        self,
        tag: str,
        value: Optional[Atomic] = None,
        nid: Optional[AnyNodeId] = None,
        lcls: Optional[Iterable[int]] = None,
    ) -> None:
        self.tag = tag
        self.value = value
        self.nid: AnyNodeId = nid if nid is not None else new_temp_id()
        self.children: List["TNode"] = []
        self.lcls: set = set(lcls) if lcls else set()
        self.shadowed = False

    # ------------------------------------------------------------------
    # structure manipulation
    # ------------------------------------------------------------------
    def add_child(self, child: "TNode") -> "TNode":
        """Append ``child`` and return it (for chaining)."""
        self.children.append(child)
        return child

    def remove_child(self, child: "TNode") -> None:
        """Remove ``child`` by identity."""
        self.children = [c for c in self.children if c is not child]

    def visible_children(self) -> List["TNode"]:
        """Children that are not shadowed."""
        return [c for c in self.children if not c.shadowed]

    # ------------------------------------------------------------------
    # traversal
    # ------------------------------------------------------------------
    def walk(self, include_shadowed: bool = False) -> Iterator["TNode"]:
        """Pre-order traversal of this subtree.

        Shadowed nodes (and their entire subtrees) are skipped unless
        ``include_shadowed`` is set — mirroring the paper's rule that a
        shadowed node "is not visible to any operator other than
        illuminate".
        """
        if self.shadowed and not include_shadowed:
            return
        stack = [self]
        while stack:
            node = stack.pop()
            if node.shadowed and not include_shadowed and node is not self:
                continue
            yield node
            stack.extend(reversed(node.children))

    def find(
        self, want: Callable[["TNode"], bool], include_shadowed: bool = False
    ) -> List["TNode"]:
        """All nodes in this subtree satisfying ``want``, in document order."""
        return [n for n in self.walk(include_shadowed) if want(n)]

    def parent_map(self, include_shadowed: bool = True) -> Dict[int, "TNode"]:
        """Map ``id(child) -> parent`` over this subtree."""
        mapping: Dict[int, TNode] = {}
        for node in self.walk(include_shadowed=include_shadowed):
            for child in node.children:
                mapping[id(child)] = node
        return mapping

    # ------------------------------------------------------------------
    # copying and equality
    # ------------------------------------------------------------------
    def copy_node(self) -> "TNode":
        """Copy of this node alone: the children are shared, not copied.

        Id, classes and shadow flag carry over and the children *list*
        is fresh, so the copy can be edited (child appended or dropped,
        class marked, flag flipped) without writing through to a tree
        that shares the original.
        """
        copy = TNode(self.tag, self.value, self.nid, self.lcls)
        copy.shadowed = self.shadowed
        copy.children = list(self.children)
        return copy

    def clone(self) -> "TNode":
        """Deep copy preserving node ids, classes and shadow flags."""
        copy = TNode(self.tag, self.value, self.nid, self.lcls)
        copy.shadowed = self.shadowed
        copy.children = [child.clone() for child in self.children]
        return copy

    def canonical(self, by_content: bool = True) -> Tuple:
        """Hashable canonical form for duplicate elimination and testing.

        With ``by_content`` the form is ``(tag, value, children...)``; node
        identity is ignored.  Without it the node id participates, matching
        the ``ci`` parameter of the Duplicate-Elimination operator.
        Shadowed nodes are excluded (invisible to the operator).
        """
        kids = tuple(
            c.canonical(by_content) for c in self.children if not c.shadowed
        )
        if by_content:
            return (self.tag, self.value, kids)
        return (self.tag, self.value, self.nid, kids)

    # ------------------------------------------------------------------
    # rendering
    # ------------------------------------------------------------------
    def to_xml(self) -> str:
        """Serialise this subtree to a compact XML string.

        ``@name`` children render as attributes; shadowed nodes are omitted
        (:func:`write_xml`).  An ``@name`` node alone renders as nothing.
        """
        return "" if self.tag.startswith("@") else write_xml(self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        lcl = f" lcls={sorted(self.lcls)}" if self.lcls else ""
        shadow = " shadowed" if self.shadowed else ""
        return f"<TNode {self.tag}={self.value!r}{lcl}{shadow}>"


def _escape(text: str) -> str:
    """Escape XML special characters in text and attribute content."""
    return (
        text.replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace('"', "&quot;")
    )


def write_xml(
    root: TNode, escape_text: Callable[[str], str] = _escape
) -> str:
    """Serialise ``root``'s subtree: ``@name`` children as attributes,
    shadowed nodes omitted, text through ``escape_text``.

    Iterative, so depth is bounded by memory only: each open element is
    one stack frame holding its remaining children, and childless
    children are written in place without one.
    """
    parts: List[str] = []
    elements = _open_element(root, parts, escape_text)
    if elements is None:
        return parts[0]
    stack = [(root.tag, iter(elements))]
    while stack:
        tag, pending = stack[-1]
        for child in pending:
            if child.children:
                elements = _open_element(child, parts, escape_text)
                if elements is not None:
                    stack.append((child.tag, iter(elements)))
                    break
                continue
            text = "" if child.value is None else escape_text(str(child.value))
            parts.append(
                f"<{child.tag}>{text}</{child.tag}>" if text
                else f"<{child.tag}/>"
            )
        else:
            parts.append(f"</{tag}>")
            stack.pop()
    return "".join(parts)


def _open_element(
    node: TNode, parts: List[str], escape_text: Callable[[str], str]
) -> Optional[List[TNode]]:
    """Write ``node``'s start tag, attributes and text to ``parts``.

    Returns its visible element children, which the caller writes before
    the end tag, or ``None`` when the node had nothing to enclose and was
    written whole as an empty-element tag.
    """
    attrs = []
    elements = []
    for child in node.children:
        if child.shadowed:
            continue
        if child.tag.startswith("@"):
            value = "" if child.value is None else _escape(str(child.value))
            attrs.append(f' {child.tag[1:]}="{value}"')
        else:
            elements.append(child)
    text = "" if node.value is None else escape_text(str(node.value))
    if not text and not elements:
        parts.append(f"<{node.tag}{''.join(attrs)}/>")
        return None
    parts.append(f"<{node.tag}{''.join(attrs)}>{text}")
    return elements


#: One entry of :meth:`XTree.spine`: a node, the index of its parent's
#: entry (-1 for the root) and its position among the parent's children.
SpineEntry = Tuple[TNode, int, int]


def _derive_index(
    base_index: Dict[int, List[TNode]],
    mapping: Dict[int, TNode],
    recorder: Sequence[Tuple[int, TNode]],
) -> Dict[int, List[TNode]]:
    """A path copy's LC index, derived from the input tree's.

    Classes untouched by the path copies share the input's entry list
    outright (``nodes_in_class`` hands out copies, so shared lists are
    never mutated by callers); classes of copied nodes are remapped
    entry by entry, and the recorder's fresh nodes append in attachment
    order, which is output pre-order among themselves.  The recorder's
    classes must be absent from ``base_index`` (their entries would
    land in a shared list, and not necessarily in pre-order).
    """
    index: Dict[int, List[TNode]] = dict(base_index)
    dirty: set = set()
    for copy in mapping.values():
        dirty.update(copy.lcls)
    for lcl in dirty:
        nodes = base_index.get(lcl)
        if nodes is not None:
            index[lcl] = [mapping.get(id(n), n) for n in nodes]
    for lcl, node in recorder:
        index.setdefault(lcl, []).append(node)
    return index


#: A tree's cached LC state: visible index, shadow-inclusive index (or
#: None while unknown) and whether the tree holds shadowed nodes (None
#: while unknown) — see :func:`tree_state`.
IndexState = Tuple[
    Optional[Dict[int, List[TNode]]],
    Optional[Dict[int, List[TNode]]],
    Optional[bool],
]


def _merge_indexes(
    indexes: Sequence[Dict[int, List[TNode]]]
) -> Dict[int, List[TNode]]:
    """Concatenate LC indexes class by class, in sequence order.

    A class only one index holds keeps that index's list (shared, never
    mutated); a class several hold gets a fresh list.
    """
    out: Dict[int, List[TNode]] = {}
    for index in indexes:
        out.update(index)
    if len(out) == sum(map(len, indexes)):
        return out  # no class in two indexes: nothing to concatenate
    out = {}
    owned: set = set()
    for index in indexes:
        for lcl, nodes in index.items():
            have = out.get(lcl)
            if have is None:
                out[lcl] = nodes
            elif lcl in owned:
                have.extend(nodes)
            else:
                out[lcl] = have + nodes
                owned.add(lcl)
    return out


def tree_state(tree: "XTree") -> IndexState:
    """``tree``'s cached LC state; a tree known to be shadow-free serves
    its visible index as the shadow-inclusive one."""
    inclusive = tree._lc_index_shadowed
    if inclusive is None and tree._saw_shadowed is False:
        inclusive = tree._lc_index
    return tree._lc_index, inclusive, tree._saw_shadowed


def forest_state(
    states: Sequence[IndexState],
    head: Optional[Dict[int, List[TNode]]] = None,
) -> IndexState:
    """The LC state of trees laid side by side, in pre-order.

    For a tree whose pre-order is the ``head`` entries (a fresh root)
    followed by the given trees one after another — a join's stitched
    output.  Each index is derived only when every part has it.
    """
    if head is None and len(states) == 1:
        return states[0]
    flags = {saw for _, _, saw in states}
    if flags <= {False}:
        saw: Optional[bool] = False
    else:
        saw = True if True in flags else None
    prefix = [head] if head else []
    visible = prefix + [index for index, _, _ in states]
    merged = None if None in visible else _merge_indexes(visible)
    if saw is False:
        return merged, merged, saw
    inclusive = prefix + [index for _, index, _ in states]
    return (
        merged,
        None if None in inclusive else _merge_indexes(inclusive),
        saw,
    )


class XTree:
    """A single tree of an intermediate result, with its LC index.

    The logical-class index (``LCL -> [nodes]``) is derived lazily from node
    markings and cached.  Trees are immutable once an operator has emitted
    them — memoised results feed several consumers, and output trees share
    subtrees with their inputs — so an operator that edits a witness
    path-copies it (:meth:`spine`, :meth:`path_copy`, :meth:`adopt_index`)
    and edits the copies: the edit costs the root→target paths, not the
    tree.  :meth:`clone` is for callers that need a private deep copy.
    """

    __slots__ = ("root", "_lc_index", "_lc_index_shadowed", "_saw_shadowed")

    def __init__(self, root: TNode) -> None:
        self.root = root
        self._lc_index: Optional[Dict[int, List[TNode]]] = None
        self._lc_index_shadowed: Optional[Dict[int, List[TNode]]] = None
        #: True/False once a visible-index build observed (or ruled out)
        #: shadowed nodes; None while unknown.  Lets shadow-free trees
        #: serve shadow-inclusive probes from the visible index.
        self._saw_shadowed: Optional[bool] = None

    def __reduce__(self):
        # the LC state is a cache: a tree crosses a process boundary as
        # its root alone and the receiver derives the index on demand
        return XTree, (self.root,)

    def invalidate(self) -> None:
        """Drop the cached LC index after structural modification."""
        self._lc_index = None
        self._lc_index_shadowed = None
        self._saw_shadowed = None

    def _build_index(self, include_shadowed: bool) -> Dict[int, List[TNode]]:
        # the walk is inlined: index building is the hottest whole-tree
        # traversal in the system and generator overhead is measurable
        index: Dict[int, List[TNode]] = {}
        root = self.root
        saw_shadowed = root.shadowed
        if root.shadowed and not include_shadowed:
            self._saw_shadowed = True
            return index
        stack = [root]
        while stack:
            node = stack.pop()
            if node.shadowed:
                saw_shadowed = True
                if not include_shadowed and node is not root:
                    continue
            for lcl in node.lcls:
                index.setdefault(lcl, []).append(node)
            stack.extend(reversed(node.children))
        # the visible walk skips shadowed *subtrees*, but it still sees
        # each skipped subtree's root, so the flag is exact either way
        self._saw_shadowed = saw_shadowed
        return index

    def nodes_in_class(
        self, lcl: int, include_shadowed: bool = False
    ) -> List[TNode]:
        """All (visible) nodes belonging to logical class ``lcl``.

        Base data carries no class markings, so unknown classes map to the
        empty set — exactly the paper's convention ("When no logical class
        information exists in a tree we assume the class maps to the empty
        set").
        """
        return list(self.class_nodes(lcl, include_shadowed))

    def class_nodes(
        self, lcl: int, include_shadowed: bool = False
    ) -> Sequence[TNode]:
        """Borrowed read-only view of a class's member list.

        Unlike :meth:`nodes_in_class` this returns the index's own list
        without copying — callers must not mutate it.  Index lists may
        be shared between trees that share structure, so mutation would
        corrupt more than this tree.  A shadow-inclusive probe on a
        tree known to be shadow-free is answered from the visible index
        (the two are identical then).
        """
        if include_shadowed:
            if self._lc_index_shadowed is not None:
                return self._lc_index_shadowed.get(lcl, ())
            if self._lc_index is not None and self._saw_shadowed is False:
                return self._lc_index.get(lcl, ())
            self._lc_index_shadowed = self._build_index(True)
            return self._lc_index_shadowed.get(lcl, ())
        if self._lc_index is None:
            self._lc_index = self._build_index(False)
        return self._lc_index.get(lcl, ())

    def singleton(self, lcl: int, operator: str) -> TNode:
        """The unique node of class ``lcl``; raises CardinalityError else."""
        from ..errors import CardinalityError

        nodes = self.nodes_in_class(lcl)
        if len(nodes) != 1:
            raise CardinalityError(lcl, len(nodes), operator)
        return nodes[0]

    def clone(self) -> "XTree":
        """Deep copy of the tree (ids, classes and shadow flags preserved)."""
        return XTree(self.root.clone())

    # ------------------------------------------------------------------
    # path copying: edit a witness for the cost of the edit
    # ------------------------------------------------------------------
    def spine(self, targets: Sequence[TNode]) -> List[SpineEntry]:
        """The nodes on the root→target paths, targets included, pre-order.

        Each entry is ``(node, parent, position)``: ``parent`` indexes
        the entry of the node's parent (-1 for the root) and ``position``
        the node among its parent's children — what :meth:`path_copy`
        needs to rebuild the paths without looking at any other node.
        Any prefix of a spine is itself a spine.

        Targets are found by identity, shadowed or not, and the search
        stops at the last one.  When every target is a stored node,
        stored subtrees whose interval holds no target are skipped
        without descending: a stored node's interval bounds its
        structural subtree in every intermediate tree (operators attach
        only descendants-by-interval, or temporary nodes, below stored
        nodes).  Raises ``ValueError`` for a target outside the tree.
        """
        wanted = {id(target) for target in targets}
        spans = [
            nid
            for nid in (target.nid for target in targets)
            if isinstance(nid, NodeId)
        ]
        prune = len(spans) == len(targets)
        spine: List[SpineEntry] = []
        missing = len(wanted)

        def visit(node: TNode, parent: int, position: int) -> bool:
            nonlocal missing
            on_path = id(node) in wanted
            if on_path:
                missing -= 1
            elif prune:
                nid = node.nid
                if isinstance(nid, NodeId) and not any(
                    nid.contains(span) for span in spans
                ):
                    return False
            entry = len(spine)
            spine.append((node, parent, position))
            for at, child in enumerate(node.children):
                if not missing:
                    break
                if visit(child, entry, at):
                    on_path = True
            if not on_path:
                spine.pop()
            return on_path

        visit(self.root, -1, 0)
        if missing:
            raise ValueError(f"{missing} path-copy target(s) not in the tree")
        return spine

    def path_copy(
        self, spine: Sequence[SpineEntry]
    ) -> Tuple["XTree", Dict[int, TNode]]:
        """A tree equal to this one that copies only the ``spine`` nodes.

        Every subtree off the spine is shared by reference with this
        tree; an empty spine copies just the root.  Returns the new
        tree — no cached index yet, see :meth:`adopt_index` — and the
        ``id(original) -> copy`` mapping of the copied nodes, through
        which the caller applies its edit.
        """
        twins: List[TNode] = []
        mapping: Dict[int, TNode] = {}
        for node, parent, position in spine or [(self.root, -1, 0)]:
            twin = mapping[id(node)] = node.copy_node()
            twins.append(twin)
            if parent >= 0:
                twins[parent].children[position] = twin
        return XTree(twins[0]), mapping

    def adopt_index(
        self,
        base: "XTree",
        mapping: Dict[int, TNode],
        added: Sequence[Tuple[int, TNode]],
    ) -> None:
        """Derive this path copy's cached state from ``base``'s.

        For a copy of ``base`` (through ``mapping``) whose only edit was
        to append the visible ``added`` nodes — ``(class, node)`` in
        attachment order, not interleaved with existing class members —
        below copied visible nodes.  Shadow knowledge carries over, and
        so does each index ``base`` has cached, unless an added class
        already has entries there (appending would break their
        pre-order); what is not derived is rebuilt lazily as usual.
        Edits that drop nodes or flip shadow flags must not call this.
        """
        self._saw_shadowed = base._saw_shadowed
        fresh = {lcl for lcl, _ in added}
        if base._lc_index is not None and fresh.isdisjoint(base._lc_index):
            self._lc_index = _derive_index(base._lc_index, mapping, added)
        if base._lc_index_shadowed is not None and fresh.isdisjoint(
            base._lc_index_shadowed
        ):
            self._lc_index_shadowed = _derive_index(
                base._lc_index_shadowed, mapping, added
            )

    def adopt_state(self, state: IndexState) -> None:
        """Install a derived LC state (see :func:`forest_state`)."""
        visible, inclusive, saw = state
        self._lc_index = visible
        self._saw_shadowed = saw
        if saw is not False:
            self._lc_index_shadowed = inclusive

    @property
    def order_key(self) -> Tuple[int, int, int]:
        """Document-order key of the tree (its root's id order)."""
        return self.root.nid.order_key

    def canonical(self, by_content: bool = True) -> Tuple:
        """Hashable canonical form of the whole tree."""
        return self.root.canonical(by_content)

    def to_xml(self) -> str:
        """Serialise the tree to XML (see :meth:`TNode.to_xml`)."""
        return self.root.to_xml()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<XTree root={self.root.tag}>"
