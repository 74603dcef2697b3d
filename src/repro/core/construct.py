"""The Construct operator ``C[c]`` (Section 2.3).

Takes an *annotated construct-pattern tree*: an APT-like tree with
"facilities for tagging, renaming, and arbitrary tree assembly".  Our
construct patterns are built from three node kinds:

* :class:`CElement` — a new element with a tag, optional attributes whose
  values are literals or class references, and child construct nodes;
* :class:`CClassRef` — splice the *full subtrees* of every node of a
  logical class (this is where materialisation I/O is paid: stored nodes
  are fetched through the buffer pool on demand);
* :class:`CText` — literal text content.

Box "Construct 10" of Figure 7 is expressed as::

    CElement("person", lcl=15,
             attrs=[("name", CClassRef(12, text_only=True))],
             children=[CClassRef(13)])

Class markings on spliced roots survive so that outer queries can keep
referencing inner constructed content (the Figure 8 requirement that
"inner construct elements referenced in the outer clause should survive
the outer projection").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple, Union

from ..columns.batch import ColumnBatch
from ..model.node_id import NodeId
from ..model.sequence import TreeSequence
from ..model.tree import TNode, XTree
from .base import Context, Operator


@dataclass
class CClassRef:
    """Splice the members of a logical class into the constructed tree.

    With ``text_only`` the members' atomic content is used instead of their
    subtrees (the ``(12).text()`` notation of the paper's figures).

    With ``hidden`` the spliced nodes are marked *shadowed*: they carry
    data an outer operator (the deferred correlation join of a nested
    query) still needs, but are not part of the visible query result —
    the (9) reference Figure 8's Construct 8 adds for Join 9's benefit.
    """

    lcl: int
    text_only: bool = False
    hidden: bool = False

    def describe(self) -> str:
        suffix = ".text()" if self.text_only else ""
        if self.hidden:
            suffix += " hidden"
        return f"({self.lcl}){suffix}"


@dataclass
class CText:
    """Literal text content inside a constructed element."""

    text: str

    def describe(self) -> str:
        return repr(self.text)


@dataclass
class CElement:
    """A constructed element: tag, attributes, children, class label."""

    tag: str
    lcl: int = 0
    attrs: List[Tuple[str, Union[str, CClassRef]]] = field(
        default_factory=list
    )
    children: List[Union["CElement", CClassRef, CText]] = field(
        default_factory=list
    )

    def describe(self, depth: int = 0) -> str:
        pad = "  " * depth
        attrs = " ".join(
            "@{}={}".format(
                name,
                value.describe()
                if isinstance(value, CClassRef)
                else repr(value),
            )
            for name, value in self.attrs
        )
        header = f"{pad}<{self.tag}> {attrs} [lcl={self.lcl}]".rstrip()
        lines = [header]
        for child in self.children:
            if isinstance(child, CElement):
                lines.append(child.describe(depth + 1))
            else:
                lines.append(f"{'  ' * (depth + 1)}{child.describe()}")
        return "\n".join(lines)


class ConstructOp(Operator):
    """Build one constructed tree per input tree.

    When the construct pattern is a bare :class:`CClassRef` (a RETURN of a
    plain path, ``RETURN $p/name``), each member of the class becomes its
    own output tree: the materialised subtree, or a ``text`` node for
    ``.text()`` references.
    """

    name = "Construct"

    def __init__(
        self,
        ctree: Union[CElement, CClassRef],
        input_op: Operator = None,
    ) -> None:
        super().__init__([input_op] if input_op is not None else [])
        self.ctree = ctree

    def execute(
        self, ctx: Context, inputs: List[TreeSequence]
    ) -> TreeSequence:
        out = TreeSequence()
        for tree in inputs[0]:
            if isinstance(self.ctree, CClassRef):
                for spliced in self._materialize(ctx, tree, self.ctree):
                    out.append(self._spliced_tree(spliced))
                    ctx.metrics.trees_built += 1
            else:
                index: Dict[int, List[TNode]] = {}
                odd: List[TNode] = []
                element = self._build_element(
                    ctx, self.ctree, tree, index, odd
                )
                out.append(_indexed(element, index, odd))
                ctx.metrics.trees_built += 1
        return out

    def execute_batch(self, ctx: Context, inputs: list):
        """Batch input form: constructed trees read straight off columns.

        Construct emits fresh trees either way (its output is new
        content, not a selection of input rows), so the result is a
        ``TreeSequence`` — but a columnar input never materialises:
        spliced stored subtrees fetch through the buffer pool exactly
        as the per-tree path does, class text reads off the value
        column, and only content without a stored id (nested construct
        output) builds nodes from its column slice.  Each row's labels
        are read once, into one class → positions map.
        """
        source = inputs[0]
        if not isinstance(source, ColumnBatch):
            return self.execute(ctx, inputs)
        out = TreeSequence()
        ctree = self.ctree
        for row in range(len(source)):
            if isinstance(ctree, CClassRef):
                for spliced in self._splice_columns(
                    ctx, source, source.class_positions(row, ctree.lcl), ctree
                ):
                    out.append(self._spliced_tree(spliced))
                    ctx.metrics.trees_built += 1
            else:
                index: Dict[int, List[TNode]] = {}
                odd: List[TNode] = []
                element = self._build_element_columns(
                    ctx, ctree, source, source.row_classes(row), index, odd
                )
                out.append(_indexed(element, index, odd))
                ctx.metrics.trees_built += 1
        self.note_batch(ctx, out)
        return out

    def _spliced_tree(self, spliced) -> XTree:
        """One output tree of a bare class reference."""
        index: Dict[int, List[TNode]] = {}
        odd: List[TNode] = []
        if self.ctree.text_only:
            return _indexed(TNode("text", spliced), index, odd)
        _record(spliced, index, odd)
        return _indexed(spliced, index, odd)

    # ------------------------------------------------------------------
    def _build_element_columns(
        self,
        ctx: Context,
        spec: CElement,
        source: ColumnBatch,
        classes: Dict[int, List[int]],
        index: Dict[int, List[TNode]],
        odd: List[TNode],
    ) -> TNode:
        """The columnar twin of :meth:`_build_element`; ``classes`` is
        the row's :meth:`~repro.columns.batch.ColumnBatch.row_classes`."""
        element = TNode(spec.tag)
        if spec.lcl:
            element.lcls.add(spec.lcl)
            index.setdefault(spec.lcl, []).append(element)
        values = source.values
        for attr_name, attr_value in spec.attrs:
            if isinstance(attr_value, CClassRef):
                positions = classes.get(attr_value.lcl)
                text = values[positions[0]] if positions else None
                value = "" if text is None else str(text)
            else:
                value = attr_value
            element.add_child(TNode("@" + attr_name, value))
        for child in spec.children:
            if isinstance(child, CElement):
                element.add_child(
                    self._build_element_columns(
                        ctx, child, source, classes, index, odd
                    )
                )
            elif isinstance(child, CText):
                element.value = (
                    child.text
                    if element.value is None
                    else f"{element.value}{child.text}"
                )
            else:
                for spliced in self._splice_columns(
                    ctx, source, classes.get(child.lcl, ()), child
                ):
                    if child.text_only:
                        element.value = (
                            spliced
                            if element.value is None
                            else f"{element.value} {spliced}"
                        )
                    else:
                        element.add_child(spliced)
                        _record(spliced, index, odd)
        return element

    def _splice_columns(
        self,
        ctx: Context,
        source: ColumnBatch,
        positions: Sequence[int],
        ref: CClassRef,
    ):
        """Yield the spliced content for one class reference, columnar:
        ``positions`` are the referenced class's column positions."""
        values, nids, labels = source.values, source.nids, source.labels
        for position in positions:
            if ref.text_only:
                value = values[position]
                if value is not None:
                    yield str(value)
                continue
            nid = nids[position]
            if isinstance(nid, NodeId):
                copy = ctx.db.subtree(nid, {int(labels[position])})
            else:
                # constructed content: rebuild its slice (batch rows are
                # immutable, so the fresh nodes are private by nature)
                copy = source.subtree_node(position)
            if ref.hidden:
                copy.shadowed = True
            yield copy

    # ------------------------------------------------------------------
    def _build_element(
        self,
        ctx: Context,
        spec: CElement,
        tree: XTree,
        index: Dict[int, List[TNode]],
        odd: List[TNode],
    ) -> TNode:
        element = TNode(spec.tag)
        if spec.lcl:
            element.lcls.add(spec.lcl)
            index.setdefault(spec.lcl, []).append(element)
        for attr_name, attr_value in spec.attrs:
            if isinstance(attr_value, CClassRef):
                value = self._class_text(tree, attr_value.lcl)
            else:
                value = attr_value
            element.add_child(TNode("@" + attr_name, value))
        for child in spec.children:
            if isinstance(child, CElement):
                element.add_child(
                    self._build_element(ctx, child, tree, index, odd)
                )
            elif isinstance(child, CText):
                element.value = (
                    child.text
                    if element.value is None
                    else f"{element.value}{child.text}"
                )
            else:
                for spliced in self._materialize(ctx, tree, child):
                    if child.text_only:
                        element.value = (
                            spliced
                            if element.value is None
                            else f"{element.value} {spliced}"
                        )
                    else:
                        element.add_child(spliced)
                        _record(spliced, index, odd)
        return element

    def _class_text(self, tree: XTree, lcl: int) -> str:
        nodes = tree.class_nodes(lcl)
        if not nodes or nodes[0].value is None:
            return ""
        return str(nodes[0].value)

    def _materialize(self, ctx: Context, tree: XTree, ref: CClassRef):
        """Yield the spliced content for one class reference."""
        for node in tree.class_nodes(ref.lcl):
            if ref.text_only:
                if node.value is not None:
                    yield str(node.value)
                continue
            if isinstance(node.nid, NodeId):
                copy = ctx.db.subtree(node.nid, node.lcls)
            elif not ref.hidden:
                # constructed content needs no private copy: splicing
                # only re-parents in the *output* tree and inputs are
                # never mutated in place
                yield node
                continue
            else:
                # hidden splices set the shadow flag, so copy the top
                # node (its subtree can still be shared)
                copy = TNode(node.tag, node.value, node.nid, node.lcls)
                copy.children = node.children
            if ref.hidden:
                copy.shadowed = True
            yield copy

    def lc_produced(self):
        return {lcl for lcl in construct_defined(self.ctree) if lcl}

    def lc_consumed(self):
        return {ref.lcl for ref in construct_refs(self.ctree)}

    def params(self) -> str:
        if isinstance(self.ctree, CClassRef):
            return f"splice {self.ctree.describe()}"
        return f"<{self.ctree.tag}> lcl={self.ctree.lcl}"


def _record(
    spliced: TNode, index: Dict[int, List[TNode]], odd: List[TNode]
) -> None:
    """Index one spliced subtree root as it joins the constructed tree.

    A fetched stored subtree is marked at its root only, so its entries
    are the root's classes.  A hidden splice (shadowed) or constructed
    content (whose marks lie below the root) goes to ``odd`` for
    :func:`_indexed` to sort out.
    """
    if spliced.shadowed or not isinstance(spliced.nid, NodeId):
        odd.append(spliced)
    else:
        for lcl in spliced.lcls:
            index.setdefault(lcl, []).append(spliced)


def _indexed(
    root: TNode, index: Dict[int, List[TNode]], odd: List[TNode]
) -> XTree:
    """The constructed tree, with the LC index recorded while building it.

    Construct makes every node it marks — its elements and the roots of
    fetched stored subtrees — in pre-order, so ``index`` is the visible
    index, for one entry per marked node instead of a walk (DESIGN §10,
    the path-copy rule).  Hidden stored splices add the shadow-inclusive
    index, which is the visible one plus their entries when their
    classes are their own (the hidden correlation classes).  Spliced
    constructed content brings marks no one recorded: that tree's index
    stays lazy.
    """
    tree = XTree(root)
    if not odd:
        tree._lc_index = index
        tree._saw_shadowed = False
        return tree
    hidden: Dict[int, List[TNode]] = {}
    for node in odd:
        if not isinstance(node.nid, NodeId):
            return tree
        for lcl in node.lcls:
            hidden.setdefault(lcl, []).append(node)
    tree._lc_index = index
    tree._saw_shadowed = True
    if hidden.keys().isdisjoint(index):
        tree._lc_index_shadowed = {**index, **hidden}
    return tree


def construct_refs(spec):
    """All :class:`CClassRef` nodes of a construct pattern, in pre-order."""
    if isinstance(spec, CClassRef):
        yield spec
        return
    if isinstance(spec, CElement):
        for _, value in spec.attrs:
            if isinstance(value, CClassRef):
                yield value
        for child in spec.children:
            yield from construct_refs(child)


def construct_defined(spec):
    """All element class labels a construct pattern allocates, in pre-order."""
    if isinstance(spec, CElement):
        if spec.lcl:
            yield spec.lcl
        for child in spec.children:
            yield from construct_defined(child)
