"""The Project operator ``P[nl]`` (Section 2.3).

Retains only the nodes identified by the list of logical class labels; the
relative hierarchy among retained nodes is preserved (a retained node hangs
under its closest retained ancestor).  "If the output is not a tree, the
input tree root is also retained."

TLC projection keeps just the marked nodes — late materialization.  The
``with_subtrees`` flag implements the TAX variant that retains each node's
*entire subtree* ("the entire subtree is retrieved for such nodes",
Section 6.1's description of the TAX plan) — early materialization, and the
cost the paper charges TAX for.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..columns.batch import ColumnBatch
from ..model.node_id import NodeId
from ..model.sequence import TreeSequence
from ..model.tree import TNode, XTree, tree_state
from .base import Context, Operator


class ProjectOp(Operator):
    """Project each tree onto the nodes of the given logical classes."""

    name = "Project"

    def __init__(
        self,
        keep_lcls: Sequence[int],
        input_op: Operator = None,
        with_subtrees: bool = False,
    ) -> None:
        super().__init__([input_op] if input_op is not None else [])
        self.keep_lcls = list(keep_lcls)
        self.with_subtrees = with_subtrees

    def execute(
        self, ctx: Context, inputs: List[TreeSequence]
    ) -> TreeSequence:
        keep = set(self.keep_lcls)
        out = TreeSequence()
        for tree in inputs[0]:
            out.append(self._project_tree(ctx, tree, keep))
        return out

    def _project_tree(self, ctx: Context, tree: XTree, keep: set) -> XTree:
        """Project one tree; its LC index follows by the path-copy rule.

        The scan visits the nodes it copies (retained stored nodes and
        join roots) and the visible nodes it drops, and records the
        copies' index entries as it makes them, in pre-order.  A
        retained constructed node is kept whole and not entered, and so
        is a retained shadowed child: when the output holds such a
        subtree, its index is instead the input's with the visited
        nodes' entries remapped or dropped (:func:`_derive`).
        """
        index: Dict[int, List[TNode]] = {}
        dropped: List[TNode] = []
        whole = kept_hidden = left_hidden = fetched = False
        with_subtrees = self.with_subtrees
        unkept = keep.isdisjoint

        #: one frame per node whose children are being scanned: the
        #: children still to visit, the list the retained ones hang on,
        #: and whether the node itself was copied (else it was dropped)
        todo: List[Tuple[Iterator[TNode], List[TNode], bool]] = []

        def copy_node(node: TNode) -> TNode:
            """Copy a retained stored node; its children are scanned next."""
            nonlocal fetched
            if with_subtrees and isinstance(node.nid, NodeId):
                fetched = True
                return _fetch_subtree(ctx, node)
            copy = TNode(node.tag, node.value, node.nid, node.lcls)
            for lcl in copy.lcls:
                index.setdefault(lcl, []).append(copy)
            if node.children:
                todo.append((iter(node.children), copy.children, True))
            return copy

        def scan() -> None:
            """Run the frames depth first, in pre-order, with no recursion
            (a deep document must not exhaust the interpreter's stack)."""
            nonlocal whole, kept_hidden, left_hidden
            while todo:
                depth = len(todo)
                children, into, copied = todo[-1]
                for child in children:
                    if child.shadowed:
                        if copied:
                            # shadowed nodes are invisible to the operator
                            # but are *retained* in the intermediate
                            # result ("a logical means to retain nodes …
                            # but have them not participating"), awaiting
                            # a later Illuminate
                            into.append(child)
                            whole = kept_hidden = True
                        else:
                            left_hidden = True
                    elif unkept(child.lcls):
                        # a dropped node's retained descendants hang on
                        # its closest retained ancestor
                        dropped.append(child)
                        if child.children:
                            todo.append((iter(child.children), into, False))
                    elif (
                        isinstance(child.nid, NodeId)
                        or child.tag == "join_root"
                    ):
                        into.append(copy_node(child))
                    else:
                        # constructed content is atomic for projection:
                        # it cannot be re-fetched from the database, so a
                        # retained constructed element keeps its whole
                        # subtree ("inner construct elements referenced
                        # in the outer clause should survive the outer
                        # projection", Section 3) — shared, since inputs
                        # are never mutated in place
                        into.append(child)
                        whole = True
                    if len(todo) > depth:
                        break  # the new frame first: pre-order
                else:
                    todo.pop()

        root = tree.root
        if not unkept(root.lcls):
            if not isinstance(root.nid, NodeId) and root.tag != "join_root":
                # a constructed root keeps the whole tree
                out = XTree(root)
                out.adopt_state(tree_state(tree))
                return out
            projected = copy_node(root)
            scan()
        else:
            top: List[TNode] = []
            todo.append((iter(root.children), top, False))
            scan()
            if len(top) == 1:
                dropped.append(root)
                projected = top[0]
            else:
                # not a tree: retain the input root as the connector
                projected = TNode(root.tag, root.value, root.nid, root.lcls)
                projected.children = top
                for lcl in root.lcls:
                    index.setdefault(lcl, []).insert(0, projected)
        out = XTree(projected)
        if fetched:
            return out
        if not whole:
            # every output node is a fresh copy, recorded in pre-order
            out._lc_index = index
            out._saw_shadowed = False
            return out
        if tree._lc_index is None or root.shadowed:
            return out
        out._lc_index = _derive(tree._lc_index, index, dropped)
        if kept_hidden:
            out._saw_shadowed = True
        elif not left_hidden:
            # every shadowed node of the input is in a kept subtree
            out._saw_shadowed = tree._saw_shadowed
        # else unknown: a kept constructed subtree may still hide one
        return out

    def execute_batch(self, ctx: Context, inputs: list):
        """Batch form: retention runs on the columns, rows stay columnar.

        The per-tree rules replicate exactly — a retained node hangs
        under its closest retained ancestor, a non-tree output keeps the
        input root as connector, a retained constructed node keeps its
        whole subtree slice.  ``with_subtrees`` (TAX early
        materialization) fetches stored subtrees and needs real trees,
        so it takes the materialising fallback.
        """
        source = inputs[0]
        if not isinstance(source, ColumnBatch):
            return self.execute(ctx, inputs)
        if self.with_subtrees:
            return super().execute_batch(ctx, inputs)
        keep = set(self.keep_lcls)
        src_tags, src_values = source.tags, source.values
        src_nids, src_labels = source.nids, source.labels
        src_parents, src_offsets = source.parents, source.offsets
        offsets = [0]
        tags: List[str] = []
        values: list = []
        nids: list = []
        labels: List[int] = []
        parents: List[int] = []
        for row in range(len(source)):
            start, end = src_offsets[row], src_offsets[row + 1]
            n = end - start
            children: List[List[int]] = [[] for _ in range(n)]
            for j in range(1, n):
                children[src_parents[start + j]].append(j)
            row_base = len(tags)

            def emit_verbatim(j: int, parent_rel: int) -> None:
                """Copy node ``j``'s whole subtree slice (constructed
                content is atomic for projection)."""
                shift = (len(tags) - row_base) - j
                span_end = j + 1
                stack = [j]
                while stack:
                    node = stack.pop()
                    span_end = max(span_end, node + 1)
                    stack.extend(children[node])
                for k in range(j, span_end):
                    tags.append(src_tags[start + k])
                    values.append(src_values[start + k])
                    nids.append(src_nids[start + k])
                    labels.append(src_labels[start + k])
                    parents.append(
                        parent_rel if k == j
                        else src_parents[start + k] + shift
                    )

            def emit(j: int, parent_rel: int) -> None:
                """Copy retained node ``j``, continuing the scan below."""
                nid = src_nids[start + j]
                if not isinstance(nid, NodeId) and \
                        src_tags[start + j] != "join_root":
                    emit_verbatim(j, parent_rel)
                    return
                rel = len(tags) - row_base
                tags.append(src_tags[start + j])
                values.append(src_values[start + j])
                nids.append(nid)
                labels.append(src_labels[start + j])
                parents.append(parent_rel)
                for child in children[j]:
                    if src_labels[start + child] in keep:
                        emit(child, rel)
                    else:
                        descend(child, rel)

            def descend(j: int, parent_rel: int) -> None:
                for child in children[j]:
                    if src_labels[start + child] in keep:
                        emit(child, parent_rel)
                    else:
                        descend(child, parent_rel)

            if src_labels[start] in keep:
                emit(0, -1)
            else:
                top: List[int] = []

                def find_top(j: int) -> None:
                    for child in children[j]:
                        if src_labels[start + child] in keep:
                            top.append(child)
                        else:
                            find_top(child)

                find_top(0)
                if len(top) == 1:
                    emit(top[0], -1)
                else:
                    # not a tree: retain the input root as the connector
                    tags.append(src_tags[start])
                    values.append(src_values[start])
                    nids.append(src_nids[start])
                    labels.append(src_labels[start])
                    parents.append(-1)
                    for j in top:
                        emit(j, 0)
            offsets.append(len(tags))
        out = ColumnBatch(offsets, tags, values, nids, labels, parents)
        self.note_batch(ctx, out)
        return out

    def lc_consumed(self):
        return set(self.keep_lcls)

    def params(self) -> str:
        kind = " +subtrees" if self.with_subtrees else ""
        return f"keep {sorted(self.keep_lcls)}{kind}"


def _fetch_subtree(ctx: Context, node: TNode) -> TNode:
    """TAX early materialization: fetch the complete stored subtree,
    then transfer the class markings of witness descendants onto the
    matching fetched nodes so joins can still address them."""
    copy = ctx.db.subtree(node.nid, node.lcls)
    by_nid = {n.nid: n for n in copy.walk()}
    for descendant in node.walk():
        if descendant is node or not descendant.lcls:
            continue
        target = by_nid.get(descendant.nid)
        if target is not None:
            target.lcls.update(descendant.lcls)
    return copy


def _derive(
    base: Dict[int, List[TNode]],
    index: Dict[int, List[TNode]],
    dropped: List[TNode],
) -> Optional[Dict[int, List[TNode]]]:
    """A projection's visible LC index from its input's, or None.

    ``index`` holds the copies' entries in pre-order and ``dropped``
    the visible nodes left out; every other visible node is in a kept
    subtree, carried over unchanged.  A class no visited node belongs
    to shares the input's entry list; a class whose entries were all
    visited is its copies.  A class mixing both (no plan makes one)
    leaves the index to a lazy build.
    """
    counts: Dict[int, int] = {}
    for node in dropped:
        for lcl in node.lcls:
            counts[lcl] = counts.get(lcl, 0) + 1
    out = dict(base)
    for lcl in counts.keys() | index.keys():
        mine = index.get(lcl, ())
        if len(mine) + counts.get(lcl, 0) != len(base.get(lcl, ())):
            return None
        if mine:
            out[lcl] = mine
        else:
            del out[lcl]
    return out
