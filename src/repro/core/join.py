"""The Join operator ``J[apt, p]`` (Section 2.3).

Joins two tree sequences on value predicates between logical classes and
stitches matching trees under a fresh ``join_root`` node.  The right-hand
edge of the result structure may carry any of the four matching
specifications: ``-`` pairs one left tree with one right tree per output,
``+``/``*`` nest *all* matching right trees under one output per left tree
(the Nest-Value-Join of Section 5.2), and ``?``/``*`` keep left trees with
no match (left-outer variants).

Physical strategy: sort–merge–sort (Section 5.1) — equality sorts both
sides by join value and merges, the inequalities sort the right side once
and bisect it per left tree (a band join), and only ``!=`` / ``contains``
compare every pair; the output is then re-sorted by the node id of the
left input's root to restore document order.  The nest variants take
their clusters straight from the join.

The **count form** (``count_lcl``, a nest join only) emits no cluster:
per left tree, one ``count`` node holding the cluster's size, labelled
``count_lcl``, stitched under the ``join_root`` beside the left tree.
The translator chooses it for a LET whose every use is ``count($v)``
(DESIGN §5), so the right side is the nested block's tuples before its
RETURN and the constructed items are never built.  Output trees sort as
the tree form's would: by the left root, then by the first cluster
member's position in the right input, empty clusters last.  Either side
may be a :class:`~repro.columns.batch.ColumnBatch`, read off its
columns; a batch left side makes the output a batch too.

Output trees share their input trees' roots, and their LC indexes are
concatenated from the inputs' (DESIGN §10, the path-copy rule), so no
reader re-walks a stitched tree.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from ..columns.batch import ColumnBatch
from ..errors import AlgebraError, CardinalityError
from ..model.node_id import new_temp_id
from ..model.sequence import TreeSequence
from ..model.tree import (
    IndexState,
    TNode,
    XTree,
    forest_state,
    tree_state,
)
from ..model.value import compare
from ..physical.value_join import nest_merge, theta_clusters, theta_join
from .base import (
    Context,
    JoinPredicate,
    Operator,
    class_node_id,
    class_value,
)


def _id_key(nid) -> str:
    """A node-identity join key."""
    return "#" + ":".join(str(part) for part in nid.order_key)


def _key_fn(lcl: int, by_id: bool):
    """Join-key extractor: class content, or a node-identity string."""
    if not by_id:
        return lambda tree: class_value(tree, lcl, "Join")

    def key(tree):
        nid = class_node_id(tree, lcl, "Join")
        return None if nid is None else _id_key(nid)

    return key


def _position_key(side, lcl: int, by_id: bool):
    """:func:`_key_fn` over one side's positions, for a tree sequence or
    a batch (whose rows carry no shadowed nodes)."""
    if not isinstance(side, ColumnBatch):
        key = _key_fn(lcl, by_id)
        return lambda at: key(side[at])
    column = side.nids if by_id else side.values

    def row_key(row: int):
        found = side.class_positions(row, lcl)
        if not found:
            return None
        if len(found) > 1:
            raise CardinalityError(lcl, len(found), "Join")
        value = column[found[0]]
        return _id_key(value) if by_id else value

    return row_key


def _pair_test(pred: JoinPredicate, lkey=None, rkey=None):
    """A secondary predicate as a test on one ``(left, right)`` pair.

    ``lkey``/``rkey`` read the items (trees by default).  NULL never
    matches: an empty class pairs with nothing, by content or by id
    (two empty classes are not the same node).
    """
    lkey = lkey or _key_fn(pred.left_lcl, pred.by_id)
    rkey = rkey or _key_fn(pred.right_lcl, pred.by_id)
    if pred.by_id:
        def test(left: XTree, right: XTree) -> bool:
            key = lkey(left)
            return key is not None and key == rkey(right)

        return test
    return lambda left, right: compare(lkey(left), pred.op, rkey(right))


class JoinOp(Operator):
    """Value (or cartesian) join of two tree sequences.

    With ``count_lcl`` it is the count form of a nest join (see the
    module docstring).
    """

    name = "Join"

    def __init__(
        self,
        left: Operator,
        right: Operator,
        predicates: Sequence[JoinPredicate] = (),
        root_lcl: int = 0,
        right_mspec: str = "-",
        count_lcl: int = 0,
    ) -> None:
        super().__init__([left, right])
        if right_mspec not in ("-", "?", "+", "*"):
            raise AlgebraError(f"invalid join mspec {right_mspec!r}")
        if count_lcl and right_mspec not in ("+", "*"):
            raise AlgebraError("only a nest join ('+' or '*') counts")
        self.predicates: List[JoinPredicate] = list(predicates)
        self.root_lcl = root_lcl
        self.right_mspec = right_mspec
        #: the class of the count node the count form emits, or 0
        self.count_lcl = count_lcl

    # ------------------------------------------------------------------
    def execute(
        self, ctx: Context, inputs: List[TreeSequence]
    ) -> TreeSequence:
        left, right = inputs
        if self.count_lcl:
            return self._count(ctx, left, right)
        nest = self.right_mspec in ("+", "*")
        if not self.predicates:
            if nest:
                everything = list(right)
                return self._stitch(
                    ctx, left, [(tree, everything) for tree in left]
                )
            pairs = [(l, r) for l in left for r in right]
            return self._stitch(ctx, left, pairs)
        first, rest = self.predicates[0], self.predicates[1:]
        left_key = _key_fn(first.left_lcl, first.by_id)
        right_key = _key_fn(first.right_lcl, first.by_id)
        # joins never pair trees with NULL join values
        lefts = [t for t in left if left_key(t) is not None]
        rights = [t for t in right if right_key(t) is not None]
        tests = [_pair_test(pred) for pred in rest]
        if nest:
            # the clusters come straight from the join, in right order
            clusters = theta_clusters(
                lefts, rights, first.op, left_key, right_key, ctx.metrics
            )
            matched = list(zip(lefts, clusters))
            for test in tests:
                matched = [
                    (l, [r for r in cluster if test(l, r)])
                    for l, cluster in matched
                ]
            return self._stitch(ctx, left, matched)
        pairs = theta_join(
            lefts, rights, first.op, left_key, right_key, ctx.metrics
        )
        for test in tests:
            pairs = [(l, r) for l, r in pairs if test(l, r)]
        return self._stitch(ctx, left, pairs)

    def execute_batch(self, ctx: Context, inputs: list):
        """The count form reads batches off their columns; the tree
        forms take the materialising fallback."""
        if not self.count_lcl:
            return super().execute_batch(ctx, inputs)
        out = self._count(ctx, *inputs)
        if isinstance(out, ColumnBatch):
            self.note_batch(ctx, out)
        return out

    # ------------------------------------------------------------------
    def _clusters(self, ctx: Context, left, right) -> List[List[int]]:
        """Per left position, the right positions of its cluster, in
        right order: the tree form's clusters, by position."""
        if not self.predicates:
            everything = list(range(len(right)))
            return [everything for _ in range(len(left))]
        first, rest = self.predicates[0], self.predicates[1:]
        left_key = _position_key(left, first.left_lcl, first.by_id)
        right_key = _position_key(right, first.right_lcl, first.by_id)
        left_keys = [left_key(at) for at in range(len(left))]
        right_keys = [right_key(at) for at in range(len(right))]
        # joins never pair trees with NULL join values
        lefts = [at for at, key in enumerate(left_keys) if key is not None]
        rights = [at for at, key in enumerate(right_keys) if key is not None]
        clusters: List[List[int]] = [[] for _ in left_keys]
        found = theta_clusters(
            lefts, rights, first.op, left_keys.__getitem__,
            right_keys.__getitem__, ctx.metrics,
        )
        for at, cluster in zip(lefts, found):
            clusters[at] = cluster
        for pred in rest:
            test = _pair_test(
                pred,
                _position_key(left, pred.left_lcl, pred.by_id),
                _position_key(right, pred.right_lcl, pred.by_id),
            )
            clusters = [
                [r for r in cluster if test(at, r)]
                for at, cluster in enumerate(clusters)
            ]
        return clusters

    def _count(self, ctx: Context, left, right):
        """The count form: each left tree with its cluster's size."""
        outer = self.right_mspec == "*"
        batch = isinstance(left, ColumnBatch)
        order = left.row_order_key if batch else (lambda at: left[at].order_key)
        # a position past every right one: empty clusters sort last
        last = len(right)
        decorated = [
            (order(at), cluster[0] if cluster else last, at, len(cluster))
            for at, cluster in enumerate(self._clusters(ctx, left, right))
            if cluster or outer
        ]
        ctx.metrics.nest_joins += 1
        ctx.metrics.sort_ops += 1
        decorated.sort(key=lambda item: (item[0], item[1]))
        if batch:
            return self._count_batch(left, decorated)
        result = TreeSequence()
        for _, _, at, size in decorated:
            count = TNode("count", size, lcls={self.count_lcl})
            index = {self.count_lcl: [count]}
            result.append(
                self._make_tree(left[at], [count], (index, index, False))
            )
            ctx.metrics.trees_built += 1
        return result

    def _count_batch(self, left: ColumnBatch, decorated: list) -> ColumnBatch:
        """Rows of ``join_root``, the left row's slice and the count."""
        src_offsets = left.offsets
        src_tags, src_values = left.tags, left.values
        src_nids, src_labels = left.nids, left.labels
        src_parents = left.parents
        offsets = [0]
        tags: List[str] = []
        values: list = []
        nids: list = []
        labels: List[int] = []
        parents: List[int] = []
        for _, _, row, size in decorated:
            start, end = src_offsets[row], src_offsets[row + 1]
            tags.append("join_root")
            values.append(None)
            nids.append(new_temp_id())
            labels.append(self.root_lcl)
            parents.append(-1)
            tags.extend(src_tags[start:end])
            values.extend(src_values[start:end])
            nids.extend(src_nids[start:end])
            labels.extend(src_labels[start:end])
            # one node in front: the left root (-1) lands on join_root
            parents.extend([parent + 1 for parent in src_parents[start:end]])
            tags.append("count")
            values.append(size)
            nids.append(None)
            labels.append(self.count_lcl)
            parents.append(0)
            offsets.append(len(tags))
        return ColumnBatch(offsets, tags, values, nids, labels, parents)

    # ------------------------------------------------------------------
    def _stitch(
        self,
        ctx: Context,
        all_left: TreeSequence,
        matches: list,
    ) -> TreeSequence:
        """Build join_root output trees per the right-edge mSpec.

        ``matches`` holds ``(left, cluster)`` entries in left order for
        the nest variants and ``(left, right)`` pairs otherwise.  Pairs
        arrive in join-value order (the merge output); we sort them back
        into document order *before* constructing the output trees, so
        the fresh join_root temporary ids ascend in document order —
        Property 4 of Section 5.1, which is what lets subsequent
        operators re-establish order by sorting on root ids.
        """
        outer = self.right_mspec in ("?", "*")
        decorated: List[Tuple[tuple, tuple, XTree, List[XTree]]] = []
        if self.right_mspec in ("+", "*"):
            for left_tree, cluster in nest_merge(
                matches, all_left, outer=outer, metrics=ctx.metrics
            ):
                first_right = (
                    cluster[0].order_key if cluster else (2, 0, 0)
                )
                decorated.append(
                    (left_tree.order_key, first_right, left_tree, cluster)
                )
        else:
            matched = set()
            for left_tree, right_tree in matches:
                matched.add(id(left_tree))
                decorated.append(
                    (
                        left_tree.order_key,
                        right_tree.order_key,
                        left_tree,
                        [right_tree],
                    )
                )
            if outer:
                for left_tree in all_left:
                    if id(left_tree) not in matched:
                        decorated.append(
                            (left_tree.order_key, (2, 0, 0), left_tree, [])
                        )
        # the final sort of sort-merge-sort: restore document order
        ctx.metrics.sort_ops += 1
        decorated.sort(key=lambda item: (item[0], item[1]))
        result = TreeSequence()
        #: per cluster list, its roots and LC state: a nest join hands
        #: many left trees the same cluster, gathered once
        parts: dict = {}
        for _, _, left_tree, rights in decorated:
            part = parts.get(id(rights))
            if part is None:
                part = parts[id(rights)] = (
                    [tree.root for tree in rights],
                    forest_state([tree_state(tree) for tree in rights]),
                )
            result.append(self._make_tree(left_tree, *part))
            ctx.metrics.trees_built += 1
        return result

    def _make_tree(
        self, left: XTree, right_roots: List[TNode], rights_state: IndexState
    ) -> XTree:
        root = TNode("join_root", lcls={self.root_lcl} if self.root_lcl else None)
        # share the input trees instead of cloning them: operators
        # never mutate their inputs (memoised results are shared
        # between consumers already), so stitching the roots in
        # place is safe — an operator that edits the output
        # path-copies the nodes it touches (XTree.path_copy) and
        # keeps sharing the rest
        root.children = [left.root] + right_roots
        result = XTree(root)
        # derive the stitched tree's LC indexes by concatenation: the
        # fresh root comes first in pre-order, then every input subtree
        # in child order
        result.adopt_state(
            forest_state(
                [tree_state(left), rights_state],
                {self.root_lcl: [root]} if self.root_lcl else None,
            )
        )
        return result

    def lc_produced(self):
        return {lcl for lcl in (self.root_lcl, self.count_lcl) if lcl}

    def lc_consumed(self):
        out = set()
        for pred in self.predicates:
            out.add(pred.left_lcl)
            out.add(pred.right_lcl)
        return out

    def params(self) -> str:
        preds = ", ".join(p.describe() for p in self.predicates) or "cartesian"
        count = f" count -> ({self.count_lcl})" if self.count_lcl else ""
        return (
            f"[{preds}] mspec={self.right_mspec!r}{count} "
            f"root_lcl={self.root_lcl}"
        )
