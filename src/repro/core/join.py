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

Output trees share their input trees' roots, and their LC indexes are
concatenated from the inputs' (DESIGN §10, the path-copy rule), so no
reader re-walks a stitched tree.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from ..errors import AlgebraError
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


def _key_fn(lcl: int, by_id: bool):
    """Join-key extractor: class content, or a node-identity string."""
    if not by_id:
        return lambda tree: class_value(tree, lcl, "Join")

    def key(tree):
        nid = class_node_id(tree, lcl, "Join")
        if nid is None:
            return None
        return "#" + ":".join(str(part) for part in nid.order_key)

    return key


def _pair_test(pred: JoinPredicate):
    """A secondary predicate as a test on one ``(left, right)`` pair.

    NULL never matches: an empty class pairs with nothing, by content
    or by id (two empty classes are not the same node).
    """
    lkey = _key_fn(pred.left_lcl, pred.by_id)
    rkey = _key_fn(pred.right_lcl, pred.by_id)
    if pred.by_id:
        def test(left: XTree, right: XTree) -> bool:
            key = lkey(left)
            return key is not None and key == rkey(right)

        return test
    return lambda left, right: compare(lkey(left), pred.op, rkey(right))


class JoinOp(Operator):
    """Value (or cartesian) join of two tree sequences."""

    name = "Join"

    def __init__(
        self,
        left: Operator,
        right: Operator,
        predicates: Sequence[JoinPredicate] = (),
        root_lcl: int = 0,
        right_mspec: str = "-",
    ) -> None:
        super().__init__([left, right])
        if right_mspec not in ("-", "?", "+", "*"):
            raise AlgebraError(f"invalid join mspec {right_mspec!r}")
        self.predicates: List[JoinPredicate] = list(predicates)
        self.root_lcl = root_lcl
        self.right_mspec = right_mspec

    # ------------------------------------------------------------------
    def execute(
        self, ctx: Context, inputs: List[TreeSequence]
    ) -> TreeSequence:
        left, right = inputs
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
        return {self.root_lcl} if self.root_lcl else set()

    def lc_consumed(self):
        out = set()
        for pred in self.predicates:
            out.add(pred.left_lcl)
            out.add(pred.right_lcl)
        return out

    def params(self) -> str:
        preds = ", ".join(p.describe() for p in self.predicates) or "cartesian"
        return f"[{preds}] mspec={self.right_mspec!r} root_lcl={self.root_lcl}"
