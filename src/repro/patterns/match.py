"""Pattern-tree matching (Definition 3) for annotated pattern trees.

Two matchers share the combination logic:

* :class:`PatternMatcher` matches APTs against *stored documents* through
  the structural-join machinery of Section 5.2 (``-``→structural join,
  ``?``→left-outer, ``+``→nest join, ``*``→left-outer-nest join), and
  supports *extension* patterns whose root references a logical class of
  the input trees (pattern-tree reuse, Section 4.1).
* :func:`match_in_tree` matches an APT against an in-memory tree — used by
  the TAX baseline (whose operators re-match patterns on intermediate
  results), for extension below temporary nodes, and by the Figure 4 tests.

Both produce the heterogeneous witness trees of Definition 3: one witness
per valid mapping *h*, with every matched node tagged by its pattern node's
Logical Class Label.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Sequence, Tuple

from ..columns.batch import ColumnBatch
from ..errors import PatternError
from ..model.node_id import NodeId, TempId
from ..model.sequence import TreeSequence
from ..model.tree import SpineEntry, TNode, XTree
from ..model.value import compare
from ..physical.structural_join import (
    child_columns,
    join_for_mspec,
)
from ..storage.database import Database
from ..telemetry import hooks as telemetry
from .apt import APT, APTEdge, APTNode
from .predicates import NodeTest
from .scan_cache import Candidates, ScanCache


class _MTree:
    """One match variant of a pattern node: identity plus per-edge slots.

    ``ref`` is set when the match lives in an in-memory tree (the node is
    marked rather than copied); otherwise ``nid/tag/value`` describe a
    stored node to materialise.
    """

    __slots__ = ("nid", "tag", "value", "slots", "ref")

    def __init__(self, nid, tag, value, slots=None, ref=None):
        self.nid = nid
        self.tag = tag
        self.value = value
        self.slots: List[List["_MTree"]] = slots if slots is not None else []
        self.ref: Optional[TNode] = ref


def _cluster_alternatives(
    members: List[_MTree], keyer
) -> List[List[_MTree]]:
    """Expand a nest-join cluster into alternatives without duplicate nodes.

    A ``+``/``*`` cluster must contain each matching *node* once; if some
    node produced several variants (its own ``-`` sub-edges multiplied), the
    alternatives are the cross product across nodes.
    """
    groups: Dict[object, List[_MTree]] = {}
    order: List[object] = []
    for member in members:
        key = keyer(member)
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(member)
    if all(len(groups[key]) == 1 for key in order):
        return [members]
    return [list(combo) for combo in itertools.product(*(groups[k] for k in order))]


def _expand_nested(
    joined: List[Tuple[_MTree, List[List[_MTree]]]],
    edge: APTEdge,
    keyer,
) -> List[Tuple[_MTree, List[List[_MTree]]]]:
    """Post-process join output so nested clusters have unique members
    (they already do under a statically single-variant child pattern)."""
    if not edge.nested or edge.child.single_variant:
        return joined
    out = []
    for parent, alternatives in joined:
        expanded: List[List[_MTree]] = []
        for cluster in alternatives:
            if cluster:
                expanded.extend(_cluster_alternatives(cluster, keyer))
            else:
                expanded.append(cluster)
        out.append((parent, expanded))
    return out


def _combine_edge(
    partials: List[_MTree],
    joined: List[Tuple[_MTree, List[List[_MTree]]]],
    order_keys: Optional[Dict[int, tuple]] = None,
) -> "Candidates":
    """Extend each partial with its alternatives for one more edge.

    Returns a fresh :class:`Candidates` list (never the input), so the
    next edge's structural join can attach its probe columns to it.

    ``order_keys`` (when edges run out of source order) maps each
    partial's identity to its enumeration key — the candidate index
    followed by one alternative index per processed edge.  Each new
    partial extends its parent's key with this edge's alternative index,
    so the caller can sort the final variants back into the order
    source-order processing would have enumerated them in.
    """
    by_parent = {id(parent): alts for parent, alts in joined}
    out: Candidates = Candidates()
    for partial in partials:
        alternatives = by_parent.get(id(partial))
        if alternatives is None:
            continue  # parent dropped by a mandatory edge
        for alt_index, alt in enumerate(alternatives):
            extended = _MTree(
                partial.nid,
                partial.tag,
                partial.value,
                partial.slots + [alt],
                partial.ref,
            )
            if order_keys is not None:
                order_keys[id(extended)] = order_keys[id(partial)] + (
                    alt_index,
                )
            out.append(extended)
    return out


class PatternMatcher:
    """Matches annotated pattern trees against a :class:`Database`."""

    def __init__(
        self,
        db: Database,
        order_edges: bool = False,
        strategy: str = "binary",
        scan_cache: Optional[ScanCache] = None,
        limits=None,
    ) -> None:
        self.db = db
        #: Optional :class:`~repro.core.limits.ExecutionLimits` ticked in
        #: the per-tree match/extension loops, so a deadline or
        #: cancellation fires inside a long Select instead of waiting for
        #: the evaluator's next between-operator check.
        self.limits = limits
        #: Query-scoped memo of identical scans (see
        #: :mod:`repro.patterns.scan_cache`).  ``None`` disables caching:
        #: every pattern node re-scans its index postings as the original
        #: substrate did.
        self.scan_cache = scan_cache
        #: With ``order_edges`` the matcher processes a node's mandatory
        #: edges in ascending candidate-count order before its optional
        #: edges — the structural-join-order idea of the paper's reference
        #: [19] ("Join order should be considered by an optimizer … for
        #: our implementation we used a simple bottom-up approach"); the
        #: default reproduces the paper's unordered behaviour.
        self.order_edges = order_edges
        #: ``strategy="holistic"`` matches eligible patterns (all edges
        #: ``-``, no content predicates) with the TwigStack holistic join
        #: of reference [3] instead of cascaded binary structural joins;
        #: ineligible patterns fall back to the binary cascade.
        if strategy not in ("binary", "holistic"):
            raise PatternError(f"unknown match strategy {strategy!r}")
        self.strategy = strategy

    def _edge_plan(self, node: APTNode, doc_name: str) -> list:
        """The edge processing order for one pattern node."""
        edges = list(node.edges)
        if len(edges) < 2:
            return edges
        # an explicit planner annotation wins over both source order and
        # the order_edges heuristic (it was costed, they are guesses);
        # anything but a permutation of the edges is ignored
        hint = getattr(node, "planner_order", None)
        if hint is not None and sorted(hint) == list(range(len(edges))):
            return [edges[index] for index in hint]
        if not self.order_edges:
            return edges
        index = self.db.tag_index(doc_name)

        def cost(edge) -> tuple:
            tag = edge.child.test.tag
            count = index.count(tag) if tag else float("inf")
            mandatory = edge.mspec in ("-", "+")
            # mandatory edges prune partials: run them first, cheapest
            # candidate list first; optional edges only expand
            return (not mandatory, count)

        return sorted(edges, key=cost)

    # ------------------------------------------------------------------
    # document-rooted matching
    # ------------------------------------------------------------------
    def match(self, apt: APT) -> TreeSequence:
        """All witness trees of ``apt`` against its bound document."""
        if apt.doc is None:
            raise PatternError("document-rooted match needs apt.doc")
        if apt.root.lc_ref is not None:
            raise PatternError("use extend() for class-referencing patterns")
        apt.validate()
        self.db.metrics.pattern_matches += 1
        if self.strategy == "holistic" and _holistic_eligible(apt.root):
            out = self._match_holistic(apt)
            self._note_match(out)
            return out
        memo: Dict[int, List[_MTree]] = {}
        matches = self._match_node_db(apt.root, apt.doc, memo)
        out = TreeSequence()
        limits = self.limits
        for mtree in matches:
            if limits is not None:
                limits.tick()
            out.append(XTree(self._build(mtree, apt.root)))
            self.db.metrics.trees_built += 1
        self._note_match(out)
        return out

    def match_batch(self, apt: APT) -> Optional[ColumnBatch]:
        """Columnar :meth:`match`: witness rows, no tree objects built.

        Match variants flatten straight into a
        :class:`~repro.columns.batch.ColumnBatch` — the ``_build`` walk
        and its per-node ``TNode`` construction are skipped entirely;
        downstream batch operators (or the eventual materialisation
        boundary) decide if trees are ever needed.  Returns ``None``
        when the pattern takes the holistic (TwigStack) route, which
        stays per-tree; the caller falls back to :meth:`match`.
        """
        if apt.doc is None:
            raise PatternError("document-rooted match needs apt.doc")
        if apt.root.lc_ref is not None:
            raise PatternError("use extend() for class-referencing patterns")
        apt.validate()
        if self.strategy == "holistic" and _holistic_eligible(apt.root):
            return None
        self.db.metrics.pattern_matches += 1
        memo: Dict[int, List[_MTree]] = {}
        matches = self._match_node_db(apt.root, apt.doc, memo)
        offsets = [0]
        tags: List[str] = []
        values: list = []
        nids: list = []
        labels: List[int] = []
        parents: List[int] = []
        limits = self.limits
        for mtree in matches:
            if limits is not None:
                limits.tick()
            _flatten_variant(
                mtree, apt.root, tags, values, nids, labels, parents,
                len(tags), -1,
            )
            offsets.append(len(tags))
        out = ColumnBatch.from_lists(
            offsets, tags, values, nids, labels, parents
        )
        self._note_match(out)
        return out

    def _note_match(self, out) -> None:
        """Telemetry boundary of one match/extend call (witness count)."""
        if telemetry.enabled():
            telemetry.instrument("matcher.match")
            telemetry.instrument("matcher.trees", len(out))

    def _match_holistic(self, apt: APT) -> TreeSequence:
        """Match a '-'-only predicate-free pattern with TwigStack."""
        from ..physical.twigstack import TwigNode, twig_stack

        def to_twig(node: APTNode, axis: str) -> TwigNode:
            if node.test.tag == "doc_root":
                stream = [self.db.document(apt.doc).root_id]
            else:
                stream = self.db.tag_lookup(apt.doc, node.test.tag)
            twig = TwigNode(str(node.lcl), stream, axis)
            for edge in node.edges:
                twig.children.append(to_twig(edge.child, edge.axis))
            return twig

        twig_root = to_twig(apt.root, "ad")
        matches = twig_stack(twig_root, self.db.metrics)
        out = TreeSequence()
        for assignment in matches:
            out.append(XTree(self._build_assignment(apt.root, assignment)))
            self.db.metrics.trees_built += 1
        return TreeSequence(
            sorted(out, key=lambda tree: tree.order_key)
        )

    def _build_assignment(self, node: APTNode, assignment) -> TNode:
        nid = assignment[str(node.lcl)]
        record = self.db.owner(nid).fetch_by_id(nid)
        built = TNode(record.tag, record.value, nid, {node.lcl})
        for edge in node.edges:
            built.add_child(
                self._build_assignment(edge.child, assignment)
            )
        return built

    # ------------------------------------------------------------------
    # extension matching (pattern-tree reuse)
    # ------------------------------------------------------------------
    def extend(self, apt: APT, trees: TreeSequence) -> TreeSequence:
        """Extend input trees below their ``apt.root.lc_ref`` class nodes.

        For each input tree and each valid combination of matches of the
        pattern's edges below each anchor node, emit one output tree: a
        path copy of the input (DESIGN §10) with the new branches
        attached (stored anchors) or with existing nodes marked into the
        new classes (temporary anchors, matched in memory).

        All stored anchors are matched in one *batch*.  Pass 1 collects
        each tree's anchors and the set of distinct stored anchor ids.
        Every edge then runs a single merge-style structural join over
        the document-ordered distinct anchors (the skip cursor advances
        monotonically across them) and the variant list is memoised per
        anchor id — input trees sharing an anchor (or repeating one) get
        the shared, immutable variants — instead of an independent join
        cascade per anchor per input tree, which paid the per-call join
        overhead thousands of times on extension-heavy plans.  Pass 2
        emits the grafted output trees in the original input order.
        Temporary anchors are still matched per tree against their
        in-memory host.
        """
        root = apt.root
        if root.lc_ref is None:
            raise PatternError("extension pattern must reference a class")
        apt.validate()
        self.db.metrics.pattern_matches += 1
        edges = root.edges
        mandatory = any(e.mspec in ("-", "+") for e in edges)
        check_content = bool(root.test.comparisons)
        #: anchors per input tree; None marks an anchor-less tree and
        #: False a tree dropped by the root content test
        entries: List[Tuple[XTree, object]] = []
        db_anchors: Dict[NodeId, TNode] = {}
        for tree in trees:
            anchors = tree.class_nodes(root.lc_ref)
            if not anchors:
                entries.append((tree, None))
                continue
            if check_content and not all(
                root.test.matches_content(a.value) for a in anchors
            ):
                entries.append((tree, False))
                continue
            entries.append((tree, anchors))
            for anchor in anchors:
                if isinstance(anchor.nid, NodeId):
                    db_anchors.setdefault(anchor.nid, anchor)
        variants_by_nid = (
            self._batch_anchor_variants(db_anchors, edges)
            if db_anchors
            else {}
        )
        #: built-subtree memo shared by every graft of this batch (see
        #: the ``cache`` parameter of :func:`_apply_match`)
        built_cache: Dict[int, Tuple[TNode, List[Tuple[int, TNode]]]] = {}
        out = TreeSequence()
        limits = self.limits
        for tree, anchors in entries:
            if limits is not None:
                limits.tick()
            if anchors is None:
                if not mandatory:
                    # nothing to extend: the output *is* the input tree
                    out.append(tree)
                continue
            if anchors is False:
                continue
            per_anchor: List[List[_MTree]] = []
            dead = False
            for anchor in anchors:
                if isinstance(anchor.nid, NodeId):
                    variants = variants_by_nid[anchor.nid]
                else:
                    variants = _match_tree_variants(
                        _MTree(
                            anchor.nid, anchor.tag, anchor.value, ref=anchor
                        ),
                        edges,
                    )
                if not variants:
                    dead = True
                    break
                per_anchor.append(variants)
            if dead:
                continue
            # the output LC index can be derived from the input's when
            # grafts only *append* below stored, non-nested anchors
            # (and the pattern's classes are fresh to the tree, which
            # ``adopt_index`` checks): existing entries keep their
            # pre-order positions (remapped through the copies) and new
            # entries arrive in anchor/edge/match order, which *is*
            # output pre-order among themselves
            derive = tree._lc_index is not None and all(
                isinstance(a.nid, NodeId) for a in anchors
            )
            spine, nested = _graft_spine(tree, anchors)
            for combo in itertools.product(*per_anchor):
                out.append(
                    self._graft_shared(
                        tree,
                        spine,
                        anchors,
                        combo,
                        edges,
                        derive and not nested,
                        built_cache,
                    )
                )
                self.db.metrics.trees_built += 1
        self._note_match(out)
        return out

    def extend_batch(
        self, apt: APT, batch: ColumnBatch
    ) -> Optional[ColumnBatch]:
        """Columnar :meth:`extend`: splice matched branches into rows.

        The anchored-variant machinery of :meth:`extend` runs unchanged
        (one structural join per edge across all distinct anchors); what
        changes is the output assembly.  Instead of grafting copies of
        witness *trees*, each match variant's branches flatten once into
        a column *segment* (memoised by variant identity), and every
        output row is the input row with each anchor's segment spliced
        in at the end of the anchor's subtree slice — pre-order stays
        pre-order, and parents are row-relative so only the splice
        points need arithmetic.

        Returns ``None`` when any anchor is a temporary node (in-memory
        matching marks existing nodes, which needs real trees); the
        caller materialises and falls back to :meth:`extend`.
        """
        root = apt.root
        if root.lc_ref is None:
            raise PatternError("extension pattern must reference a class")
        apt.validate()
        edges = root.edges
        lc_ref = root.lc_ref
        mandatory = any(e.mspec in ("-", "+") for e in edges)
        check_content = bool(root.test.comparisons)
        src_tags, src_values = batch.tags, batch.values
        src_nids, src_labels = batch.nids, batch.labels
        src_parents, src_offsets = batch.parents, batch.offsets
        #: anchor positions per row; None marks an anchor-less row and
        #: False a row dropped by the root content test (mirrors
        #: ``entries`` of :meth:`extend`)
        entries: List[object] = []
        db_anchors: Dict[NodeId, _MTree] = {}
        for row in range(len(batch)):
            positions = batch.class_positions(row, lc_ref)
            if not positions:
                entries.append(None)
                continue
            if check_content and not all(
                root.test.matches_content(src_values[p]) for p in positions
            ):
                entries.append(False)
                continue
            entries.append(positions)
            for p in positions:
                nid = src_nids[p]
                if not isinstance(nid, NodeId):
                    # temporary anchor: in-memory matching needs trees
                    return None
                db_anchors.setdefault(
                    nid, _MTree(nid, src_tags[p], src_values[p])
                )
        self.db.metrics.pattern_matches += 1
        variants_by_nid = (
            self._batch_anchor_variants(db_anchors, edges)
            if db_anchors
            else {}
        )
        #: flattened branch segments, memoised by variant identity —
        #: the columnar counterpart of the graft's built-subtree cache
        segments: Dict[int, tuple] = {}
        offsets = [0]
        tags: List[str] = []
        values: list = []
        nids: list = []
        labels: List[int] = []
        parents: List[int] = []
        limits = self.limits
        for row, positions in enumerate(entries):
            if limits is not None:
                limits.tick()
            start, end = src_offsets[row], src_offsets[row + 1]
            if positions is None:
                if not mandatory:
                    tags.extend(src_tags[start:end])
                    values.extend(src_values[start:end])
                    nids.extend(src_nids[start:end])
                    for j in range(start, end):
                        labels.append(src_labels[j])
                        parents.append(src_parents[j])
                    offsets.append(len(tags))
                continue
            if positions is False:
                continue
            per_anchor = []
            dead = False
            for p in positions:
                variants = variants_by_nid[src_nids[p]]
                if not variants:
                    dead = True
                    break
                per_anchor.append(
                    [
                        _segment_for(variant, edges, segments)
                        for variant in variants
                    ]
                )
            if dead:
                continue
            n = end - start
            # end of each node's subtree, row-relative: every node
            # extends the span of its whole ancestor chain
            subtree_ends = [0] * n
            for j in range(n):
                subtree_ends[j] = j + 1
                parent = src_parents[start + j]
                while parent >= 0:
                    subtree_ends[parent] = j + 1
                    parent = src_parents[start + parent]
            anchor_rels = [p - start for p in positions]
            base_parents = list(src_parents[start:end])
            for combo in itertools.product(*per_anchor):
                # splice points: the end of each anchor's subtree; on
                # ties the deeper anchor's branches come first (its
                # subtree closes inside the shallower one's)
                inserts = sorted(
                    zip(
                        (subtree_ends[a] for a in anchor_rels),
                        (-a for a in anchor_rels),
                        combo,
                    )
                )
                # base node j lands at j + shift[j], where shift is the
                # total segment length spliced in before j — bulk-copy
                # every column and rewrite only the parents
                shift = [0] * n
                cursor = 0
                shifted = 0
                for ins, neg_a, seg in inserts:
                    if shifted:
                        for j in range(cursor, ins):
                            shift[j] = shifted
                    cursor = ins
                    shifted += len(seg[0])
                if shifted and cursor < n:
                    for j in range(cursor, n):
                        shift[j] = shifted
                row_base = len(tags)
                cursor = 0
                for ins, neg_a, seg in inserts:
                    if cursor < ins:
                        tags.extend(src_tags[start + cursor:start + ins])
                        values.extend(
                            src_values[start + cursor:start + ins]
                        )
                        nids.extend(src_nids[start + cursor:start + ins])
                        labels.extend(
                            src_labels[start + cursor:start + ins]
                        )
                        for j in range(cursor, ins):
                            parent = base_parents[j]
                            parents.append(
                                parent + shift[parent] if parent >= 0
                                else -1
                            )
                        cursor = ins
                    seg_tags, seg_values, seg_nids, seg_labels, \
                        seg_parents = seg
                    seg_base = len(tags) - row_base
                    anchor = -neg_a
                    anchor_new = anchor + shift[anchor]
                    tags.extend(seg_tags)
                    values.extend(seg_values)
                    nids.extend(seg_nids)
                    labels.extend(seg_labels)
                    for parent in seg_parents:
                        parents.append(
                            seg_base + parent if parent >= 0 else anchor_new
                        )
                if cursor < n:
                    tags.extend(src_tags[start + cursor:end])
                    values.extend(src_values[start + cursor:end])
                    nids.extend(src_nids[start + cursor:end])
                    labels.extend(src_labels[start + cursor:end])
                    for j in range(cursor, n):
                        parent = base_parents[j]
                        parents.append(
                            parent + shift[parent] if parent >= 0 else -1
                        )
                offsets.append(len(tags))
        out = ColumnBatch.from_lists(
            offsets, tags, values, nids, labels, parents
        )
        self._note_match(out)
        return out

    def _batch_anchor_variants(
        self,
        db_anchors: Dict[NodeId, TNode],
        edges: List[APTEdge],
    ) -> Dict[NodeId, List[_MTree]]:
        """Match variants for every distinct stored anchor, in one batch.

        The per-anchor alternatives of one edge depend only on the
        anchor's node id, so each edge is answered by a single
        structural join over all anchors sorted in document order — the
        merge cursor then probes the shared candidate columns strictly
        forward.  An anchor's variants are the cross product of its
        per-edge alternatives (same order the sequential cascade
        produced: later edges vary fastest).
        """
        memo: Dict[int, List[_MTree]] = {}
        result: Dict[NodeId, List[_MTree]] = {}
        by_doc: Dict[int, List[NodeId]] = {}
        for nid in db_anchors:
            by_doc.setdefault(nid.doc, []).append(nid)
        for doc, nids in by_doc.items():
            nids.sort(key=lambda n: (n.doc, n.start))
            doc_name = self.db.owner(nids[0]).name
            bases = [
                _MTree(nid, db_anchors[nid].tag, db_anchors[nid].value)
                for nid in nids
            ]
            alts_per_edge: List[Dict[NodeId, List[List[_MTree]]]] = []
            for edge in edges:
                children = self._match_node_db(edge.child, doc_name, memo)
                starts, levels = child_columns(children, lambda m: m.nid)
                joined = join_for_mspec(
                    bases,
                    children,
                    edge.axis,
                    edge.mspec,
                    self.db.metrics,
                    parent_id=lambda m: m.nid,
                    child_id=lambda m: m.nid,
                    child_starts=starts,
                    child_levels=levels,
                )
                joined = _expand_nested(joined, edge, lambda m: m.nid)
                alts_per_edge.append(
                    {parent.nid: alts for parent, alts in joined}
                )
            for base in bases:
                result[base.nid] = [
                    _MTree(base.nid, base.tag, base.value, list(combo))
                    for combo in itertools.product(
                        *(alts.get(base.nid, ()) for alts in alts_per_edge)
                    )
                ]
        return result

    # ------------------------------------------------------------------
    # internals: database-side matching
    # ------------------------------------------------------------------
    def _candidates(self, node: APTNode, doc_name: str) -> Candidates:
        """Stored candidates for one pattern node, document order.

        With a :class:`ScanCache` attached, identical scans — same
        document, tag test and content comparisons — are answered from
        the query-scoped memo: the index probe, per-posting record
        fetches and predicate filtering run once per query instead of
        once per pattern node (``Metrics.scan_cache_hits`` counts the
        repeats).  The cached list and its match variants are shared and
        never mutated (combination always builds fresh variants).
        """
        test = node.test
        if self.scan_cache is None:
            return self._scan_candidates(test, doc_name)
        key = (doc_name, test.tag, test.comparisons)
        return self.scan_cache.candidates(
            key, lambda: self._scan_candidates(test, doc_name)
        )

    def _scan_candidates(self, test: NodeTest, doc_name: str) -> Candidates:
        """One actual index/record scan for a node test (uncached)."""
        db = self.db
        if test.tag == "doc_root":
            document = db.document(doc_name)
            return Candidates([_MTree(document.root_id, "doc_root", None)])
        if test.tag is None:
            # wildcard: one contiguous read of the whole record array
            document = db.document(doc_name)
            document.touch_range(0, len(document.records))
            return Candidates(
                [
                    _MTree(nid, rec.tag, rec.value)
                    for nid, rec in zip(document.ids, document.records)
                    if test.matches_content(rec.value)
                ]
            )
        indexable = tuple(
            (op, val)
            for op, val in test.comparisons
            if op in ("=", "!=", "<", "<=", ">", ">=")
        )
        if indexable:
            out = Candidates()
            op0, val0 = indexable[0]
            ids = db.value_lookup(doc_name, test.tag, op0, val0)
            rest = tuple(
                c for c in test.comparisons if c != indexable[0]
            )
            for nid in ids:
                rec = db.owner(nid).fetch_by_id(nid)
                if all(
                    compare(rec.value, op, val) for op, val in rest
                ):
                    out.append(_MTree(nid, rec.tag, rec.value))
            return out
        # tag-only scan, a column read: the postings carry every value
        # and the page runs a front-to-back read of them touches, so no
        # record is fetched and the metering — one record touch per
        # posting — is arithmetic per run (DESIGN §10)
        postings = db.tag_lookup(doc_name, test.tag)
        ids, values = postings.ids, postings.values
        db.document(doc_name).touch_runs(postings.run_pages, len(ids))
        starts, levels = postings.starts, postings.levels
        if test.comparisons:
            kept = [
                position
                for position, value in enumerate(values)
                if test.matches_content(value)
            ]
            ids, values, starts, levels = (
                [column[position] for position in kept]
                for column in (ids, values, starts, levels)
            )
        out = Candidates(map(_MTree, ids, itertools.repeat(test.tag), values))
        out.ready = (starts, levels)
        return out

    def _match_node_db(
        self, node: APTNode, doc_name: str, memo: Dict[int, List[_MTree]]
    ) -> List[_MTree]:
        """All match variants of a pattern subtree, document order."""
        key = id(node)
        if key in memo:
            return memo[key]
        partials = self._candidates(node, doc_name)
        planned = self._edge_plan(node, doc_name)
        reordered_plan = planned != node.edges
        # out-of-source-order processing also enumerates the variants in
        # a different sequence; track each partial's enumeration key so
        # the final list can be sorted back into source-order sequence
        order_keys: Optional[Dict[int, tuple]] = (
            {id(partial): (index,) for index, partial in enumerate(partials)}
            if reordered_plan
            else None
        )
        for edge in planned:
            children = self._match_node_db(edge.child, doc_name, memo)
            joined = join_for_mspec(
                partials,
                children,
                edge.axis,
                edge.mspec,
                self.db.metrics,
                parent_id=lambda m: m.nid,
                child_id=lambda m: m.nid,
            )
            joined = _expand_nested(joined, edge, lambda m: m.nid)
            partials = _combine_edge(partials, joined, order_keys)
        if reordered_plan:
            # witness building zips slots with node.edges: restore order
            original_position = {
                id(edge): index for index, edge in enumerate(node.edges)
            }
            perm = [original_position[id(edge)] for edge in planned]
            for partial in partials:
                reordered = [None] * len(node.edges)
                for processed_index, edge in enumerate(planned):
                    reordered[
                        original_position[id(edge)]
                    ] = partial.slots[processed_index]
                partial.slots = reordered
            # variant order: source-order processing enumerates variants
            # lexicographically by (candidate, alt per edge in source
            # position); the alternatives of one (candidate, edge) pair
            # are plan-order-invariant, so permuting each key back to
            # source positions and sorting reproduces that sequence
            assert order_keys is not None

            def source_sequence(partial: _MTree) -> tuple:
                enum_key = order_keys[id(partial)]
                restored = [0] * (len(enum_key) - 1)
                for processed_index, alt_index in enumerate(enum_key[1:]):
                    restored[perm[processed_index]] = alt_index
                return (enum_key[0], *restored)

            partials.sort(key=source_sequence)
        memo[key] = partials
        return partials

    def _build(self, mtree: _MTree, node: APTNode) -> TNode:
        """Materialise one match variant as a witness tree."""
        built = TNode(mtree.tag, mtree.value, mtree.nid, {node.lcl})
        for edge, matches in zip(node.edges, mtree.slots):
            for child in matches:
                built.add_child(self._build(child, edge.child))
        return built

    # ------------------------------------------------------------------
    # internals: grafting for extension patterns
    # ------------------------------------------------------------------
    def _graft_shared(
        self,
        tree: XTree,
        spine: List[SpineEntry],
        anchors: List[TNode],
        combo: Sequence[_MTree],
        edges: List[APTEdge],
        derive: bool,
        cache: Dict[int, Tuple[TNode, List[Tuple[int, TNode]]]],
    ) -> XTree:
        """One output tree, sharing unmodified subtrees with the input.

        Only the ``spine`` — the root-to-anchor paths, plus whole
        subtrees of in-memory anchors (whose descendants may be *marked*
        by the match) — is copied; every other subtree is the input
        tree's own node, shared structurally.  This is safe because
        operators never mutate their inputs (the evaluator shares
        memoised results between consumers, so in-place mutation was
        already forbidden) — an operator that edits a tree path-copies
        the nodes it touches (:meth:`XTree.path_copy`) and leaves the
        shared ones alone.
        """
        result, mapping = tree.path_copy(spine)
        recorder: Optional[List[Tuple[int, TNode]]] = [] if derive else None
        for anchor, variant in zip(anchors, combo):
            host = mapping[id(anchor)]
            for edge, matches in zip(edges, variant.slots):
                for child in matches:
                    _apply_match(
                        child, edge.child, host, mapping, recorder, cache
                    )
        if recorder is not None:
            result.adopt_index(tree, mapping, recorder)
        else:
            # grafts never add shadowed nodes and copies keep flags, so
            # the input's shadow-presence knowledge carries over
            result._saw_shadowed = tree._saw_shadowed
        return result


def _graft_spine(
    tree: XTree, anchors: Sequence[TNode]
) -> Tuple[List[SpineEntry], bool]:
    """The nodes a shared graft must copy, plus a nesting flag.

    Every node on a root-to-anchor path is copied (its children list
    changes, or a descendant's does).  A temporary anchor additionally
    contributes its whole subtree: in-memory matches *mark* existing
    descendant nodes into new classes, and marking must never write
    through to the shared input tree.

    The second return value reports whether any anchor has a copied
    node below it — another anchor in its subtree (nested anchors
    interleave appended branches with existing subtrees in pre-order)
    or the subtree of a temporary anchor — either of which
    disqualifies the incremental LC-index derivation.
    """
    marked = [
        node
        for anchor in anchors
        if not isinstance(anchor.nid, NodeId)
        for node in anchor.walk(include_shadowed=True)
    ]
    spine = tree.spine([*anchors, *marked])
    on_spine = {id(entry[0]) for entry in spine}
    nested = any(
        id(child) in on_spine
        for anchor in anchors
        for child in anchor.children
    )
    return spine, nested


def _apply_match(
    mtree: _MTree,
    pattern: APTNode,
    host: TNode,
    mapping: Dict[int, TNode],
    recorder: Optional[List[Tuple[int, TNode]]] = None,
    cache: Optional[Dict[int, Tuple[TNode, List[Tuple[int, TNode]]]]] = None,
) -> None:
    """Attach a stored match under ``host``, or mark an in-memory match.

    With ``recorder`` every freshly built node is recorded with its
    class label, in attachment (pre-)order, for the incremental
    LC-index derivation of :meth:`XTree.adopt_index`.

    With ``cache`` the subtree built for a stored match is memoised by
    variant identity and *shared* between every output tree that
    applies the same variant — variants are immutable and the built
    nodes are never mutated in place (marking and shadowing always
    copy first), so the trees of one extension batch may hold the same
    grafted branch object.  In-memory matches (``ref`` set) mark
    tree-private copies and are never cached; their slots only ever
    hold further in-memory matches, so a cached subtree is ref-free.
    """
    if mtree.ref is not None:
        target = mapping[id(mtree.ref)]
        target.lcls.add(pattern.lcl)
        for edge, matches in zip(pattern.edges, mtree.slots):
            for child in matches:
                _apply_match(
                    child, edge.child, target, mapping, recorder, cache
                )
        return
    if cache is not None:
        hit = cache.get(id(mtree))
        if hit is None:
            recs: List[Tuple[int, TNode]] = []
            built = TNode(mtree.tag, mtree.value, mtree.nid, {pattern.lcl})
            recs.append((pattern.lcl, built))
            for edge, matches in zip(pattern.edges, mtree.slots):
                for child in matches:
                    _apply_match(
                        child, edge.child, built, mapping, recs, cache
                    )
            cache[id(mtree)] = (built, recs)
        else:
            built, recs = hit
        host.add_child(built)
        if recorder is not None:
            recorder.extend(recs)
        return
    built = TNode(mtree.tag, mtree.value, mtree.nid, {pattern.lcl})
    if recorder is not None:
        recorder.append((pattern.lcl, built))
    host.add_child(built)
    for edge, matches in zip(pattern.edges, mtree.slots):
        for child in matches:
            _apply_match(child, edge.child, built, mapping, recorder)


def _flatten_variant(
    mtree: _MTree,
    pattern: APTNode,
    tags: List[str],
    values: list,
    nids: list,
    labels: List[int],
    parents: List[int],
    base: int,
    parent_rel: int,
) -> None:
    """Append one match variant to column builders, pre-order.

    The columnar counterpart of :meth:`PatternMatcher._build`: node
    first, then each edge's matches in slot order — the exact order
    ``add_child`` would have produced.  ``base`` is the row's first
    column, so recorded parents are row-relative.
    """
    rel = len(tags) - base
    tags.append(mtree.tag)
    values.append(mtree.value)
    nids.append(mtree.nid)
    labels.append(pattern.lcl)
    parents.append(parent_rel)
    for edge, matches in zip(pattern.edges, mtree.slots):
        for child in matches:
            _flatten_variant(
                child, edge.child, tags, values, nids, labels, parents,
                base, rel,
            )


def _segment_for(
    variant: _MTree, edges: List[APTEdge], memo: Dict[int, tuple]
) -> tuple:
    """Flatten a variant's *branches* into a reusable column segment.

    Segment parents are segment-relative, with ``-1`` marking the
    branch roots (they attach to the anchor at splice time).  Variants
    are shared across rows through the per-nid variant lists, so the
    memo — keyed by variant identity, like the graft's built-subtree
    cache — flattens each one once per extension call.
    """
    key = id(variant)
    segment = memo.get(key)
    if segment is None:
        tags: List[str] = []
        values: list = []
        nids: list = []
        labels: List[int] = []
        parents: List[int] = []
        for edge, matches in zip(edges, variant.slots):
            for child in matches:
                _flatten_variant(
                    child, edge.child, tags, values, nids, labels,
                    parents, 0, -1,
                )
        segment = (tags, values, nids, labels, parents)
        memo[key] = segment
    return segment


def _holistic_eligible(root: APTNode) -> bool:
    """Is a pattern in TwigStack's supported fragment?

    All edges must be mandatory (``-``) and no node may carry content
    comparisons — the classic twig-join setting.  Anything richer uses
    the binary cascade.
    """
    for node in root.walk():
        if node.test.comparisons or node.test.tag is None:
            return False
        for edge in node.edges:
            if edge.mspec != "-":
                return False
    return True


# ----------------------------------------------------------------------
# in-memory matching
# ----------------------------------------------------------------------
def _tree_candidates(
    scope: TNode, test, axis: str, include_scope: bool = False
) -> List[TNode]:
    """Visible nodes related to ``scope`` by ``axis`` satisfying ``test``."""
    if axis == "pc":
        pool = scope.visible_children()
    else:
        pool = [n for n in scope.walk() if n is not scope]
    if include_scope:
        pool = [scope] + pool
    return [n for n in pool if test.matches(n.tag, n.value)]


def _match_tree_node(pattern: APTNode, candidate: TNode) -> List[_MTree]:
    """Match variants of a pattern subtree rooted at one tree node."""
    partials = [
        _MTree(candidate.nid, candidate.tag, candidate.value, ref=candidate)
    ]
    return _match_tree_variants(partials[0], pattern.edges)


def _match_tree_variants(
    base: _MTree, edges: List[APTEdge]
) -> List[_MTree]:
    """Expand ``base`` with match variants for each pattern edge in turn."""
    partials = [base]
    scope = base.ref
    assert scope is not None
    for edge in edges:
        child_nodes = _tree_candidates(scope, edge.child.test, edge.axis)
        child_variants: List[_MTree] = []
        for node in child_nodes:
            child_variants.extend(_match_tree_node(edge.child, node))
        if edge.mspec in ("-", "?"):
            alternatives: List[List[_MTree]] = [
                [variant] for variant in child_variants
            ]
            if edge.mspec == "?" and not alternatives:
                alternatives = [[]]
        else:
            if child_variants:
                alternatives = _cluster_alternatives(
                    child_variants, lambda m: id(m.ref)
                )
            elif edge.mspec == "*":
                alternatives = [[]]
            else:
                alternatives = []
        new_partials: List[_MTree] = []
        for partial in partials:
            for alt in alternatives:
                new_partials.append(
                    _MTree(
                        partial.nid,
                        partial.tag,
                        partial.value,
                        partial.slots + [alt],
                        partial.ref,
                    )
                )
        partials = new_partials
        if not partials:
            break
    return partials


def _build_witness(mtree: _MTree, pattern: APTNode) -> TNode:
    """Copy one in-memory match variant into a fresh witness tree."""
    built = TNode(mtree.tag, mtree.value, mtree.nid, {pattern.lcl})
    for edge, matches in zip(pattern.edges, mtree.slots):
        for child in matches:
            built.add_child(_build_witness(child, edge.child))
    return built


def match_in_tree(apt: APT, tree: XTree) -> TreeSequence:
    """Match an APT against one in-memory tree, yielding witness trees.

    The pattern root may match any visible node of the tree (as in the TAX
    algebra, whose selections pattern-match their input trees).  Witness
    trees are fresh copies of the matched nodes, tagged with the pattern's
    class labels — the Figure 4 semantics.
    """
    apt.validate()
    out = TreeSequence()
    candidates = [
        n
        for n in tree.root.walk()
        if apt.root.test.matches(n.tag, n.value)
    ]
    for candidate in candidates:
        for variant in _match_tree_node(apt.root, candidate):
            out.append(XTree(_build_witness(variant, apt.root)))
    return out
