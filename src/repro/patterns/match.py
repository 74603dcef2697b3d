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

The stored-document matcher **materialises on keep** (DESIGN §10): a
scan's candidates are a column view, every edge's structural join reads
candidate *positions* and columns, and a match-variant object is built
only for a candidate every edge kept — its leaf-pattern children staying
``(view, lo, hi)`` runs of the child scan's columns until a witness tree
or a batch row copies them out.
"""

from __future__ import annotations

import itertools
from itertools import repeat
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..columns.batch import ColumnBatch
from ..errors import PatternError
from ..model.node_id import NodeId
from ..model.sequence import TreeSequence
from ..model.tree import SpineEntry, TNode, XTree
from ..model.value import compare
from ..physical.structural_join import child_columns, probe
from ..storage.database import Database
from ..storage.postings import is_flat
from ..telemetry import hooks as telemetry
from .apt import APT, APTEdge, APTNode
from .predicates import NodeTest
from .scan_cache import Candidates, ScanCache
from .scan_cache import MatchVariant as _MTree

#: One alternative of an edge: the variants placed under the parent, or
#: a ``(view, lo, hi)`` run of a leaf child's candidate columns.
Alternative = object
#: The five column builders of a batch (tags, values, nids, labels,
#: parents).
Columns = Tuple[List[str], list, list, List[int], List[int]]


def _nid(variant: _MTree) -> object:
    return variant.nid


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


class PatternMatcher:
    """Matches annotated pattern trees against a :class:`Database`."""

    def __init__(
        self,
        db: Database,
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

    # ------------------------------------------------------------------
    # document-rooted matching
    # ------------------------------------------------------------------
    def _root_matches(self, apt: APT) -> Candidates:
        """Validate a document-rooted pattern and match it."""
        if apt.doc is None:
            raise PatternError("document-rooted match needs apt.doc")
        if apt.root.lc_ref is not None:
            raise PatternError("use extend() for class-referencing patterns")
        apt.validate()
        self.db.metrics.pattern_matches += 1
        return self._match_node_db(apt.root, apt.doc, {})

    def match(self, apt: APT) -> TreeSequence:
        """All witness trees of ``apt`` against its bound document: the
        :meth:`match_batch` rows, materialised."""
        return self.match_batch(apt).materialize(self.db.metrics)

    def match_batch(self, apt: APT) -> ColumnBatch:
        """All witness rows of ``apt``, no tree objects built.

        Match variants flatten straight into a
        :class:`~repro.columns.batch.ColumnBatch` — the ``_build`` walk
        and its per-node ``TNode`` construction are skipped entirely;
        downstream batch operators (or the eventual materialisation
        boundary) decide if trees are ever needed.
        """
        offsets = [0]
        columns: Columns = ([], [], [], [], [])
        tags = columns[0]
        limits = self.limits
        for mtree in self._root_matches(apt):
            if limits is not None:
                limits.tick()
            _flatten_variant(mtree, apt.root, columns, len(tags), -1)
            offsets.append(len(tags))
        out = ColumnBatch(offsets, *columns)
        self._note_match(out)
        return out

    def _note_match(self, out) -> None:
        """Telemetry boundary of one match/extend call (witness count)."""
        if telemetry.enabled():
            telemetry.instrument("matcher.match")
            telemetry.instrument("matcher.trees", len(out))

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
        db_anchors: Dict[NodeId, Tuple[str, object]] = {}
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
                    db_anchors.setdefault(
                        anchor.nid, (anchor.tag, anchor.value)
                    )
        #: per stored anchor, the branches of each of its variants, built
        #: once and shared by every graft of this batch (see
        #: :meth:`_graft_shared`)
        branches_by_nid = {
            nid: [_build_branches(variant, edges) for variant in variants]
            for nid, variants in self._batch_anchor_variants(
                db_anchors, edges
            ).items()
        }
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
            per_anchor: List[list] = []
            dead = False
            for anchor in anchors:
                if isinstance(anchor.nid, NodeId):
                    variants = branches_by_nid[anchor.nid]
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
        a column *segment* (once per distinct anchor), and every
        output row is the input row with each anchor's segment spliced
        in at the end of the anchor's subtree slice — pre-order stays
        pre-order, and parents are row-relative, so everything in front
        of the first splice point is copied as five column slices and
        only what follows one needs arithmetic.  In the common row — the
        anchor is the row root, or its subtree closes the row — nothing
        follows one.

        Returns ``None`` when any anchor is a temporary node (in-memory
        matching marks existing nodes, which needs real trees); the
        caller materialises and falls back to :meth:`extend`.
        """
        root = apt.root
        if root.lc_ref is None:
            raise PatternError("extension pattern must reference a class")
        apt.validate()
        edges = root.edges
        mandatory = any(e.mspec in ("-", "+") for e in edges)
        check_content = bool(root.test.comparisons)
        src_tags, src_values, src_nids = batch.tags, batch.values, batch.nids
        src_labels, src_parents = batch.labels, batch.parents
        src_offsets = batch.offsets
        # every anchor of the batch in one pass over the label column,
        # then split by row: ``anchor_cols[lo:hi]`` are one row's
        lc_ref = root.lc_ref
        anchor_cols = [
            j for j, label in enumerate(src_labels) if label == lc_ref
        ]
        #: anchor positions per row; None marks an anchor-less row and
        #: False a row dropped by the root content test (mirrors
        #: ``entries`` of :meth:`extend`)
        entries: List[object] = []
        db_anchors: Dict[NodeId, Tuple[str, object]] = {}
        hi, total = 0, len(anchor_cols)
        for row in range(len(batch)):
            lo, end = hi, src_offsets[row + 1]
            while hi < total and anchor_cols[hi] < end:
                hi += 1
            if lo == hi:
                entries.append(None)
                continue
            positions = anchor_cols[lo:hi]
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
                db_anchors.setdefault(nid, (src_tags[p], src_values[p]))
        self.db.metrics.pattern_matches += 1
        #: per anchor, the flattened branch segment of each of its
        #: variants — the columnar counterpart of the grafts' built
        #: branches, flattened once however many rows splice it in
        segments = {
            nid: [_segment(variant, edges) for variant in variants]
            for nid, variants in self._batch_anchor_variants(
                db_anchors, edges
            ).items()
        }
        offsets = [0]
        columns: Columns = ([], [], [], [], [])
        tags, values, nids, labels, parents = columns
        data = columns[:4]
        sources = (src_tags, src_values, src_nids, src_labels)

        def copy_base(first: int, stop: int) -> None:
            for column, source in zip(data, sources):
                column.extend(source[first:stop])

        limits = self.limits
        for row, positions in enumerate(entries):
            if limits is not None:
                limits.tick()
            start, end = src_offsets[row], src_offsets[row + 1]
            if positions is None:
                if not mandatory:
                    copy_base(start, end)
                    parents.extend(src_parents[start:end])
                    offsets.append(len(tags))
                continue
            if positions is False:
                continue
            per_anchor = [segments[src_nids[p]] for p in positions]
            if not all(per_anchor):
                continue  # an anchor some mandatory edge dropped
            n = end - start
            # splice points: the end of each anchor's subtree (the row's
            # end for its root; otherwise the first later node whose
            # parent lies in front of the anchor); on ties the deeper
            # anchor's branches come first (its subtree closes inside
            # the shallower one's)
            points = []
            for p in positions:
                anchor = p - start
                stop = anchor + 1 if anchor else n
                while stop < n and src_parents[start + stop] >= anchor:
                    stop += 1
                points.append((stop, -anchor))
            order = sorted(range(len(points)), key=points.__getitem__)
            first_point = points[order[0]][0]
            for combo in itertools.product(*per_anchor):
                # base node j lands at j + shift[j], where shift is the
                # total segment length spliced in before j; nothing is
                # spliced in before the first point, so shift is only
                # tabulated when base nodes follow it
                shift = None
                if first_point < n:
                    shift = [0] * n
                    shifted = 0
                    for index in order:
                        shifted += len(combo[index][0])
                        ins = points[index][0]
                        shift[ins:] = [shifted] * (n - ins)
                row_base = len(tags)
                copy_base(start, start + first_point)
                parents.extend(src_parents[start:start + first_point])
                cursor = first_point
                for index in order:
                    ins, neg_anchor = points[index]
                    seg = combo[index]
                    if cursor < ins:
                        copy_base(start + cursor, start + ins)
                        parents.extend(
                            [
                                parent + shift[parent]
                                for parent in src_parents[
                                    start + cursor:start + ins
                                ]
                            ]
                        )
                        cursor = ins
                    seg_base = len(tags) - row_base
                    anchor_new = -neg_anchor
                    if shift is not None:
                        anchor_new += shift[anchor_new]
                    for column, seg_column in zip(data, seg):
                        column.extend(seg_column)
                    if seg[5]:
                        parents.extend(repeat(anchor_new, len(seg[0])))
                    else:
                        parents.extend(
                            [
                                seg_base + parent if parent >= 0
                                else anchor_new
                                for parent in seg[4]
                            ]
                        )
                if cursor < n:
                    copy_base(start + cursor, end)
                    parents.extend(
                        [
                            parent + shift[parent]
                            for parent in src_parents[start + cursor:end]
                        ]
                    )
                offsets.append(len(tags))
        out = ColumnBatch(offsets, *columns)
        self._note_match(out)
        return out

    def count_below(
        self, apt: APT, anchors: Sequence[NodeId]
    ) -> List[int]:
        """The size of ``apt``'s one ``*`` cluster below each stored anchor.

        :meth:`extend`'s structural join without its variants: per
        document, the distinct anchors in document order probe the
        leaf's index columns once, and an anchor's cluster size is the
        length of its probe run — no match variant, witness node or
        record is built.  Metered as the extension it stands in for:
        one pattern match, and one nest join per document.
        """
        (edge,) = apt.root.edges
        metrics = self.db.metrics
        metrics.pattern_matches += 1
        by_doc: Dict[int, List[NodeId]] = {}
        for nid in dict.fromkeys(anchors):
            by_doc.setdefault(nid.doc, []).append(nid)
        sizes: Dict[NodeId, int] = {}
        for nids in by_doc.values():
            nids.sort(key=lambda n: n.start)
            starts, levels = self._count_columns(
                edge.child, self.db.owner(nids[0]).name
            )
            metrics.structural_joins += 1
            metrics.nest_joins += 1
            flat_starts = (
                [(nid.doc, nid.start) for nid in nids]
                if is_flat(nids) else None
            )
            for position, matched in probe(
                nids, starts, levels, edge.axis, False, flat_starts
            ):
                sizes[nids[position]] = len(matched)
        return [sizes.get(nid, 0) for nid in anchors]

    def _batch_anchor_variants(
        self,
        db_anchors: Dict[NodeId, Tuple[str, object]],
        edges: List[APTEdge],
    ) -> Dict[NodeId, List[_MTree]]:
        """Match variants for every distinct stored anchor, in one batch.

        The per-anchor alternatives of one edge depend only on the
        anchor's node id, so the distinct anchors of each document,
        sorted in document order, are one candidate view and each edge
        is answered by a single structural join over it — the merge
        cursor then probes the shared child columns strictly forward.
        An anchor's variants are the cross product of its per-edge
        alternatives (later edges vary fastest).
        """
        result: Dict[NodeId, List[_MTree]] = {nid: [] for nid in db_anchors}
        memo: Dict[int, Candidates] = {}
        by_doc: Dict[int, List[NodeId]] = {}
        for nid in db_anchors:
            by_doc.setdefault(nid.doc, []).append(nid)
        for nids in by_doc.values():
            nids.sort(key=lambda n: n.start)
            described = [db_anchors[nid] for nid in nids]
            view = Candidates(
                nids,
                [tag for tag, _ in described],
                [value for _, value in described],
                flat=is_flat(nids),
            )
            doc_name = self.db.owner(nids[0]).name
            for variant in self._variants(view, edges, doc_name, memo, True):
                result[variant.nid].append(variant)
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
        repeats).  The cached view is shared and never mutated (variants
        are built fresh, and only read its columns).
        """
        test = node.test
        if self.scan_cache is None:
            return self._scan_candidates(test, doc_name)
        key = (doc_name, test.tag, test.comparisons)
        return self.scan_cache.candidates(
            key, lambda: self._scan_candidates(test, doc_name)
        )

    def _count_columns(
        self, node: APTNode, doc_name: str
    ) -> Tuple[Sequence[Tuple[int, int]], Sequence[int]]:
        """The probe columns of a counted leaf, reading no record for a
        plain tag test.

        A count needs positions, not content: a tag-only test reads the
        tag postings' columns through one index lookup — or the view of
        this query's earlier scan of the same tag — and touches no
        record.  A content or wildcard test must filter records, so it
        reads the (scan-cached) candidate view as a Select would.
        """
        test = node.test
        if test.tag is not None and not test.comparisons:
            cached = None
            if self.scan_cache is not None:
                cached = self.scan_cache.peek((doc_name, test.tag, ()))
            if cached is None:
                postings = self.db.tag_lookup(doc_name, test.tag)
                return postings.starts, postings.levels
            return child_columns(cached)
        return child_columns(self._candidates(node, doc_name))

    def _scan_candidates(self, test: NodeTest, doc_name: str) -> Candidates:
        """One actual index/record scan for a node test (uncached).

        Every branch returns the column view; none builds a variant.
        """
        db = self.db
        if test.tag == "doc_root":
            return Candidates(
                [db.document(doc_name).root_id], "doc_root", [None], flat=True
            )
        if test.tag is None:
            # wildcard: one contiguous read of the whole record array
            document = db.document(doc_name)
            document.touch_range(0, len(document))
            ids, tags, values = [], [], []
            for nid, tag, value in zip(
                document.ids, document.tags, document.values
            ):
                if test.matches_content(value):
                    ids.append(nid)
                    tags.append(tag)
                    values.append(value)
            return Candidates(ids, tags, values)
        indexable = tuple(
            (op, val)
            for op, val in test.comparisons
            if op in ("=", "!=", "<", "<=", ">", ">=")
        )
        if indexable:
            op0, val0 = indexable[0]
            rest = tuple(
                c for c in test.comparisons if c != indexable[0]
            )
            document = db.document(doc_name)
            ids, values = [], []
            for nid in db.value_lookup(doc_name, test.tag, op0, val0):
                value = document.value_of(nid)
                if all(compare(value, op, val) for op, val in rest):
                    ids.append(nid)
                    values.append(value)
            # a subset of the tag's postings is as flat as they are
            flat = db.tag_index(doc_name).postings(test.tag).flat
            return Candidates(ids, test.tag, values, flat=flat)
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
        return Candidates(
            ids, test.tag, values, (starts, levels), postings.flat
        )

    def _match_node_db(
        self, node: APTNode, doc_name: str, memo: Dict[int, Candidates]
    ) -> Candidates:
        """All match variants of a pattern subtree, document order.

        A leaf pattern's result *is* its scan's view; a node with edges
        wraps the variants its joins kept.
        """
        key = id(node)
        if key in memo:
            return memo[key]
        matches = self._candidates(node, doc_name)
        if node.edges:
            matches = Candidates.of(
                self._variants(matches, node.edges, doc_name, memo, False)
            )
        memo[key] = matches
        return matches

    def _variants(
        self,
        view: Candidates,
        edges: List[APTEdge],
        doc_name: str,
        memo: Dict[int, Candidates],
        anchored: bool,
    ) -> List[_MTree]:
        """Join a candidate view with every edge; build what survives.

        Each edge, in source order, is one structural join over the
        candidate *positions* still alive — a mandatory edge prunes them
        for the edges after it — and yields, per position, the edge's
        alternatives.  A candidate's variants are the cross product of
        its alternatives (later edges vary fastest), enumerated in
        candidate order, with no variant built for a candidate some
        edge drops.

        ``anchored`` marks an extension batch, whose joins have always
        metered their child columns as reused.
        """
        metrics = self.db.metrics
        ids = view.ids
        #: the candidates' own probe keys when they are flat: what lets
        #: a join skip childless stretches of them (see ``probe``)
        starts = None
        if view.flat:
            starts = view.ready[0] if view.ready is not None else [
                (nid.doc, nid.start) for nid in ids
            ]
        #: candidate positions still alive (None: all of them)
        alive: Optional[List[int]] = None
        alternatives: List[Dict[int, List[Alternative]]] = []
        for edge in edges:
            children = self._match_node_db(edge.child, doc_name, memo)
            metrics.structural_joins += 1
            if edge.nested:
                metrics.nest_joins += 1
            if anchored:
                child_starts, child_levels = child_columns(children)
                metrics.postings_reused += 1
            else:
                child_starts, child_levels = child_columns(
                    children, metrics=metrics
                )
            if alive is None:
                parent_ids, flat_starts = ids, starts
            else:
                parent_ids = [ids[position] for position in alive]
                flat_starts = None if starts is None else [
                    starts[position] for position in alive
                ]
            found = _edge_alternatives(
                probe(
                    parent_ids, child_starts, child_levels, edge.axis,
                    edge.mspec in ("?", "*"), flat_starts,
                ),
                children,
                edge,
                alive,
            )
            if edge.mspec in ("-", "+"):
                alive = list(found)
            alternatives.append(found)
        tags, values = view.tag, view.values
        one_tag = isinstance(tags, str)
        out: List[_MTree] = []
        for position in range(len(ids)) if alive is None else alive:
            nid, value = ids[position], values[position]
            tag = tags if one_tag else tags[position]
            for combo in itertools.product(
                *[found[position] for found in alternatives]
            ):
                out.append(_MTree(nid, tag, value, list(combo)))
        return out

    # ------------------------------------------------------------------
    # internals: grafting for extension patterns
    # ------------------------------------------------------------------
    def _graft_shared(
        self,
        tree: XTree,
        spine: List[SpineEntry],
        anchors: List[TNode],
        combo: Sequence[object],
        edges: List[APTEdge],
        derive: bool,
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

        ``combo`` holds, per anchor, what to apply: for a stored anchor
        the ``(branches, records)`` :func:`_build_branches` built for
        one of its variants — the same node objects in every output
        tree that applies that variant, which is safe because built
        nodes are never mutated in place (marking and shadowing always
        copy first); for a temporary anchor an in-memory match variant,
        whose nodes' tree-private copies are marked.
        """
        result, mapping = tree.path_copy(spine)
        recorder: Optional[List[Tuple[int, TNode]]] = [] if derive else None
        for anchor, applied in zip(anchors, combo):
            if isinstance(anchor.nid, NodeId):
                branches, recs = applied
                mapping[id(anchor)].children.extend(branches)
                if recorder is not None:
                    recorder.extend(recs)
                continue
            for edge, matches in zip(edges, applied.slots):
                for child in matches:
                    _mark_match(child, edge.child, mapping)
        if recorder is not None:
            result.adopt_index(tree, mapping, recorder)
        else:
            # grafts never add shadowed nodes and copies keep flags, so
            # the input's shadow-presence knowledge carries over
            result._saw_shadowed = tree._saw_shadowed
        return result


def _edge_alternatives(
    probed: Iterable[Tuple[int, Sequence[int]]],
    children: Candidates,
    edge: APTEdge,
    alive: Optional[List[int]],
) -> Dict[int, List[Alternative]]:
    """The alternatives of one edge per surviving candidate position.

    Each alternative is what goes under the parent for this edge:

    * ``-``  one alternative per matching child (cross-product semantics),
    * ``?``  like ``-`` plus one empty alternative when nothing matched,
    * ``+``  exactly one alternative holding the whole cluster,
    * ``*``  one alternative holding the (possibly empty) cluster.

    Children of a leaf pattern stay ``(view, lo, hi)`` runs of their
    view's columns; existing variants (``children.items``) are placed as
    they are, clusters expanded so that each holds a node once.
    ``alive`` translates probe positions back to candidate positions.
    """
    items = children.items
    nested = edge.nested
    expand = nested and not edge.child.single_variant
    out: Dict[int, List[Alternative]] = {}
    for position, matched in probed:
        if alive is not None:
            position = alive[position]
        if not matched:
            out[position] = [[]]
        elif not nested:
            out[position] = (
                [(children, idx, idx + 1) for idx in matched]
                if items is None
                else [[items[idx]] for idx in matched]
            )
        elif items is None and type(matched) is range:
            out[position] = [(children, matched.start, matched.stop)]
        else:
            cluster = (
                children[matched.start:matched.stop]
                if type(matched) is range
                else [children[idx] for idx in matched]
            )
            out[position] = (
                _cluster_alternatives(cluster, _nid) if expand else [cluster]
            )
    return out


def _build_matches(
    matches: Alternative,
    pattern: APTNode,
    recs: Optional[List[Tuple[int, TNode]]] = None,
) -> List[TNode]:
    """Materialise one alternative as witness nodes of ``pattern``.

    With ``recs`` every built node is recorded with its class label, in
    pre-order, for the incremental LC-index derivation of
    :meth:`XTree.adopt_index`.
    """
    lcl = pattern.lcl
    if type(matches) is tuple:
        view, lo, hi = matches
        built = [
            TNode(tag, value, nid, (lcl,))
            for tag, value, nid in zip(
                view.run_tags(lo, hi), view.values[lo:hi], view.ids[lo:hi]
            )
        ]
        if recs is not None:
            recs.extend(zip(repeat(lcl), built))
        return built
    built = []
    for mtree in matches:
        node = TNode(mtree.tag, mtree.value, mtree.nid, (lcl,))
        built.append(node)
        if recs is not None:
            recs.append((lcl, node))
        for edge, below in zip(pattern.edges, mtree.slots):
            node.children.extend(_build_matches(below, edge.child, recs))
    return built


def _build(mtree: _MTree, pattern: APTNode) -> TNode:
    """Materialise one match variant as a witness tree."""
    return _build_matches([mtree], pattern)[0]


def _build_branches(
    variant: _MTree, edges: List[APTEdge]
) -> Tuple[List[TNode], List[Tuple[int, TNode]]]:
    """The branches an anchor's variant grafts, with their records."""
    recs: List[Tuple[int, TNode]] = []
    branches = [
        built
        for edge, matches in zip(edges, variant.slots)
        for built in _build_matches(matches, edge.child, recs)
    ]
    return branches, recs


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


def _mark_match(
    mtree: _MTree, pattern: APTNode, mapping: Dict[int, TNode]
) -> None:
    """Mark an in-memory match into its pattern classes.

    The match's nodes exist already (``ref``); their tree-private copies
    join the classes of the pattern nodes that matched them.  The slots
    of an in-memory match only ever hold further in-memory matches.
    """
    mapping[id(mtree.ref)].lcls.add(pattern.lcl)
    for edge, matches in zip(pattern.edges, mtree.slots):
        for child in matches:
            _mark_match(child, edge.child, mapping)


def _flatten_variant(
    mtree: _MTree,
    pattern: APTNode,
    columns: Columns,
    base: int,
    parent_rel: int,
) -> None:
    """Append one match variant to column builders, pre-order.

    The columnar counterpart of :func:`_build`: node first, then each
    edge's matches in slot order — the exact order ``add_child`` would
    have produced.  ``base`` is the row's first column, so recorded
    parents are row-relative.
    """
    tags, values, nids, labels, parents = columns
    rel = len(tags) - base
    tags.append(mtree.tag)
    values.append(mtree.value)
    nids.append(mtree.nid)
    labels.append(pattern.lcl)
    parents.append(parent_rel)
    for edge, matches in zip(pattern.edges, mtree.slots):
        _flatten_matches(matches, edge.child, columns, base, rel)


def _flatten_matches(
    matches: Alternative,
    pattern: APTNode,
    columns: Columns,
    base: int,
    parent_rel: int,
) -> None:
    """Append one alternative: a run as five slices, variants one by one."""
    if type(matches) is tuple:
        view, lo, hi = matches
        tags, values, nids, labels, parents = columns
        if hi - lo == 1:
            # the one child of a "-"/"?" edge (every FOR binding is
            # one): five appends cost an eighth of five slice copies
            tag = view.tag
            tags.append(tag if isinstance(tag, str) else tag[lo])
            values.append(view.values[lo])
            nids.append(view.ids[lo])
            labels.append(pattern.lcl)
            parents.append(parent_rel)
            return
        tags.extend(view.run_tags(lo, hi))
        values.extend(view.values[lo:hi])
        nids.extend(view.ids[lo:hi])
        labels.extend(repeat(pattern.lcl, hi - lo))
        parents.extend(repeat(parent_rel, hi - lo))
        return
    for child in matches:
        _flatten_variant(child, pattern, columns, base, parent_rel)


def _segment(variant: _MTree, edges: List[APTEdge]) -> tuple:
    """Flatten a variant's *branches* into a reusable column segment.

    Segment parents are segment-relative, with ``-1`` marking the
    branch roots (they attach to the anchor at splice time); the sixth
    entry says every node is one.
    """
    columns: Columns = ([], [], [], [], [])
    for edge, matches in zip(edges, variant.slots):
        _flatten_matches(matches, edge.child, columns, 0, -1)
    parents = columns[4]
    return (*columns, parents.count(-1) == len(parents))


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
            out.append(XTree(_build(variant, apt.root)))
    return out
