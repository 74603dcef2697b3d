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
or a batch row copies them out.  An extension's anchors get no variant
at all: their per-edge alternatives are written straight into output
rows, or built into branches the output trees share.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from itertools import islice, repeat
from operator import attrgetter, lt
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


def _distinct_anchors(
    nids: Sequence[NodeId],
) -> Tuple[Sequence[int], List[Sequence[NodeId]]]:
    """The distinct ids of ``nids``, in document order, per document.

    Returns ``ref`` — for each of ``nids`` the position of its id among
    the distinct ones, found by ``(doc, start)`` key and never by
    hashing an id — and the distinct ids split by document.  Rows
    straight from a match are distinct and in document order already.
    """
    keys = [(nid.doc, nid.start) for nid in nids]
    if all(map(lt, keys, islice(keys, 1, None))):
        ref: Sequence[int] = range(len(keys))
        distinct, distinct_keys = nids, keys
    else:
        by_key = dict(zip(keys, nids))
        distinct_keys = sorted(by_key)
        distinct = [by_key[key] for key in distinct_keys]
        where = {key: index for index, key in enumerate(distinct_keys)}
        ref = [where[key] for key in keys]
    documents = []
    first = 0
    while first < len(distinct):
        stop = bisect_left(distinct_keys, (distinct_keys[first][0] + 1,))
        documents.append(distinct[first:stop])
        first = stop
    return ref, documents


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
        :class:`~repro.columns.batch.ColumnBatch` — no ``TNode`` is
        built; downstream batch operators (or the eventual materialisation
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
        return ColumnBatch(offsets, *columns)

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

        All stored anchors are matched in one *batch*: pass 1 collects
        each tree's anchors, one anchored join
        (:meth:`_anchor_alternatives`) answers every edge for all of
        them at once, and the branches of each combination of a distinct
        anchor's alternatives are built once and shared by every tree
        that holds the anchor.  Pass 2 emits the grafted output trees in
        the original input order.  Temporary anchors are still matched
        per tree against their in-memory host.
        """
        root = apt.root
        if root.lc_ref is None:
            raise PatternError("extension pattern must reference a class")
        apt.validate()
        self.db.metrics.pattern_matches += 1
        edges = root.edges
        mandatory = any(e.mspec in ("-", "+") for e in edges)
        check_content = bool(root.test.comparisons)
        #: per input tree, its anchors — None marks an anchor-less tree
        #: and False a tree dropped by the root content test — and the
        #: index of its first stored anchor in ``stored``
        entries: List[Tuple[XTree, object, int]] = []
        stored: List[NodeId] = []
        for tree in trees:
            anchors = tree.class_nodes(root.lc_ref)
            if not anchors:
                anchors = None
            elif check_content and not all(
                root.test.matches_content(a.value) for a in anchors
            ):
                anchors = False
            entries.append((tree, anchors, len(stored)))
            stored.extend(
                a.nid for a in anchors or () if isinstance(a.nid, NodeId)
            )
        ref, per_anchor = self._anchor_alternatives(stored, edges)
        #: per distinct stored anchor, the branches of each combination
        #: of its alternatives, built once and shared by every graft of
        #: this batch (see :meth:`_graft_shared`)
        branches = [
            [] if alternatives is None else [
                _build_branches(combo, edges)
                for combo in itertools.product(*alternatives)
            ]
            for alternatives in per_anchor
        ]
        out = TreeSequence()
        limits = self.limits
        for tree, anchors, next_stored in entries:
            if limits is not None:
                limits.tick()
            if anchors is None:
                if not mandatory:
                    # nothing to extend: the output *is* the input tree
                    out.append(tree)
                continue
            if anchors is False:
                continue
            per_tree: List[list] = []
            for anchor in anchors:
                if isinstance(anchor.nid, NodeId):
                    variants = branches[ref[next_stored]]
                    next_stored += 1
                else:
                    variants = _match_tree_node(root, anchor)
                if not variants:
                    break
                per_tree.append(variants)
            else:
                # the output LC index can be derived from the input's
                # when grafts only *append* below stored, non-nested
                # anchors (and the pattern's classes are fresh to the
                # tree, which ``adopt_index`` checks): existing entries
                # keep their pre-order positions (remapped through the
                # copies) and new entries arrive in anchor/edge/match
                # order, which *is* output pre-order among themselves
                derive = tree._lc_index is not None and all(
                    isinstance(a.nid, NodeId) for a in anchors
                )
                spine, nested = _graft_spine(tree, anchors)
                for combo in itertools.product(*per_tree):
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
        return out

    def extend_batch(
        self, apt: APT, batch: ColumnBatch
    ) -> Optional[ColumnBatch]:
        """Columnar :meth:`extend`: write each output row once.

        The anchored join of :meth:`extend` runs unchanged (one
        structural join per edge across all distinct anchors) and yields
        each anchor's per-edge alternatives; no match variant or tree is
        built for an anchor.  An output row is the input row with one
        alternative per anchor and edge written in at the end of the
        anchor's subtree slice: a leaf child's run is copied as column
        slices, a non-leaf child's variants flatten in place.  Pre-order
        stays pre-order and parents are row-relative, so when every
        anchor's subtree closes the row — always when the anchor is the
        row root — the row is the base row with the branches appended;
        only base nodes after a splice point need their parents shifted.
        Rows multiply (``itertools.product``) only where an edge offers
        several alternatives — a ``-``/``?`` edge that matched more than
        once.

        Returns ``None`` when any anchor is a temporary node (in-memory
        matching marks existing nodes, which needs real trees); the
        caller materialises and falls back to :meth:`extend`.
        """
        root = apt.root
        if root.lc_ref is None:
            raise PatternError("extension pattern must reference a class")
        apt.validate()
        children = [edge.child for edge in root.edges]
        mandatory = any(e.mspec in ("-", "+") for e in root.edges)
        check_content = bool(root.test.comparisons)
        src_tags, src_values, src_nids = batch.tags, batch.values, batch.nids
        src_labels, src_parents = batch.labels, batch.parents
        src_offsets = batch.offsets
        # every anchor of the batch in one pass over the label column,
        # then split by row
        lc_ref = root.lc_ref
        anchor_cols = [
            j for j, label in enumerate(src_labels) if label == lc_ref
        ]
        #: per row, the range of ``anchors`` that holds its anchors'
        #: positions; None marks an anchor-less row and False a row
        #: dropped by the root content test (mirrors :meth:`extend`)
        entries: List[object] = []
        anchors: List[int] = []
        hi, total = 0, len(anchor_cols)
        for row in range(len(batch)):
            lo, end = hi, src_offsets[row + 1]
            while hi < total and anchor_cols[hi] < end:
                hi += 1
            if lo == hi:
                entries.append(None)
            elif check_content and not all(
                root.test.matches_content(src_values[p])
                for p in anchor_cols[lo:hi]
            ):
                entries.append(False)
            else:
                entries.append((len(anchors), len(anchors) + hi - lo))
                anchors.extend(anchor_cols[lo:hi])
        anchor_nids = [src_nids[p] for p in anchors]
        if not all(isinstance(nid, NodeId) for nid in anchor_nids):
            return None  # temporary anchor: in-memory matching needs trees
        self.db.metrics.pattern_matches += 1
        ref, per_anchor = self._anchor_alternatives(anchor_nids, root.edges)
        offsets = [0]
        columns: Columns = ([], [], [], [], [])
        tags, values, nids, labels, parents = columns
        width = len(children)

        def copy_base(first: int, stop: int, shift=None) -> None:
            tags.extend(src_tags[first:stop])
            values.extend(src_values[first:stop])
            nids.extend(src_nids[first:stop])
            labels.extend(src_labels[first:stop])
            parents.extend(
                src_parents[first:stop] if shift is None else [
                    parent + shift[parent]
                    for parent in src_parents[first:stop]
                ]
            )

        limits = self.limits
        for row, entry in enumerate(entries):
            if limits is not None:
                limits.tick()
            start, end = src_offsets[row], src_offsets[row + 1]
            if entry is None:
                if not mandatory:
                    copy_base(start, end)
                    offsets.append(len(tags))
                continue
            if entry is False:
                continue
            lo, hi = entry
            chosen = [per_anchor[ref[k]] for k in range(lo, hi)]
            if None in chosen:
                continue  # an anchor some mandatory edge dropped
            slots = [alts for alternatives in chosen for alts in alternatives]
            if sum(map(len, slots)) > len(slots):
                combos = itertools.product(*slots)
            else:
                combos = ([alts[0] for alts in slots],)
                if hi - lo == 1 and anchors[lo] == start:
                    # the row root is the one anchor: the base row, then
                    # its branches
                    row_base = len(tags)
                    copy_base(start, end)
                    for child, alternative in zip(children, combos[0]):
                        _flatten_matches(
                            alternative, child, columns, row_base, 0
                        )
                    offsets.append(len(tags))
                    continue
            n = end - start
            # splice points: the end of each anchor's subtree (the row's
            # end for its root; otherwise the first later node whose
            # parent lies in front of the anchor); on ties the deeper
            # anchor's branches come first (its subtree closes inside
            # the shallower one's)
            points = []
            for k in range(lo, hi):
                anchor = anchors[k] - start
                stop = anchor + 1 if anchor else n
                while stop < n and src_parents[start + stop] >= anchor:
                    stop += 1
                points.append((stop, -anchor))
            order = sorted(range(hi - lo), key=points.__getitem__)
            first_point = points[order[0]][0]
            for combo in combos:
                row_base = len(tags)
                copy_base(start, start + first_point)
                # base node j lands at j + shift[j]: the count of branch
                # nodes written in front of it, filled in as each splice
                # point is passed (nothing is written before the first)
                shift = [0] * n if first_point < n else None
                cursor = first_point
                for index in order:
                    ins, neg_anchor = points[index]
                    if cursor < ins:
                        copy_base(start + cursor, start + ins, shift)
                        cursor = ins
                    anchor_new = -neg_anchor
                    if shift is not None:
                        anchor_new += shift[anchor_new]
                    for child, alternative in zip(
                        children, combo[index * width:(index + 1) * width]
                    ):
                        _flatten_matches(
                            alternative, child, columns, row_base, anchor_new
                        )
                    if shift is not None:
                        shifted = len(tags) - row_base - ins
                        shift[ins:] = repeat(shifted, n - ins)
                if cursor < n:
                    copy_base(start + cursor, end, shift)
                offsets.append(len(tags))
        return ColumnBatch(offsets, *columns)

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
        ref, documents = _distinct_anchors(anchors)
        sizes: List[int] = []
        for ids in documents:
            starts, levels = self._count_columns(
                edge.child, self.db.owner(ids[0]).name
            )
            metrics.structural_joins += 1
            metrics.nest_joins += 1
            flat_starts = (
                [(nid.doc, nid.start) for nid in ids]
                if is_flat(ids) else None
            )
            found = [0] * len(ids)
            for position, matched in probe(
                ids, starts, levels, edge.axis, False, flat_starts
            ):
                found[position] = len(matched)
            sizes.extend(found)
        return [sizes[index] for index in ref]

    def _anchor_alternatives(
        self, nids: Sequence[NodeId], edges: List[APTEdge]
    ) -> Tuple[Sequence[int], List[Optional[List[List[Alternative]]]]]:
        """Every edge's alternatives below each stored anchor, in one batch.

        The alternatives of one edge depend only on the anchor's node
        id, so the distinct anchors of each document, in document
        order, are one candidate view and each edge is answered by a
        single structural join over it — the merge cursor then probes
        the shared child columns strictly forward.  Returns
        :func:`_distinct_anchors`' ``ref`` and, per distinct anchor, its
        per-edge alternatives as :func:`_edge_alternatives` yields them
        (``None`` when a mandatory edge dropped it).  No match variant
        is built here.
        """
        ref, documents = _distinct_anchors(nids)
        per_anchor: List[Optional[List[List[Alternative]]]] = []
        for ids in documents:
            # a fresh match memo per document: child matches are bound
            # to the document they were matched in
            per_anchor.extend(
                self._join_edges(
                    Candidates(ids, flat=is_flat(ids)),
                    edges,
                    self.db.owner(ids[0]).name,
                    {},
                    True,
                )
            )
        return ref, per_anchor

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
        wraps the variants its joins kept: per kept candidate, the cross
        product of its alternatives (later edges vary fastest).
        """
        key = id(node)
        if key in memo:
            return memo[key]
        matches = self._candidates(node, doc_name)
        if node.edges:
            ids, tags, values = matches.ids, matches.tag, matches.values
            one_tag = isinstance(tags, str)
            matches = Candidates.of(
                [
                    _MTree(
                        ids[position],
                        tags if one_tag else tags[position],
                        values[position],
                        list(combo),
                    )
                    for position, slots in enumerate(
                        self._join_edges(
                            matches, node.edges, doc_name, memo, False
                        )
                    )
                    if slots is not None
                    for combo in itertools.product(*slots)
                ]
            )
        memo[key] = matches
        return matches

    def _join_edges(
        self,
        view: Candidates,
        edges: List[APTEdge],
        doc_name: str,
        memo: Dict[int, Candidates],
        anchored: bool,
    ) -> List[Optional[List[List[Alternative]]]]:
        """Join a candidate view with every edge.

        Each edge, in source order, is one structural join over the
        candidate *positions* still alive — a mandatory edge prunes them
        for the edges after it — and yields, per position, the edge's
        alternatives.  Returns per candidate its per-edge alternatives,
        or ``None`` when some edge dropped it.

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
        slots: List[Optional[List[List[Alternative]]]] = [None] * len(ids)
        for position in range(len(ids)) if alive is None else alive:
            slots[position] = [found[position] for found in alternatives]
        return slots

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
        one combination of its alternatives — the same node objects in
        every output tree that applies it, which is safe because built
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
                _cluster_alternatives(cluster, attrgetter("nid"))
                if expand else [cluster]
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


def _build_branches(
    combo: Sequence[Alternative], edges: List[APTEdge]
) -> Tuple[List[TNode], List[Tuple[int, TNode]]]:
    """The branches one alternative per edge grafts, with their records."""
    recs: List[Tuple[int, TNode]] = []
    branches = [
        built
        for edge, matches in zip(edges, combo)
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

    The columnar counterpart of :func:`_build_matches`: node first, then each
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
    """Match variants of a pattern subtree rooted at one tree node: the
    cross product of its edges' alternatives (later edges vary fastest)."""
    per_edge: List[List[List[_MTree]]] = []
    for edge in pattern.edges:
        found = [
            variant
            for node in _tree_candidates(candidate, edge.child.test, edge.axis)
            for variant in _match_tree_node(edge.child, node)
        ]
        if not found:
            alternatives = [[]] if edge.mspec in ("?", "*") else []
        elif edge.nested:
            alternatives = _cluster_alternatives(found, lambda m: id(m.ref))
        else:
            alternatives = [[variant] for variant in found]
        if not alternatives:
            return []
        per_edge.append(alternatives)
    return [
        _MTree(
            candidate.nid, candidate.tag, candidate.value, list(combo),
            candidate,
        )
        for combo in itertools.product(*per_edge)
    ]


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
            out.append(XTree(_build_matches([variant], apt.root)[0]))
    return out
