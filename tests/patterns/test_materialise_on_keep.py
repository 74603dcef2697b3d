"""Laziness and skipping as properties: the matcher against an eager one.

``EagerMatcher`` is the matcher the repo used to have, written as
plainly as possible: every candidate becomes an object the moment it is
scanned (one record fetched per posting), every edge probes **every**
parent against **every** child with the containment test, and variants
are the cross product of the per-edge alternatives.  It shares no code
with ``repro.patterns.match`` or ``repro.physical.structural_join`` —
it talks to the ``Database`` facade and builds ``TNode`` trees itself —
and meters what the real matcher meters (scan cache hits, one
structural/nest join per edge, ``postings_reused`` on second and later
joins over a scan — always in an extension batch — pattern matches,
trees built).

On Hypothesis-generated patterns — both axes, all four matching
specifications, leaf and non-leaf children, content predicates, tags
that nest inside themselves as parents *and* children, scan cache on
and off — ``match`` / ``match_batch`` /
``extend`` / ``extend_batch`` must return the eager witness sequence,
node for node and class for class, and leave every ``Metrics`` counter
where the eager matcher leaves it.  ``extend_batch`` is additionally
pinned to the per-tree ``extend`` on rows with no, one and several
anchors, nested anchors, anchors below the row root and several
variants per anchor, with the rows in document order, reversed, and
each twice.
"""

import itertools
from math import prod

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from repro.columns.batch import ColumnBatch
from repro.model.node_id import NodeId
from repro.model.sequence import TreeSequence
from repro.model.tree import TNode, XTree
from repro.model.value import compare
from repro.patterns import APT, PatternMatcher, ScanCache, pattern_node
from repro.patterns.apt import MSPECS
from repro.storage import Database
from repro.xmark import load_xmark

DOC = "auction.xml"
_INDEXABLE = ("=", "!=", "<", "<=", ">", ">=")

#: ``parlist``/``listitem`` and ``bold``/``emph``/``keyword`` nest inside
#: themselves, directly and at a distance; ``text`` and ``item`` do not.
NESTED = (
    "<site>"
    "<item id='i0'><name>n0</name><description><parlist>"
    "<listitem><text>a<keyword>k0</keyword><bold>b0<keyword>k1"
    "<emph>e0<keyword>k2</keyword></emph></keyword></bold></text>"
    "<parlist><listitem><text>b<emph>e1<bold>b1</bold></emph></text>"
    "<parlist><listitem><text>c</text></listitem></parlist>"
    "</listitem><listitem><text>d<keyword>k3</keyword></text></listitem>"
    "</parlist></listitem>"
    "<listitem><text>e<bold>b2<bold>b3</bold></bold></text></listitem>"
    "</parlist></description></item>"
    "<item id='i1'><name>n1</name><description><text>f<keyword>k4"
    "</keyword></text></description></item>"
    "<item id='i2'><name>n2</name><description><parlist><listitem>"
    "<parlist><listitem><text>g<emph>e2</emph></text></listitem>"
    "</parlist></listitem></parlist></description></item>"
    "</site>"
)
NESTED_TAGS = (
    "item", "@id", "name", "description", "parlist", "listitem", "text",
    "keyword", "bold", "emph", None,
)
XMARK_TAGS = (
    "open_auction", "bidder", "increase", "personref", "@person",
    "initial", "reserve", "person", "profile", "age", "@income", "item",
    "description", "parlist", "listitem", "text", "keyword", "name",
)
PREDICATES = ((),) * 12 + (
    (("contains", "k"),), (("contains", "e"),), (("=", "k1"),),
    ((">", "20"),), (("!=", "n0"),), (("!=", "c"), ("contains", "a")),
)


def _database(kind):
    db = Database()
    if kind == "nested":
        db.load_xml(DOC, NESTED)
    else:
        load_xmark(db, factor=0.002)
    return db


#: the four matching specifications, the optional ones twice as likely
#: (a generated mandatory edge too often finds nothing and empties the case)
_MSPECS = MSPECS + ("?", "*")


def _tags_below(db, tags):
    """tag -> the pattern tags that occur below a node of that tag (so
    most generated edges have something to find)."""
    document = db.document(DOC)
    below = {tag: set() for tag in tags}
    open_nodes = []
    for nid, tag in zip(document.ids, document.tags):
        while open_nodes and open_nodes[-1][0] < nid.start:
            open_nodes.pop()
        if tag in below:
            for _, ancestor in open_nodes:
                if ancestor in below:
                    below[ancestor].add(tag)
        open_nodes.append((nid.end, tag))
    named = [tag for tag in tags if tag is not None]
    below[None] = set(named)
    return {tag: sorted(found) or named for tag, found in below.items()}


_DBS = {kind: _database(kind) for kind in ("nested", "xmark")}
_TAGS = {"nested": NESTED_TAGS, "xmark": XMARK_TAGS}
_BELOW = {kind: _tags_below(_DBS[kind], _TAGS[kind]) for kind in _DBS}


# ----------------------------------------------------------------------
# the eager reference
# ----------------------------------------------------------------------
class _Match:
    """One eager match variant (candidates are born as these)."""

    def __init__(self, nid, tag, value, slots=()):
        self.nid, self.tag, self.value = nid, tag, value
        self.slots = list(slots)


class _Scan(list):
    """A scan's candidates plus "a join has read these as children"."""

    joined = False


def _contains(parent, child, axis):
    return (
        parent.doc == child.doc
        and parent.start < child.start
        and child.end < parent.end
        and (axis == "ad" or child.level == parent.level + 1)
    )


#: Generated patterns multiply (three ``-`` edges over a tag that nests
#: is a cube); the eager matcher counts before it builds and gives up on
#: a case with more variants or rows than this.
CAP = 300


class _TooBig(Exception):
    pass


def _capped(count):
    if count > CAP:
        raise _TooBig
    return count


class EagerMatcher:
    def __init__(self, db, cached):
        self.db = db
        self.metrics = db.metrics
        self.cache = {} if cached else None

    # scans: one record fetched per posting, through the facade only
    def _scan(self, test):
        key = (test.tag, test.comparisons)
        if self.cache is not None and key in self.cache:
            self.metrics.scan_cache_hits += 1
            return self.cache[key]
        db, document = self.db, self.db.document(DOC)
        rest = test.comparisons
        if test.tag == "doc_root":
            out = _Scan([_Match(document.root_id, "doc_root", None)])
        else:
            if test.tag is None:
                nids = [document.node_id(i) for i in range(len(document))]
            else:
                indexable = [c for c in rest if c[0] in _INDEXABLE]
                if indexable:
                    nids = db.value_lookup(DOC, test.tag, *indexable[0])
                    rest = tuple(c for c in rest if c != indexable[0])
                else:
                    nids = db.tag_lookup(DOC, test.tag)
            out = _Scan()
            for nid in nids:
                idx = document.index_of(nid)
                document.touch_range(idx, idx + 1)
                value = document.values[idx]
                if all(compare(value, op, rhs) for op, rhs in rest):
                    out.append(_Match(nid, document.tags[idx], value))
        if self.cache is not None:
            self.cache[key] = out
        return out

    def _alternatives(self, parent_nid, children, edge):
        """Every child is tested against the parent: no cursor, no skip."""
        matched = [
            c for c in children if _contains(parent_nid, c.nid, edge.axis)
        ]
        if edge.mspec in ("-", "?"):
            alts = [[c] for c in matched]
            return alts if alts or edge.mspec == "-" else [[]]
        if not matched:
            return [[]] if edge.mspec == "*" else []
        by_node = {}
        for c in matched:
            by_node.setdefault(c.nid, []).append(c)
        _capped(prod(len(variants) for variants in by_node.values()))
        return [list(combo) for combo in itertools.product(*by_node.values())]

    def _join(self, children, edge, anchored):
        self.metrics.structural_joins += 1
        if edge.mspec in ("+", "*"):
            self.metrics.nest_joins += 1
        if anchored or getattr(children, "joined", False):
            self.metrics.postings_reused += 1
        if isinstance(children, _Scan):
            children.joined = True

    def _match_node(self, node, memo):
        if id(node) in memo:
            return memo[id(node)]
        candidates = self._scan(node.test)
        if node.edges:
            found = {}
            for edge in node.edges:
                children = self._match_node(edge.child, memo)
                self._join(children, edge, False)
                found[id(edge)] = [
                    self._alternatives(c.nid, children, edge)
                    for c in candidates
                ]
            _capped(
                sum(
                    prod(len(found[id(e)][position]) for e in node.edges)
                    for position in range(len(candidates))
                )
            )
            candidates = [
                _Match(c.nid, c.tag, c.value, combo)
                for position, c in enumerate(candidates)
                for combo in itertools.product(
                    *(found[id(edge)][position] for edge in node.edges)
                )
            ]
        memo[id(node)] = candidates
        return candidates

    def _build(self, match, pattern):
        node = TNode(match.tag, match.value, match.nid, {pattern.lcl})
        for edge, below in zip(pattern.edges, match.slots):
            for child in below:
                node.children.append(self._build(child, edge.child))
        return node

    def match(self, apt, batch=False):
        self.metrics.pattern_matches += 1
        out = []
        for match in self._match_node(apt.root, {}):
            out.append(XTree(self._build(match, apt.root)))
            if not batch:
                self.metrics.trees_built += 1
        return out

    def extend(self, apt, trees, batch=False):
        self.metrics.pattern_matches += 1
        root, edges = apt.root, apt.root.edges
        mandatory = any(e.mspec in "-+" for e in edges)
        anchors_of = []
        distinct = {}
        for tree in trees:
            anchors = [
                n for n in tree.root.walk() if root.lc_ref in n.lcls
            ]
            if anchors and not all(
                root.test.matches_content(a.value) for a in anchors
            ):
                anchors = False
            anchors_of.append(anchors)
            for anchor in anchors or ():
                distinct.setdefault(anchor.nid, None)
        variants = {}
        if distinct:
            memo = {}
            per_edge = []
            for edge in edges:
                children = self._match_node(edge.child, memo)
                self._join(children, edge, True)
                per_edge.append(
                    {
                        nid: self._alternatives(nid, children, edge)
                        for nid in distinct
                    }
                )
            for nid in distinct:
                _capped(prod(len(found[nid]) for found in per_edge))
                variants[nid] = list(
                    itertools.product(*(found[nid] for found in per_edge))
                )
        _capped(
            sum(
                prod(len(variants[a.nid]) for a in anchors)
                for anchors in anchors_of
                if anchors
            )
        )
        out = []
        for tree, anchors in zip(trees, anchors_of):
            if anchors is False:
                continue
            if not anchors:
                if not mandatory:
                    out.append(tree)
                continue
            for combo in itertools.product(
                *(variants[a.nid] for a in anchors)
            ):
                copies = {}
                copy = XTree(_copy(tree.root, copies))
                for anchor, slots in zip(anchors, combo):
                    for edge, below in zip(edges, slots):
                        for child in below:
                            copies[id(anchor)].children.append(
                                self._build(child, edge.child)
                            )
                out.append(copy)
                if not batch:
                    self.metrics.trees_built += 1
        return out


def _copy(node, copies):
    twin = TNode(node.tag, node.value, node.nid, set(node.lcls))
    copies[id(node)] = twin
    twin.children = [_copy(child, copies) for child in node.children]
    return twin


def _shape(trees):
    """Every node of every tree: depth, identity, content and classes."""

    def walk(node, depth):
        yield depth, node.nid, node.tag, node.value, sorted(node.lcls)
        for child in node.children:
            yield from walk(child, depth + 1)

    return [list(walk(tree.root, 0)) for tree in trees]


# ----------------------------------------------------------------------
# generated patterns
# ----------------------------------------------------------------------
@st.composite
def _subpattern(draw, kind, above=None, depth=0):
    """``(tag, predicate, [(axis, mspec, child), ...])``.

    Four times in five the tag is one that occurs below ``above`` in the
    document; otherwise any tag (an edge that finds nothing is a case
    too, it just must not be the usual one).
    """
    pool = _TAGS[kind]
    if draw(st.integers(0, 4)):
        pool = _BELOW[kind].get(above, pool)
    tag = draw(st.sampled_from(pool))
    edges = []
    if depth < 2:
        for _ in range(draw(st.integers(0, 3 - depth))):
            edges.append(
                (
                    draw(st.sampled_from(("pc", "ad", "ad"))),
                    draw(st.sampled_from(_MSPECS)),
                    draw(_subpattern(kind, tag, depth + 1)),
                )
            )
    return (tag, draw(st.sampled_from(PREDICATES)), edges)


def _node(spec, labels):
    tag, predicate, edges = spec
    node = pattern_node(tag, next(labels), predicate)
    for axis, mspec, child in edges:
        node.add_edge(_node(child, labels), axis, mspec)
    return node


@st.composite
def _scenario(draw):
    """A database, a document pattern and an extension of one of its
    classes (the anchor class may sit anywhere in the base pattern)."""
    kind = draw(st.sampled_from(("nested", "xmark")))
    labels = iter(range(1, 1000))
    root = pattern_node("doc_root", next(labels))
    root.add_edge(
        _node(draw(_subpattern(kind)), labels),
        "ad",
        draw(st.sampled_from(MSPECS)),
    )
    base = APT(root, DOC)
    # usually the class every row has, sometimes one deeper in the rows
    # (several anchors per row, anchors some rows lack)
    anchor = draw(st.sampled_from(base.nodes()[1:3] + base.nodes()[1:]))
    ext_root = pattern_node(
        None, 0, draw(st.sampled_from(PREDICATES)), lc_ref=anchor.lcl
    )
    for _ in range(draw(st.integers(1, 3))):
        ext_root.add_edge(
            _node(draw(_subpattern(kind, anchor.test.tag, 1)), labels),
            draw(st.sampled_from(("pc", "ad", "ad"))),
            draw(st.sampled_from(_MSPECS)),
        )
    return kind, base, APT(ext_root)


def _observe(db, run):
    db.reset_metrics(cold_cache=True)
    try:
        result = run()
    except _TooBig:
        reject()
    return result, db.metrics.snapshot()


def _both(db, cached):
    eager = EagerMatcher(db, cached)
    lazy = PatternMatcher(
        db, scan_cache=ScanCache(db.metrics) if cached else None
    )
    return eager, lazy


def _check_trees(scenario, cached):
    kind, base, extension = scenario
    db = _DBS[kind]
    eager, lazy = _both(db, cached)
    want, want_counters = _observe(db, lambda: eager.match(base))
    got, counters = _observe(db, lambda: lazy.match(base))
    assert _shape(got) == _shape(want)
    assert counters == want_counters
    # the extension runs inside the same cache lifetime on both sides:
    # second joins over the base match's scans must be metered as such
    want_ext, want_counters = _observe(
        db, lambda: eager.extend(extension, want)
    )
    got_ext, counters = _observe(db, lambda: lazy.extend(extension, got))
    assert _shape(got_ext) == _shape(want_ext)
    assert counters == want_counters
    return len(want), len(want_ext)


def _check_batches(scenario, cached):
    kind, base, extension = scenario
    db = _DBS[kind]
    eager, lazy = _both(db, cached)
    want, want_counters = _observe(db, lambda: eager.match(base, True))
    got, counters = _observe(db, lambda: lazy.match_batch(base))
    assert isinstance(got, ColumnBatch)
    assert counters == want_counters
    assert _shape(got.materialize()) == _shape(want)
    want_ext, want_counters = _observe(
        db, lambda: eager.extend(extension, want, True)
    )
    got_ext, counters = _observe(
        db, lambda: lazy.extend_batch(extension, got)
    )
    assert counters == want_counters
    assert _shape(got_ext.materialize()) == _shape(want_ext)


@settings(max_examples=120, deadline=None)
@given(_scenario(), st.booleans())
def test_trees_equal_the_eager_matcher(scenario, cached):
    _check_trees(scenario, cached)


@settings(max_examples=120, deadline=None)
@given(_scenario(), st.booleans())
def test_batches_equal_the_eager_matcher(scenario, cached):
    _check_batches(scenario, cached)


def _written(kind, base_spec, anchor_lcl, ext_edges):
    """A scenario from literal specs (labels count up from 2 and 100)."""
    root = pattern_node("doc_root", 1)
    root.add_edge(_node(base_spec, iter(range(2, 100))), "ad", "-")
    ext_root = pattern_node(None, 0, lc_ref=anchor_lcl)
    labels = iter(range(100, 1000))
    for axis, mspec, spec in ext_edges:
        ext_root.add_edge(_node(spec, labels), axis, mspec)
    return kind, APT(root, DOC), APT(ext_root)


def _leaf(tag, predicate=()):
    return (tag, predicate, [])


#: Cases generation reaches too rarely to rely on: several variants per
#: candidate and per anchor, nested tags on both sides of an edge, a
#: multi-edge node whose last edge prunes.
WRITTEN = [
    # every listitem × each text below × each keyword cluster (nested
    # parents, leaf runs), extended by "-" edges that multiply rows
    _written(
        "nested",
        ("listitem", (), [
            ("ad", "-", _leaf("text")), ("ad", "*", _leaf("keyword")),
        ]),
        2,
        [("ad", "-", _leaf("bold")), ("pc", "?", _leaf("parlist"))],
    ),
    # nested tags as children of nested tags, non-leaf on the way
    _written(
        "nested",
        ("parlist", (), [
            ("pc", "+", ("listitem", (), [
                ("ad", "?", _leaf("emph")),
            ])),
        ]),
        3,
        [("ad", "+", ("bold", (), [("pc", "*", _leaf("bold"))]))],
    ),
    # wildcard parents and children, pc level filter inside a wide range
    _written(
        "nested",
        ("description", (), [("pc", "*", _leaf(None))]),
        3,
        [("pc", "-", _leaf(None)), ("ad", "*", _leaf("keyword"))],
    ),
    # value-index hit far into a flat parent list (the run-skip case)
    _written(
        "xmark",
        ("person", (), [
            ("pc", "?", _leaf("name")),
            ("ad", "*", _leaf("@income")),
            ("pc", "-", _leaf("@id", (("=", "person7"),))),
        ]),
        2,
        [("ad", "-", _leaf("interest")), ("pc", "-", _leaf("name"))],
    ),
    # anchors deep in the row, several per row, some rows without
    _written(
        "xmark",
        ("open_auction", (), [
            ("pc", "*", ("bidder", (), [
                ("pc", "-", _leaf("increase")),
            ])),
            ("pc", "?", _leaf("reserve")),
        ]),
        3,
        [("pc", "-", _leaf("personref")), ("pc", "?", _leaf("time"))],
    ),
]


@pytest.mark.parametrize("cached", [False, True])
@pytest.mark.parametrize("scenario", WRITTEN, ids=range(len(WRITTEN)))
def test_written_cases_equal_the_eager_matcher(scenario, cached):
    matched, extended = _check_trees(scenario, cached)
    assert matched and extended
    _check_batches(scenario, cached)


# ----------------------------------------------------------------------
# extend_batch against the per-tree extend, row shape by row shape
# ----------------------------------------------------------------------
def _rows(anchor_shape):
    """Base patterns whose rows hold the anchor class (label 9) …"""
    root = pattern_node("doc_root", 1)
    if anchor_shape == "root-of-row":  # one anchor, the row root's child
        root.add_edge(pattern_node("listitem", 9), "ad", "-")
    elif anchor_shape == "several-nested":  # a cluster of nested anchors
        item = pattern_node("item", 2)
        root.add_edge(item, "ad", "-")
        item.add_edge(pattern_node("name", 3), "pc", "-")
        item.add_edge(pattern_node("listitem", 9), "ad", "*")
        item.add_edge(pattern_node("@id", 4), "pc", "-")
    elif anchor_shape == "below-with-siblings":  # base nodes follow it
        item = pattern_node("item", 2)
        root.add_edge(item, "ad", "-")
        item.add_edge(pattern_node("parlist", 9), "ad", "?")
        item.add_edge(pattern_node("name", 3), "pc", "-")
    else:  # "none": rows without the class at all
        root.add_edge(pattern_node("name", 2), "ad", "-")
    return APT(root, DOC)


#: The row orders an extension sees, as row indexes of ``n`` rows.
ROW_ORDERS = (
    lambda n: list(range(n)),  # as a match emits them: document order
    lambda n: list(range(n))[::-1],  # reversed, as a Sort may emit them
    lambda n: list(range(n)) * 2,  # each twice, as after a Join
)


@pytest.mark.parametrize(
    "anchor_shape",
    ["root-of-row", "several-nested", "below-with-siblings", "none"],
)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_extend_batch_equals_per_tree_extend(anchor_shape, data):
    db = _DBS["nested"]
    labels = iter(range(20, 1000))
    ext_root = pattern_node(None, 0, lc_ref=9)
    for _ in range(data.draw(st.integers(1, 3))):
        ext_root.add_edge(
            _node(data.draw(_subpattern("nested", "listitem", 1)), labels),
            data.draw(st.sampled_from(("pc", "ad", "ad"))),
            # "-"/"?" over nested tags give several variants per anchor
            data.draw(st.sampled_from(MSPECS)),
        )
    extension = APT(ext_root)
    matcher = PatternMatcher(db)
    base = _rows(anchor_shape)
    trees, batch = matcher.match(base), matcher.match_batch(base)
    assert len(trees) > 0
    eager = EagerMatcher(db, cached=False)
    for rows in ROW_ORDERS:
        order = rows(len(trees))
        ordered = TreeSequence(trees[i] for i in order)
        want = matcher.extend(extension, ordered)
        got = matcher.extend_batch(extension, batch.select_rows(order))
        assert _shape(got.materialize()) == _shape(want)
        # both forms share the anchored join: pin it to the reference
        reference, _ = _observe(
            db, lambda: eager.extend(extension, list(ordered))
        )
        assert _shape(want) == _shape(reference)


def test_extend_batch_with_nested_anchors_in_one_row():
    """A row whose anchors nest (matching never builds one, but rows are
    only columns): both splice at the same point, the inner anchor's
    branches first, and the base node after them moves up."""
    db = _DBS["nested"]
    document = db.document(DOC)
    nodes = list(zip(document.ids, document.tags, document.values))
    item = next(node for node in nodes if node[1] == "item")
    outer, inner = [node for node in nodes if node[1] == "listitem"][:2]
    assert outer[0].contains(inner[0])
    name = next(node for node in nodes if node[1] == "name")
    row = [item, outer, inner, name]
    batch = ColumnBatch(
        [0, len(row)],
        [tag for _, tag, _ in row],
        [value for _, _, value in row],
        [nid for nid, _, _ in row],
        [2, 9, 9, 3],
        [-1, 0, 1, 0],
    )
    for mspec in MSPECS:
        ext_root = pattern_node(None, 0, lc_ref=9)
        ext_root.add_edge(pattern_node("text", 20), "ad", mspec)
        ext_root.add_edge(pattern_node("keyword", 21), "ad", "?")
        extension = APT(ext_root)
        matcher = PatternMatcher(db)
        want = matcher.extend(extension, batch.materialize())
        got = matcher.extend_batch(extension, batch)
        assert len(want) > 1
        assert _shape(got.materialize()) == _shape(want)


def test_temporary_anchors_send_the_batch_to_the_tree_path():
    db = _DBS["nested"]
    matcher = PatternMatcher(db)
    made = TNode("made", None, None, {9})
    made.children.append(TNode("text", "t", None, set()))
    extension = APT(pattern_node(None, 0, lc_ref=9))
    extension.root.add_edge(pattern_node("text", 10), "pc", "*")
    trees = TreeSequence([XTree(made)])
    assert not isinstance(made.nid, NodeId)
    (out,) = matcher.extend(extension, trees)
    assert [sorted(n.lcls) for n in out.root.walk()] == [[9], [10]]
