"""Differential equivalence: each batch operator form vs its per-tree twin.

The evaluator runs every operator through ``execute_batch``; the
per-tree ``execute`` is the reference.  Random labelled forests are
flattened into :class:`ColumnBatch` rows and pushed through
``execute_batch``; the same forests as materialised trees go through
``execute``.  The two paths must agree on the serialised output for
every operator, seed and parameter choice — including label shapes the
query translator never emits.  Construct fetches stored subtrees, so
its cases run over witness rows of the tiny auction document instead.
"""

import random

import pytest

from repro.columns.batch import ColumnBatch
from repro.core import (
    AggregateOp,
    ClassPredicate,
    ConstructOp,
    Context,
    DedupOp,
    FilterOp,
    JoinOp,
    JoinPredicate,
    ProjectOp,
    SortOp,
    UnionOp,
)
from repro.core.construct import CClassRef, CElement, CText
from repro.core.filter import (
    CrossClassPredicate,
    DisjunctivePredicate,
    TreeFilterOp,
)
from repro.errors import CardinalityError
from repro.model.node_id import NodeId
from repro.patterns import APT, PatternMatcher, pattern_node
from repro.storage import Database
from tests.conftest import assert_cached_state_exact

SEEDS = range(8)

TAGS = ("item", "name", "price", "bid", "note")
VALUES = (None, 0, 1, 7, 42, "a", "b", "zz", 3.5)


def random_forest(rng, rows=None):
    """Flattened random forest: the builder lists of a ColumnBatch.

    Nodes carry interval ids in pre-order (a valid document numbering)
    and at most one class label each, as batch-built witnesses do.
    """
    offsets = [0]
    tags, values, nids, labels, parents = [], [], [], [], []
    counter = [0]

    def grow(depth, parent_rel, base):
        position = len(tags) - base
        start = counter[0] = counter[0] + 1
        tags.append(rng.choice(TAGS))
        values.append(rng.choice(VALUES))
        nids.append(None)  # fixed up once the subtree span is known
        labels.append(rng.choice((0, 0, 1, 1, 2, 2, 3, 4)))
        parents.append(parent_rel)
        slot = len(nids) - 1
        if depth < 3:
            for _ in range(rng.randint(0, 3 - depth)):
                grow(depth + 1, position, base)
        end = counter[0] = counter[0] + 1
        nids[slot] = NodeId(doc=1, start=start, end=end, level=depth)

    for _ in range(rows if rows is not None else rng.randint(0, 6)):
        grow(0, -1, offsets[-1])
        offsets.append(len(tags))
    return offsets, tags, values, nids, labels, parents


def batch_and_trees(rng, rows=None):
    """The same random forest as a batch and as an independent sequence."""
    built = random_forest(rng, rows)
    batch = ColumnBatch(*[
        list(column) if isinstance(column, list) else column
        for column in built
    ])
    trees = ColumnBatch(*[list(c) for c in built]).materialize()
    return batch, trees


def outcome(op, ctx, payload, batched):
    """Serialised result (or the raised error type) of one execution."""
    try:
        if batched:
            result = op.execute_batch(ctx, payload)
            if isinstance(result, ColumnBatch):
                result = result.materialize()
        else:
            result = op.execute(ctx, payload)
    except CardinalityError:
        return "CardinalityError"
    return [tree.to_xml() for tree in result]


def assert_equivalent(op, batch, trees, extra=()):
    ctx = Context(Database())
    tree_inputs = [trees] + [item.materialize() for item in extra]
    batch_inputs = [batch] + list(extra)
    assert outcome(op, ctx, batch_inputs, batched=True) == \
        outcome(op, ctx, tree_inputs, batched=False)


FILTER_MODES = ("E", "ALO", "EX", "FIRST")


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("mode", FILTER_MODES)
def test_filter_equivalence(seed, mode):
    rng = random.Random(seed * 31 + FILTER_MODES.index(mode))
    batch, trees = batch_and_trees(rng)
    predicate = ClassPredicate(
        rng.choice((1, 2, 3)), rng.choice(("=", "!=", ">", "<")),
        rng.choice((1, 7, "a")),
    )
    assert_equivalent(FilterOp(predicate, mode), batch, trees)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("by", ("id", "content"))
def test_dedup_equivalence(seed, by):
    rng = random.Random(seed * 17 + len(by))
    batch, trees = batch_and_trees(rng)
    lcls = rng.sample((1, 2, 3, 4), rng.randint(1, 2))
    assert_equivalent(DedupOp(lcls, by), batch, trees)


@pytest.mark.parametrize("seed", SEEDS)
def test_union_equivalence(seed):
    rng = random.Random(seed * 13)
    batch_a, trees_a = batch_and_trees(rng)
    batch_b, _ = batch_and_trees(rng)
    dedup = rng.choice((None, 1, 2))
    assert_equivalent(
        UnionOp([None, None], dedup_lcl=dedup),
        batch_a, trees_a, extra=[batch_b],
    )


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("descending", (False, True))
def test_sort_equivalence(seed, descending):
    rng = random.Random(seed * 7 + descending)
    batch, trees = batch_and_trees(rng)
    lcls = rng.sample((1, 2, 3), rng.randint(1, 2))
    assert_equivalent(SortOp(lcls, descending), batch, trees)


@pytest.mark.parametrize("seed", SEEDS)
def test_project_equivalence(seed):
    rng = random.Random(seed * 11)
    batch, trees = batch_and_trees(rng)
    keep = rng.sample((1, 2, 3, 4), rng.randint(1, 3))
    assert_equivalent(ProjectOp(keep), batch, trees)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("fname", ("count", "sum", "avg", "min", "max"))
def test_aggregate_equivalence(seed, fname):
    rng = random.Random(seed * 5 + len(fname))
    batch, trees = batch_and_trees(rng, rows=rng.randint(1, 5))
    assert_equivalent(AggregateOp(fname, rng.choice((1, 2, 3)), 9),
                      batch, trees)


def singleton_batch_and_trees(rng):
    """:func:`batch_and_trees` with each label on at most one node per
    row (later repeats unlabelled): rows a join can key."""
    built = random_forest(rng, rng.randint(0, 8))
    offsets, labels = built[0], built[4]
    for row in range(len(offsets) - 1):
        seen = {0}
        for j in range(offsets[row], offsets[row + 1]):
            if labels[j] in seen:
                labels[j] = 0
            seen.add(labels[j])
    batch = ColumnBatch(*[list(c) for c in built])
    return batch, ColumnBatch(*[list(c) for c in built]).materialize()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("op", ("=", ">", "!="))
@pytest.mark.parametrize("second", (False, True), ids=("one", "two"))
@pytest.mark.parametrize("rows", ("any", "keyed"))
def test_counting_join_equivalence(seed, op, second, rows):
    """The count form over batches, per side, against its tree body."""
    rng = random.Random(seed)
    forest = batch_and_trees if rows == "any" else singleton_batch_and_trees
    left, left_trees = forest(rng)
    right, right_trees = forest(rng)
    preds = [JoinPredicate(1, op, 2)]
    if second:
        preds.append(JoinPredicate(3, "<=", 4))
    join = JoinOp(None, None, preds, 9, "*", count_lcl=20)
    assert_equivalent(join, left, left_trees, extra=[right])
    ctx = Context(Database())
    assert outcome(join, ctx, [left, right_trees], batched=True) == \
        outcome(join, ctx, [left_trees, right], batched=True) == \
        outcome(join, ctx, [left_trees, right_trees], batched=False)


@pytest.mark.parametrize("seed", SEEDS)
def test_fallback_adapter_equivalence(seed):
    """The base-class fallback (materialise, delegate) is also exact."""
    rng = random.Random(seed * 3)
    batch, trees = batch_and_trees(rng)
    op = ProjectOp([1, 2], with_subtrees=False)
    ctx = Context(Database())
    from repro.core.base import Operator

    fallback = Operator.execute_batch(op, ctx, [batch])
    direct = op.execute(ctx, [trees])
    assert [t.to_xml() for t in fallback] == [t.to_xml() for t in direct]
    assert ctx.metrics.batch_fallbacks == 1


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("shape", ("cross", "disjunctive"))
def test_tree_filter_equivalence(seed, shape):
    """The two declared predicate shapes evaluate off the columns."""
    rng = random.Random(seed * 19 + len(shape))
    batch, trees = batch_and_trees(rng)
    ops = ("=", "!=", ">", "<")
    if shape == "cross":
        predicate = CrossClassPredicate(
            rng.choice((1, 2, 3)), rng.choice(ops), rng.choice((1, 2, 3))
        )
    else:
        predicate = DisjunctivePredicate([
            ClassPredicate(
                rng.choice((1, 2, 3)), rng.choice(ops),
                rng.choice((1, 7, "a")),
            )
            for _ in range(rng.randint(1, 3))
        ])
    op = TreeFilterOp(predicate, shape, lcls=(1, 2, 3))
    ctx = Context(Database())
    assert isinstance(op.execute_batch(ctx, [batch]), ColumnBatch)
    assert ctx.metrics.batch_fallbacks == 0
    assert_equivalent(op, batch, trees)


@pytest.mark.parametrize("seed", SEEDS)
def test_tree_filter_opaque_callable_falls_back(seed):
    """An opaque predicate needs real trees: one metered fallback."""
    rng = random.Random(seed * 23)
    batch, trees = batch_and_trees(rng)

    def predicate(tree):
        return len(tree.nodes_in_class(1)) > len(tree.nodes_in_class(2))

    op = TreeFilterOp(predicate, "more ones than twos", lcls=(1, 2))
    ctx = Context(Database())
    fallback = op.execute_batch(ctx, [batch])
    direct = op.execute(ctx, [trees])
    assert [t.to_xml() for t in fallback] == [t.to_xml() for t in direct]
    assert ctx.metrics.batch_fallbacks == 1


# ----------------------------------------------------------------------
# Construct: stored subtrees, so witness rows of a loaded document
# ----------------------------------------------------------------------
def auction_witnesses(db):
    """``//open_auction`` (2) with ``initial`` (3, ``-``), every
    ``bidder`` (4, ``*``), an optional ``reserve`` (5, ``?``) and its
    ``@id`` (6), as the batch and as independently materialised
    trees."""
    def apt():
        root = pattern_node("doc_root", 1)
        auction = pattern_node("open_auction", 2)
        root.add_edge(auction, "ad", "-")
        auction.add_edge(pattern_node("initial", 3), "pc", "-")
        auction.add_edge(pattern_node("bidder", 4), "pc", "*")
        auction.add_edge(pattern_node("reserve", 5), "pc", "?")
        auction.add_edge(pattern_node("@id", 6), "pc", "-")
        return APT(root, "auction.xml")

    batch = PatternMatcher(db).match_batch(apt())
    trees = PatternMatcher(db).match_batch(apt()).materialize()
    assert len(batch) == 3
    return batch, trees


def flatten(trees):
    """Trees as one batch: pre-order rows, one label per node."""
    offsets, tags, values, nids, labels, parents = [0], [], [], [], [], []
    for tree in trees:
        base = len(tags)
        stack = [(tree.root, -1)]
        while stack:
            node, parent = stack.pop()
            assert len(node.lcls) <= 1 and not node.shadowed
            position = len(tags) - base
            tags.append(node.tag)
            values.append(node.value)
            nids.append(node.nid)
            labels.append(next(iter(node.lcls), 0))
            parents.append(parent)
            stack.extend(
                (child, position) for child in reversed(node.children)
            )
        offsets.append(len(tags))
    return ColumnBatch(offsets, tags, values, nids, labels, parents)


def shape(node):
    """Everything observable below ``node``, hidden nodes included."""
    return (
        node.tag, node.value, node.shadowed, sorted(node.lcls),
        [shape(child) for child in node.children],
    )


def assert_construct_equivalent(op, db, batch, trees):
    ctx = Context(db)
    db.reset_metrics()
    columnar = op.execute_batch(ctx, [batch])
    built = ctx.metrics.trees_built
    per_tree = op.execute(ctx, [trees])
    assert ctx.metrics.trees_built == 2 * built == 2 * len(per_tree)
    assert ctx.metrics.batch_fallbacks == 0
    assert [shape(t.root) for t in columnar] == [
        shape(t.root) for t in per_tree
    ]
    for tree in list(columnar) + list(per_tree):
        assert_cached_state_exact(tree)
    return columnar


NESTED = CElement(
    "auction", 40,
    attrs=[("id", CClassRef(6, text_only=True)), ("kind", "open")],
    children=[
        CText("bids:"),
        CElement("bids", 41, children=[
            CClassRef(4), CClassRef(5, text_only=True),
        ]),
        CClassRef(3, hidden=True),
    ],
)


@pytest.mark.parametrize(
    "ctree",
    [
        pytest.param(CClassRef(4), id="splice"),
        pytest.param(CClassRef(4, hidden=True), id="splice-hidden"),
        pytest.param(CClassRef(3, text_only=True), id="text-only"),
        pytest.param(NESTED, id="nested-and-hidden"),
    ],
)
def test_construct_equivalence(tiny_db, ctree):
    batch, trees = auction_witnesses(tiny_db)
    op = ConstructOp(ctree)
    assert assert_construct_equivalent(op, tiny_db, batch, trees)


def test_construct_over_constructed_rows(tiny_db):
    """Rows holding temporary nodes: the batch form rebuilds each
    spliced slice, the per-tree form splices the nodes themselves."""
    batch, trees = auction_witnesses(tiny_db)
    inner = ConstructOp(
        CElement("box", 40, children=[
            CElement("first", 41, children=[CClassRef(3)]),
            CClassRef(4),
        ])
    )
    constructed = inner.execute(Context(tiny_db), [trees])
    rows = flatten(constructed)
    outer = ConstructOp(
        CElement("wrap", 50, children=[
            CClassRef(41), CClassRef(4), CClassRef(40, hidden=True),
        ])
    )
    assert_construct_equivalent(
        outer, tiny_db, rows, flatten(constructed).materialize()
    )
