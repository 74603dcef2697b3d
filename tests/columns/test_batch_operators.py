"""Randomized equivalence: each batch operator form vs its per-tree twin.

Random labelled forests are flattened into :class:`ColumnBatch` rows and
pushed through ``execute_batch``; the same forests as materialised trees
go through ``execute``.  The two paths must agree on the serialised
output for every operator, seed and parameter choice — the property the
hand-written XMark sweep cannot cover (it only sees the label shapes the
query translator emits).
"""

import random

import pytest

from repro.columns.batch import ColumnBatch, use_batch
from repro.core import (
    AggregateOp,
    ClassPredicate,
    Context,
    DedupOp,
    FilterOp,
    ProjectOp,
    SortOp,
    UnionOp,
)
from repro.errors import CardinalityError
from repro.model.node_id import NodeId
from repro.storage import Database

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
    with use_batch(True):
        assert outcome(op, ctx, batch_inputs, batched=True) == \
            outcome(op, ctx, tree_inputs, batched=False)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("mode", ("E", "ALO", "EX", "FIRST"))
def test_filter_equivalence(seed, mode):
    rng = random.Random(seed * 31 + hash(mode) % 1000)
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
