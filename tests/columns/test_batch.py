"""Unit tests for the columnar batch currency."""

from repro.columns.batch import ColumnBatch, as_tree_sequence
from repro.model.node_id import NodeId
from repro.storage.stats import Metrics


def nid(start, end, level, doc=1):
    return NodeId(doc, start, end, level)


def two_row_batch() -> ColumnBatch:
    """Two small trees::

        a(lcl=1)            x(lcl=1)
          b(lcl=2, "v1")      y(lcl=3, "v3")
          c("v2")
    """
    return ColumnBatch(
        offsets=[0, 3, 5],
        tags=["a", "b", "c", "x", "y"],
        values=[None, "v1", "v2", None, "v3"],
        nids=[
            nid(1, 10, 1), nid(2, 3, 2), nid(4, 5, 2),
            nid(20, 25, 1), nid(21, 22, 2),
        ],
        labels=[1, 2, 0, 1, 3],
        parents=[-1, 0, 0, -1, 0],
    )


class TestColumnBatch:
    def test_len_and_row_slices(self):
        batch = two_row_batch()
        assert len(batch) == 2
        assert bool(batch)
        assert batch.offsets == [0, 3, 5]
        assert not ColumnBatch.empty()

    def test_class_positions_and_values(self):
        batch = two_row_batch()
        assert batch.class_positions(0, 1) == [0]
        assert batch.class_positions(0, 2) == [1]
        assert batch.class_positions(1, 3) == [4]
        assert batch.class_positions(0, 9) == []
        assert batch.class_values(0, 2) == ["v1"]

    def test_row_order_key_is_root_document_order(self):
        batch = two_row_batch()
        assert batch.row_order_key(0) < batch.row_order_key(1)

    def test_select_rows_reorders_and_duplicates(self):
        batch = two_row_batch()
        picked = batch.select_rows([1, 0, 1])
        assert len(picked) == 3
        assert picked.tags[:2] == ["x", "y"]
        assert picked.tags[2:5] == ["a", "b", "c"]
        assert list(picked.offsets) == [0, 2, 5, 7]
        # parents stay row-relative after the copy
        assert picked.parents[1] == 0 and picked.parents[3] == 0

    def test_select_rows_identity_shares_the_batch(self):
        batch = two_row_batch()
        assert batch.select_rows([0, 1]) is batch
        assert batch.select_rows([1, 0]) is not batch

    def test_concat_shifts_offsets(self):
        first, second = two_row_batch(), two_row_batch()
        merged = ColumnBatch.concat([first, second])
        assert len(merged) == 4
        assert list(merged.offsets) == [0, 3, 5, 8, 10]
        assert merged.tags[5:8] == ["a", "b", "c"]

    def test_canonical_node_matches_tnode_canonical(self):
        batch = two_row_batch()
        trees = batch.materialize()
        assert batch.canonical_node(0, True) == trees[0].root.canonical(True)
        assert batch.canonical_node(3, False) == \
            trees[1].root.canonical(False)

    def test_subtree_node_rebuilds_the_slice(self):
        batch = two_row_batch()
        node = batch.subtree_node(0)
        assert node.tag == "a"
        assert [child.tag for child in node.children] == ["b", "c"]
        assert node.children[0].lcls == {2}
        assert node.children[1].lcls == set()

    def test_materialize_builds_indexed_trees_once(self):
        batch = two_row_batch()
        metrics = Metrics()
        trees = batch.materialize(metrics)
        assert metrics.trees_built == 2
        assert [t.root.tag for t in trees] == ["a", "x"]
        # LC index pre-derived from the label column
        assert [n.tag for n in trees[0].nodes_in_class(2)] == ["b"]
        assert trees[0].root.lcls == {1}
        # cached: a second materialisation returns the same sequence
        assert batch.materialize(metrics) is trees
        assert metrics.trees_built == 2

    def test_as_tree_sequence_meters_fallback_once(self):
        batch = two_row_batch()
        metrics = Metrics()
        as_tree_sequence(batch, metrics, fallback=True)
        assert metrics.batch_fallbacks == 1
        # already materialised: later conversions are free, not fallbacks
        as_tree_sequence(batch, metrics, fallback=True)
        assert metrics.batch_fallbacks == 1

    def test_as_tree_sequence_passes_trees_through(self):
        trees = two_row_batch().materialize()
        assert as_tree_sequence(trees) is trees

    def test_pure_python_columns_are_plain_lists(self):
        batch = two_row_batch()
        assert isinstance(batch.labels, list)
        assert isinstance(batch.parents, list)
