"""Unit and property tests for the value-join primitives."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.model.value import atomize, compare, sort_key
from repro.physical.value_join import (
    merge_equi_join,
    nest_merge,
    theta_clusters,
    theta_join,
)
from repro.storage.stats import Metrics


class TestMergeEquiJoin:
    def test_basic_equality(self):
        left = [("a", 1), ("b", 2)]
        right = [("b", 10), ("c", 11), ("b", 12)]
        pairs = merge_equi_join(
            left, right, lambda x: x[0], lambda x: x[0]
        )
        assert sorted(p[1][1] for p in pairs) == [10, 12]

    def test_duplicates_cross_product(self):
        left = [("k", i) for i in range(3)]
        right = [("k", i) for i in range(4)]
        pairs = merge_equi_join(
            left, right, lambda x: x[0], lambda x: x[0]
        )
        assert len(pairs) == 12

    def test_numeric_string_coercion(self):
        left = [("07", "l")]
        right = [("7.0", "r")]
        pairs = merge_equi_join(
            left, right, lambda x: x[0], lambda x: x[0]
        )
        assert len(pairs) == 1

    def test_empty_inputs(self):
        assert merge_equi_join([], [("a", 1)], lambda x: x[0],
                               lambda x: x[0]) == []

    def test_metrics_count_sorts(self):
        metrics = Metrics()
        merge_equi_join(
            [("a", 1)], [("a", 2)], lambda x: x[0], lambda x: x[0],
            metrics=metrics,
        )
        assert metrics.value_joins == 1
        assert metrics.sort_ops == 2


class TestMixedKeyJoin:
    """Numeric and string keys in one input: the ``sort_key`` contract.

    ``merge_equi_join`` sorts both sides by
    :func:`repro.model.value.sort_key`, whose total order is
    ``None < numbers < strings``; mixed inputs must neither raise (the
    Python 3 ``float < str`` TypeError) nor match across categories.
    """

    def _join(self, left_vals, right_vals):
        return merge_equi_join(
            list(enumerate(left_vals)),
            list(enumerate(right_vals)),
            lambda x: x[1],
            lambda x: x[1],
        )

    def test_mixed_inputs_do_not_raise(self):
        pairs = self._join(
            ["10", "apple", 7, "7"], ["banana", "10", 7.0, "apple"]
        )
        matches = {(l[1], r[1]) for l, r in pairs}
        assert matches == {
            ("10", "10"), ("apple", "apple"), (7, 7.0), ("7", 7.0),
        }

    def test_no_cross_category_matches(self):
        # the string "apple" never equals any number, and numeric
        # strings only match numerically-equal keys
        assert self._join(["apple"], [7]) == []
        assert self._join(["10"], ["10.5"]) == []

    def test_numeric_strings_collapse(self):
        pairs = self._join(["07"], [7, "7.0", " 7 "])
        assert len(pairs) == 3

    def test_agrees_with_compare_on_mixed_inputs(self):
        left = ["9", "10", "apple", 3.5, "3.50"]
        right = ["apple", "applet", 9, "10.0", "3.5"]
        fast = sorted(
            (l[0], r[0]) for l, r in self._join(left, right)
        )
        naive = sorted(
            (i, j)
            for i, lv in enumerate(left)
            for j, rv in enumerate(right)
            if compare(lv, "=", rv)
        )
        assert fast == naive

    def test_sort_key_total_order(self):
        # None < numbers < strings; within numbers numeric order, within
        # strings lexicographic — sorting mixed content never raises
        values = ["b", 2, None, "10", "a", 1.5, None, "09"]
        ordered = sorted(values, key=sort_key)
        assert ordered[:2] == [None, None]
        assert ordered[2:5] == [1.5, 2, "09"] or ordered[2:5] == [1.5, 2, "10"]
        assert sort_key("09") == sort_key(9)
        assert sort_key(None) < sort_key(-1e9) < sort_key("")

    def test_sort_key_is_deterministic_under_shuffle(self):
        # ties (1 vs "1") keep input order under the stable sort, so the
        # deterministic object is the key sequence, not the value list
        values = ["x", 1, "02", None, 2.0, "y", "1"]
        baseline = [sort_key(v) for v in sorted(values, key=sort_key)]
        shuffled = [
            sort_key(v) for v in sorted(reversed(values), key=sort_key)
        ]
        assert shuffled == baseline


class TestThetaJoin:
    def test_inequality(self):
        left = [(5, "l5"), (10, "l10")]
        right = [(7, "r7"), (20, "r20")]
        pairs = theta_join(
            left, right, ">", lambda x: x[0], lambda x: x[0]
        )
        assert {(l[0], r[0]) for l, r in pairs} == {(10, 7)}

    def test_equality_uses_merge(self):
        metrics = Metrics()
        theta_join(
            [(1, "a")], [(1, "b")], "=",
            lambda x: x[0], lambda x: x[0], metrics=metrics,
        )
        assert metrics.sort_ops == 2  # sort-merge path taken

    def test_none_values_never_match(self):
        pairs = theta_join(
            [(None, "l")], [(None, "r")], ">",
            lambda x: x[0], lambda x: x[0],
        )
        assert pairs == []


class TestNestMerge:
    def test_clusters_preserve_left_order(self):
        l1, l2, l3 = "l1", "l2", "l3"
        clusters = nest_merge([(l1, ["b"]), (l2, ["a", "c"])], [l1, l2, l3])
        assert clusters == [(l1, ["b"]), (l2, ["a", "c"])]

    def test_outer_includes_unmatched(self):
        clusters = nest_merge([], ["x"], outer=True)
        assert clusters == [("x", [])]

    def test_inner_drops_unmatched(self):
        clusters = nest_merge([], ["x"], outer=False)
        assert clusters == []

    def test_empty_cluster_counts_as_unmatched(self):
        # a secondary predicate can empty a cluster the join produced
        assert nest_merge([("x", [])], ["x"], outer=False) == []
        assert nest_merge([("x", [])], ["w", "x"], outer=True) == [
            ("w", []), ("x", []),
        ]

    def test_counts_one_nest_join(self):
        metrics = Metrics()
        nest_merge([("x", ["r"])], ["x"], metrics=metrics)
        assert metrics.nest_joins == 1


# ----------------------------------------------------------------------
# property: theta join == naive nested loop, for every operator
# ----------------------------------------------------------------------
#: Untyped content as documents and constructors produce it: numbers,
#: numeric text in several spellings, the texts float() reads as NaN or
#: infinity, empty and plain strings, and NULL.
_values = st.one_of(
    st.integers(-5, 5),
    st.integers(-5, 5).map(str),
    st.floats(-6, 6, allow_nan=False).map(lambda f: round(f, 1)),
    st.sampled_from(
        ["007", "7.0", " 7 ", "-0", "0.0", "1e1", "nan", "NaN", "inf",
         "-inf", "", " ", "a", "b", "gold", "10a", "7"]
    ),
    st.none(),
)
OPS = ["=", "!=", "<", "<=", ">", ">=", "contains"]


def _naive(left, right, op):
    return [
        (l[0], r[0])
        for l in left
        for r in right
        if compare(atomize(l[1]), op, atomize(r[1]))
    ]


@given(
    st.lists(_values, max_size=10),
    st.lists(_values, max_size=10),
    st.sampled_from(OPS),
)
def test_theta_join_matches_naive(left_vals, right_vals, op):
    """The exact pair *sequence* of the nested loop: nest-join clusters
    are built from it, so order matters, not just the set.  Equality is
    the merge, in join-value order; per left item its matches still
    come in right order, which a stable sort by left position shows."""
    left = list(enumerate(left_vals))
    right = list(enumerate(right_vals))
    pairs = [
        (l[0], r[0])
        for l, r in theta_join(left, right, op, lambda x: x[1], lambda x: x[1])
    ]
    if op == "=":
        pairs.sort(key=lambda pair: pair[0])
    assert pairs == _naive(left, right, op)


@given(
    st.lists(_values, max_size=10),
    st.lists(_values, max_size=10),
    st.sampled_from(OPS),
)
def test_theta_clusters_match_naive(left_vals, right_vals, op):
    left = list(enumerate(left_vals))
    right = list(enumerate(right_vals))
    clusters = theta_clusters(
        left, right, op, lambda x: x[1], lambda x: x[1]
    )
    assert len(clusters) == len(left)
    flat = [
        (l[0], r[0]) for l, cluster in zip(left, clusters) for r in cluster
    ]
    assert flat == _naive(left, right, op)


@pytest.mark.parametrize("op", OPS)
def test_clusters_and_pairs_count_the_same_work(op):
    left = [(v,) for v in ("3", "a", None, "7.0")]
    right = [(v,) for v in ("4", "b", "3", None)]
    by_pairs, by_clusters = Metrics(), Metrics()
    theta_join(left, right, op, lambda x: x[0], lambda x: x[0], by_pairs)
    theta_clusters(
        left, right, op, lambda x: x[0], lambda x: x[0], by_clusters
    )
    assert by_pairs.value_joins == by_clusters.value_joins == 1
    assert by_pairs.sort_ops == by_clusters.sort_ops == (
        2 if op == "=" else 0
    )
