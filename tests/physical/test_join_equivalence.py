"""Property tests: the skip-aware joins equal a nested-loop oracle.

The structural joins replace an independent probe per parent with one
merge-style cursor that skips monotonically across the sorted parents.
These tests pin exact equality (pairs, nesting *and* order) against a
nested-loop reference — for every parent, every child: interval
containment, plus ``level + 1`` for the parent-child axis — that shares
no code with :mod:`repro.physical.structural_join`, across random
documents, both axes, all four matching specifications, and the
precomputed-column entry points.
"""

from hypothesis import given
from hypothesis import strategies as st

from repro.physical.structural_join import (
    child_columns,
    join_for_mspec,
    nest_join,
    pair_join,
)
from repro.storage import Database
from repro.storage.stats import Metrics


def oracle_nest_join(parents, children, axis, outer=False):
    """Nested loops: one ``(parent, cluster)`` per parent, input order."""
    out = []
    for p in parents:
        cluster = [
            c
            for c in children
            if p.doc == c.doc
            and p.start < c.start
            and c.end < p.end
            and (axis == "ad" or c.level == p.level + 1)
        ]
        if cluster or outer:
            out.append((p, cluster))
    return out


def oracle_pair_join(parents, children, axis, outer=False):
    return [
        (p, c)
        for p, cluster in oracle_nest_join(parents, children, axis, outer)
        for c in (cluster or [None])
    ]


def oracle_join_for_mspec(parents, children, axis, mspec):
    nested = oracle_nest_join(parents, children, axis, mspec in "?*")
    if mspec in "+*":
        return [(p, [cluster]) for p, cluster in nested]
    return [
        (p, [[c] for c in cluster] if cluster else [[]])
        for p, cluster in nested
    ]


@st.composite
def random_document(draw):
    """A random 2-tag tree as XML text (both tags on every level)."""

    def element(depth):
        tag = draw(st.sampled_from("pq"))
        if depth >= 4:
            return f"<{tag}/>"
        kids = "".join(
            element(depth + 1) for _ in range(draw(st.integers(0, 3)))
        )
        return f"<{tag}>{kids}</{tag}>"

    return f"<r>{element(0)}</r>"


def _sides(xml):
    db = Database()
    db.load_xml("t.xml", xml)
    return db.tag_lookup("t.xml", "p"), db.tag_lookup("t.xml", "q")


@given(
    random_document(),
    st.sampled_from(["pc", "ad"]),
    st.booleans(),
)
def test_pair_join_equals_oracle(xml, axis, outer):
    parents, children = _sides(xml)
    fast = pair_join(parents, children, axis, outer=outer)
    slow = oracle_pair_join(parents, children, axis, outer=outer)
    assert fast == slow  # identical pairs in identical order


@given(
    random_document(),
    st.sampled_from(["pc", "ad"]),
    st.booleans(),
)
def test_nest_join_equals_oracle(xml, axis, outer):
    parents, children = _sides(xml)
    fast = nest_join(parents, children, axis, outer=outer)
    slow = oracle_nest_join(parents, children, axis, outer=outer)
    assert fast == slow  # identical clusters in identical order


@given(
    random_document(),
    st.sampled_from(["pc", "ad"]),
    st.sampled_from(["-", "?", "+", "*"]),
)
def test_join_for_mspec_equals_oracle(xml, axis, mspec):
    parents, children = _sides(xml)
    fast = join_for_mspec(parents, children, axis, mspec)
    slow = oracle_join_for_mspec(parents, children, axis, mspec)
    assert fast == slow


@given(
    random_document(),
    st.sampled_from(["pc", "ad"]),
    st.sampled_from(["-", "?", "+", "*"]),
)
def test_precomputed_columns_equal_oracle(xml, axis, mspec):
    """Passing the columnar probe arrays must not change the output."""
    parents, children = _sides(xml)
    starts, levels = child_columns(list(children), lambda n: n)
    expected = oracle_join_for_mspec(parents, children, axis, mspec)
    # raw postings (level-partitioned on pc) and a plain candidate list
    for side in (children, list(children)):
        columnar = join_for_mspec(
            parents,
            side,
            axis,
            mspec,
            child_starts=starts,
            child_levels=levels,
        )
        assert columnar == expected


@given(random_document(), st.sampled_from(["pc", "ad"]))
def test_one_metered_join_per_call(xml, axis):
    """The skip cursor meters one structural join however many parents."""
    parents, children = _sides(xml)
    metrics = Metrics()
    pair_join(parents, children, axis, metrics=metrics)
    assert metrics.structural_joins == 1
