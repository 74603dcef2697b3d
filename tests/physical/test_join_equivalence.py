"""Property tests: the skip-aware joins equal a nested-loop oracle.

The structural joins replace an independent probe per parent with one
merge-style cursor that skips monotonically across the sorted parents.
These tests pin exact equality (pairs, nesting *and* order) against a
nested-loop reference — for every parent, every child: interval
containment, plus ``level + 1`` for the parent-child axis — that shares
no code with :mod:`repro.physical.structural_join`, across random
documents, both axes, all four matching specifications, and the
precomputed-column entry points.  The position-yielding probe under
them is pinned the same way, with and without the flat-parent skip.
"""

from hypothesis import given
from hypothesis import strategies as st

from repro.physical.structural_join import (
    child_columns,
    join_for_mspec,
    nest_join,
    pair_join,
    probe,
)
from repro.storage import Database
from repro.storage.postings import Postings
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


# ----------------------------------------------------------------------
# the probe itself: positions, ranges and the flat-parent skip
# ----------------------------------------------------------------------
def oracle_probe(parents, children, axis, outer):
    """Nested loops over positions: what :func:`probe` must yield."""
    out = []
    for position, p in enumerate(parents):
        matched = [
            index
            for index, c in enumerate(children)
            if p.doc == c.doc
            and p.start < c.start
            and c.end < p.end
            and (axis == "ad" or c.level == p.level + 1)
        ]
        if matched or outer:
            out.append((position, matched))
    return out


def _probed(parents, children, axis, outer, skipping):
    starts, levels = child_columns(list(children))
    flat_starts = None
    if skipping:
        flat_starts = [(n.doc, n.start) for n in parents]
    out = []
    for position, matched in probe(
        parents, starts, levels, axis, outer, flat_starts
    ):
        # descendants are one range (consumers slice columns with it);
        # children are one when nothing deeper sits between them
        if axis == "ad":
            assert type(matched) is range
        out.append((position, list(matched)))
    return out


def _flat_subset(ids):
    """Drop every id another one contains (what is left is flat)."""
    return [
        n for n in ids if not any(m.contains(n) for m in ids)
    ]


@given(
    random_document(),
    st.sampled_from(["pc", "ad"]),
    st.booleans(),
    st.sampled_from(["nested", "flat", "unsorted", "none", "subset"]),
    st.data(),
)
def test_probe_equals_oracle(xml, axis, outer, shape, data):
    """Flat and nested parents, unsorted parents (the cursor resets),
    empty sides, pruned parent lists — with and without the skip."""
    p_ids, q_ids = (list(side) for side in _sides(xml))
    parents, children, skipping = p_ids, q_ids, False
    if shape == "flat":
        parents, skipping = _flat_subset(p_ids), True
    elif shape == "unsorted":
        parents = data.draw(st.permutations(p_ids))
    elif shape == "none":
        parents, children = data.draw(
            st.sampled_from([([], q_ids), (p_ids, []), ([], [])])
        )
        skipping = not parents
    elif shape == "subset":
        parents = [n for n in _flat_subset(p_ids) if data.draw(st.booleans())]
        children = [n for n in q_ids if data.draw(st.booleans())]
        skipping = True
    if skipping:
        assert Postings(parents).flat
    assert _probed(parents, children, axis, outer, skipping) == oracle_probe(
        parents, children, axis, outer
    )


@given(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6),
       st.sampled_from(["pc", "ad"]), st.booleans())
def test_children_before_between_and_after_flat_parents(
    before, inside, after, axis, outer
):
    """Childless stretches at either end and dangling children between
    parents: the jump lands on the one parent that can hold the next
    child, or ends the loop when the children are exhausted."""
    xml = (
        "<r>" + "<q/>" * before
        + "<p/>" * 3 + "<p>" + "<q/>" * inside + "</p>" + "<q/>" + "<p/>" * 4
        + "<p><q/></p>" + "<p/>" * 2 + "<q/>" * after + "</r>"
    )
    parents, children = _sides(xml)
    assert parents.flat
    for skipping in (False, True):
        assert _probed(
            list(parents), children, axis, outer, skipping
        ) == oracle_probe(parents, children, axis, outer)
    starts, levels = child_columns(children)
    assert all(
        type(matched) is range
        for _, matched in probe(parents, starts, levels, "pc")
    )
    # the public joins pick the skip up from the postings' own flag
    assert nest_join(parents, children, axis, outer=outer) == (
        oracle_nest_join(parents, children, axis, outer=outer)
    )
    assert pair_join(parents, children, axis, outer=outer) == (
        oracle_pair_join(parents, children, axis, outer=outer)
    )


def test_flat_parents_visit_only_what_can_match():
    """1 000 flat parents, one child under the last: the probe reads two
    parents (the first, then the jump target), not a thousand."""
    xml = "<r>" + "<p/>" * 999 + "<p><q/></p></r>"
    parents, children = _sides(xml)

    class Counting(list):
        reads = 0

        def __getitem__(self, index):
            Counting.reads += 1
            return list.__getitem__(self, index)

    starts, levels = child_columns(list(children))
    counted = Counting(parents)
    found = list(
        probe(counted, starts, levels, "pc", False, parents.starts)
    )
    assert found == [(999, range(0, 1))]
    assert Counting.reads == 2
    Counting.reads = 0
    assert list(probe(counted, starts, levels, "pc")) == found
    assert Counting.reads == 1000
