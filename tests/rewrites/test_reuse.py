"""Pattern-tree reuse must not share Selects whose outputs meet at a Join.

Both texts below have two leaf Selects with the same pattern shape on
opposite sides of one Join.  Sharing them renames one side's classes to
the other's, so every joined tree binds a singleton class twice and the
rewritten plan raises ``CardinalityError``.  Reuse must leave such pairs
apart, and ``-O`` must then answer exactly what the plain plan answers.
A sub-plan two consumers read is scanned once.
"""

import pytest

from repro.core import UnionOp
from repro.rewrites import optimize, share_common_selects
from repro.xquery import translate_query
from tests.conftest import canonical_sorted


def nested_return_flwors(levels):
    """``levels`` correlated FLWORs nested in RETURN below an outer FOR."""
    text = f"$x{levels}/name"
    for i in range(levels, 0, -1):
        text = (
            f'{{FOR $x{i} IN document("auction.xml")//person '
            f"WHERE $x{i}/@id = $x{i - 1}/@id RETURN <r>{text}</r>}}"
        )
    return f'FOR $x0 IN document("auction.xml")//person RETURN <r>{text}</r>'


#: correlated FLWORs nested three deep in RETURN: the two middle blocks
#: match the same person pattern and meet at the outer block's Join
NESTED_RETURN_FLWORS = nested_return_flwors(3)

#: a cartesian product of one pattern with itself
SELF_PRODUCT = (
    'FOR $a IN document("auction.xml")//person '
    'FOR $b IN document("auction.xml")//person '
    "RETURN <x>{$a/name/text()}</x>"
)


#: the wrong answer appeared at three levels; its neighbours run too
TEXTS = pytest.mark.parametrize(
    "text",
    [NESTED_RETURN_FLWORS, SELF_PRODUCT]
    + [nested_return_flwors(levels) for levels in (1, 2, 4)],
    ids=["nested", "product", "nested1", "nested2", "nested4"],
)


@TEXTS
def test_selects_meeting_at_a_join_are_not_shared(text):
    _, log = optimize(translate_query(text).plan)
    assert log.shared_selects == 0


@TEXTS
def test_optimized_answers_equal_plain(xmark_engine, text):
    plain = xmark_engine.run(text)
    optimized = xmark_engine.run(text, optimize=True)
    assert len(plain) > 0
    assert canonical_sorted(optimized) == canonical_sorted(plain)


def test_a_sub_plan_read_twice_is_scanned_once(union_plan):
    """The Union's two identical Selects are one duplicate, however
    many consumers read the Union."""
    assert share_common_selects(UnionOp([union_plan, union_plan])) == 1
