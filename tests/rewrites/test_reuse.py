"""Identical pattern shapes on opposite sides of one Join answer alike
plain and under ``-O``.

Each text below has two leaf Selects with the same pattern shape on
opposite sides of one Join.  Sharing them would rename one side's
classes to the other's, so every joined tree would bind a singleton
class twice (the wrong answers a pattern-sharing rewrite once gave
here).  No rewrite shares a Select, and ``-O`` must answer exactly what
the plain plan answers.
"""

import pytest

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
def test_optimized_answers_equal_plain(xmark_engine, text):
    plain = xmark_engine.run(text)
    optimized = xmark_engine.run(text, optimize=True)
    assert len(plain) > 0
    assert canonical_sorted(optimized) == canonical_sorted(plain)

