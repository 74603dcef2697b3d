"""docs/PLANNING.md cannot drift: every example runs, claims stay true.

Same convention as the operators reference: the first fenced ``python``
block is the shared setup (engine + statistics + the walkthrough
query), each later block executes on a fresh copy of the setup
namespace.  The page's central claims — the planner reorders the
walkthrough query's join site, the decision record round-trips at
schema version 1, planned results stay byte-identical — are assertions
inside the documented examples themselves, so a planner change that
breaks the prose fails here.
"""

import re
from pathlib import Path

import pytest

DOC = Path(__file__).resolve().parents[2] / "docs" / "PLANNING.md"

_BLOCK = re.compile(r"```python\n(.*?)```", re.DOTALL)


def _blocks():
    return _BLOCK.findall(DOC.read_text())


def test_setup_block_comes_first_and_defines_the_engine():
    blocks = _blocks()
    assert len(blocks) >= 2, "expected a setup block plus examples"
    namespace = {}
    exec(compile(blocks[0], str(DOC), "exec"), namespace)  # noqa: S102
    assert "engine" in namespace and "QUERY" in namespace
    assert "stats" in namespace


@pytest.mark.parametrize(
    "index", range(1, len(_BLOCK.findall(DOC.read_text())))
)
def test_example_block_executes(index):
    blocks = _blocks()
    namespace = {}
    exec(compile(blocks[0], str(DOC), "exec"), namespace)  # noqa: S102
    exec(  # noqa: S102 - executing our own documentation is the point
        compile(blocks[index], f"{DOC}#block{index}", "exec"), namespace
    )


def test_the_page_documents_every_choice_kind():
    """The decision-kinds table stays in sync with the code."""
    from repro.planner import CHOICE_KINDS

    text = DOC.read_text()
    for kind in CHOICE_KINDS:
        assert f"`{kind}`" in text, (
            f"docs/PLANNING.md does not document choice kind {kind!r}"
        )


def test_the_documented_constants_match_the_code():
    """Every constant the prose quotes carries its current value."""
    from repro import planner

    text = DOC.read_text()
    quoted = {
        "PREDICATE_SELECTIVITY": "0.25",
        "MAX_EXHAUSTIVE_EDGES": "5",
        "BATCH_SAVING_PER_ROW": "0.15",
        "BATCH_CONVERT_PER_ROW": "0.5",
        "TREE_VETO_MARGIN": "2.0",
        "FEEDBACK_CAPACITY": "128",
    }
    for name, value in quoted.items():
        assert float(value) == float(getattr(planner, name)), (
            f"{name} drifted from the value docs/PLANNING.md quotes"
        )
        assert name in text and value in text, (
            f"docs/PLANNING.md no longer quotes {name} = {value}"
        )
