"""Derived LC indexes are exact: Construct, Join and Project hand on an
index (DESIGN §10, the path-copy rule), never a stale one.

Every tree those three operators emit must carry, in each of
``_lc_index``, ``_lc_index_shadowed`` and ``_saw_shadowed`` that is set,
exactly what a fresh ``XTree._build_index`` computes.  The operators are
wrapped for the duration of one test (no runtime switch): the wrapper
checks every emitted tree and counts the derived ones, so the sweep
cannot pass by deriving nothing.
"""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings

from repro import Engine
from repro.core import ConstructOp, JoinOp, ProjectOp
from repro.model import TreeSequence
from repro.xmark import FIGURE15_ORDER, QUERIES
from tests.conftest import assert_cached_state_exact
from tests.integration.test_random_data import QUERIES as RANDOM_QUERIES
from tests.integration.test_random_data import auction_documents

CHECKED = (
    (ConstructOp, "execute"),
    (ConstructOp, "execute_batch"),
    (JoinOp, "execute"),
    (ProjectOp, "execute"),
)


@pytest.fixture
def derived(monkeypatch) -> Counter:
    """Wrap the three operators; count the trees with a derived index."""
    seen: Counter = Counter()

    def wrap(cls, method):
        original = getattr(cls, method)

        def checked(self, ctx, inputs):
            out = original(self, ctx, inputs)
            if isinstance(out, TreeSequence):
                for tree in out:
                    assert_cached_state_exact(tree)
                    if tree._lc_index is not None:
                        seen[cls.name] += 1
            return out

        monkeypatch.setattr(cls, method, checked)

    for cls, method in CHECKED:
        wrap(cls, method)
    return seen


def _run_all(engine: Engine, queries, **options) -> None:
    for text in queries:
        engine.run(text, **options)


def test_xmark_queries(xmark_engine, derived):
    texts = [QUERIES[name].text for name in FIGURE15_ORDER]
    _run_all(xmark_engine, texts)
    _run_all(xmark_engine, texts, optimize=True)
    for engine in ("gtp", "tax"):
        for text in texts:
            xmark_engine.run(text, engine=engine)
    assert set(derived) == {"Construct", "Join", "Project"}
    assert min(derived.values()) > 100


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[
        HealthCheck.too_slow,
        HealthCheck.function_scoped_fixture,
    ],
)
@given(auction_documents())
def test_random_documents(derived, xml):
    engine = Engine()
    engine.load_xml("a.xml", xml)
    _run_all(engine, RANDOM_QUERIES)
    _run_all(engine, RANDOM_QUERIES, optimize=True)
