"""Robustness: a mangled query fails with a ``ReproError``, never with
anything else.

Each case takes one of the 23 XMark texts, or one of the grammar
generator's (``xquery.fuzz.sample_queries``), and applies a few byte- and
token-level mutations — deletions, insertions of syntax characters and
of keywords, truncation.  The result must compile through
``QueryService.prepare`` (plain and rewritten) and run under a deadline
and a tree budget, through ``Engine.run`` and ``QueryService.execute``,
or raise a ``ReproError`` subclass.  A ``TypeError``, ``IndexError``,
``RecursionError`` or the like escaping is a bug.
"""

import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Engine
from repro.errors import ReproError
from repro.service import QueryService
from repro.xmark import QUERIES
from repro.xquery.fuzz import sample_queries

TEXTS = [QUERIES[name].text for name in sorted(QUERIES)]
PUNCTUATION = "()[]{}$/@,=<>\"'"
KEYWORDS = (
    "FOR", "LET", "IN", "WHERE", "RETURN", "ORDER BY", "ASCENDING",
    "DESCENDING", "AND", "OR", "SOME", "EVERY", "SATISFIES", "count",
    "sum", "avg", "min", "max", "contains", "document", "text()",
)
_TOKEN = re.compile(r"\w+|\s+|.", re.DOTALL)

#: One mutation: (kind, position, payload); the position is reduced
#: modulo the current text's length so every draw applies.
MUTATIONS = st.one_of(
    st.tuples(st.just("delete_char"), st.integers(0, 500), st.just("")),
    st.tuples(st.just("delete_token"), st.integers(0, 200), st.just("")),
    st.tuples(
        st.just("insert_char"),
        st.integers(0, 500),
        st.sampled_from(PUNCTUATION),
    ),
    st.tuples(
        st.just("insert_keyword"),
        st.integers(0, 200),
        st.sampled_from(KEYWORDS),
    ),
    st.tuples(st.just("truncate"), st.integers(0, 500), st.just("")),
)


def mutate(text, mutations):
    for kind, position, payload in mutations:
        if kind == "delete_token" or kind == "insert_keyword":
            tokens = _TOKEN.findall(text)
            at = position % (len(tokens) + 1)
            if kind == "delete_token":
                del tokens[at:at + 1]
            else:
                tokens.insert(at, f" {payload} ")
            text = "".join(tokens)
            continue
        at = position % (len(text) + 1)
        if kind == "delete_char":
            text = text[:at] + text[at + 1:]
        elif kind == "insert_char":
            text = text[:at] + payload + text[at:]
        else:
            text = text[:at]
    return text


MUTATED = st.builds(
    mutate,
    st.sampled_from(TEXTS),
    st.lists(MUTATIONS, min_size=1, max_size=4),
)
MUTATED_GENERATED = st.builds(
    mutate,
    st.sampled_from(sample_queries(100, seed=1)),
    st.lists(MUTATIONS, min_size=1, max_size=4),
)


@pytest.fixture(scope="module")
def engine():
    engine = Engine()
    engine.load_xmark(factor=0.001)
    return engine


@pytest.fixture(scope="module")
def service(engine):
    with QueryService(engine, cache_size=8) as service:
        yield service


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(MUTATED)
def test_prepare_raises_only_repro_errors(service, text):
    for optimize in (False, True):
        try:
            service.prepare(text, optimize=optimize)
        except ReproError:
            pass


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(MUTATED)
def test_run_raises_only_repro_errors(engine, text):
    for optimize in (False, True):
        try:
            engine.run(text, optimize=optimize, deadline=0.5, max_trees=500)
        except ReproError:
            pass


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(MUTATED_GENERATED)
def test_service_raises_only_repro_errors_on_generated_queries(
    service, text
):
    for optimize in (False, True):
        try:
            service.prepare(text, optimize=optimize)
            service.execute(
                text, optimize=optimize, deadline=0.5, max_trees=500
            )
        except ReproError:
            pass
