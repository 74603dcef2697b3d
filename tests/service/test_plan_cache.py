"""Unit tests for the prepared-plan LRU cache."""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Engine
from repro.errors import XQuerySyntaxError
from repro.service import (
    PlanCache,
    PlanCacheKey,
    QueryService,
    normalize_query,
)
from repro.storage.stats import Metrics
from repro.xmark import FIGURE15_ORDER, QUERIES
from repro.xquery.parser import parse_query
from repro.xquery.translator import translate_query

QUERY = (
    'FOR $p IN document("auction.xml")//person '
    "RETURN <o>{$p/name/text()}</o>"
)


def _key(text: str, engine: str = "tlc", optimize: bool = False):
    return PlanCacheKey(normalize_query(text), engine, optimize)


class TestNormalizeQuery:
    def test_collapses_whitespace_runs(self):
        messy = "FOR  $p\n  IN\tdocument('d')//person\n RETURN $p"
        assert normalize_query(messy) == (
            "FOR $p IN document('d')//person RETURN $p"
        )

    def test_strips_ends(self):
        assert normalize_query("  a b  ") == "a b"

    def test_reformatted_copies_share_a_key(self):
        assert _key(QUERY) == _key("  " + QUERY.replace(" RETURN", "\nRETURN"))

    def test_different_configs_get_different_keys(self):
        assert _key(QUERY) != _key(QUERY, optimize=True)
        assert _key(QUERY) != _key(QUERY, engine="gtp")

    def test_keeps_whitespace_in_literals_and_constructor_text(self):
        spaced = 'FOR $n IN doc("d")//n WHERE $n = "a  b" RETURN <o>x  y</o>'
        assert normalize_query(spaced) == spaced

    def test_collapses_around_tags_and_enclosed_expressions(self):
        messy = "FOR $p IN doc('d')//p RETURN <o>\n  <a>  {$p}\n  </a>\n</o>"
        assert normalize_query(messy) == (
            "FOR $p IN doc('d')//p RETURN <o> <a> {$p} </a> </o>"
        )


class TestPlanCache:
    def test_miss_then_hit(self):
        cache = PlanCache(capacity=4)
        key = _key(QUERY)
        translation = translate_query(QUERY)
        assert cache.get(key, generation=1) is None
        cache.put(key, 1, translation)
        assert cache.get(key, generation=1) is translation
        stats = cache.stats()
        assert (stats.hits, stats.misses) == (1, 1)
        assert stats.hit_rate == 0.5

    def test_get_or_compile_compiles_once(self):
        cache = PlanCache(capacity=4)
        calls = []

        def compile_fn():
            calls.append(1)
            return translate_query(QUERY)

        first, hit1 = cache.get_or_compile(_key(QUERY), 1, compile_fn)
        second, hit2 = cache.get_or_compile(_key(QUERY), 1, compile_fn)
        assert (hit1, hit2) == (False, True)
        assert second is first
        assert len(calls) == 1

    def test_lru_eviction_order(self):
        cache = PlanCache(capacity=2)
        t = translate_query(QUERY)
        a, b, c = (_key(QUERY + f" (: {i} :)") for i in "abc")
        cache.put(a, 1, t)
        cache.put(b, 1, t)
        assert cache.get(a, 1) is not None  # a becomes most-recent
        cache.put(c, 1, t)  # evicts b, the LRU entry
        assert b not in cache
        assert a in cache and c in cache
        assert cache.stats().evictions == 1

    def test_generation_invalidation(self):
        cache = PlanCache(capacity=4)
        key = _key(QUERY)
        cache.put(key, 1, translate_query(QUERY))
        # a document reload bumped the generation: the entry is stale
        assert cache.get(key, generation=2) is None
        assert key not in cache
        stats = cache.stats()
        assert stats.evictions == 1
        assert stats.misses == 1

    def test_metrics_mirroring(self):
        metrics = Metrics()
        cache = PlanCache(capacity=1, metrics=metrics)
        key = _key(QUERY)
        t = translate_query(QUERY)
        cache.get(key, 1)  # miss
        cache.put(key, 1, t)
        cache.get(key, 1)  # hit
        cache.put(_key(QUERY + " (: other :)"), 1, t)  # evicts
        assert metrics.plan_cache_hits == 1
        assert metrics.plan_cache_misses == 1
        assert metrics.plan_cache_evictions == 1

    def test_clear_keeps_counts(self):
        cache = PlanCache(capacity=4)
        cache.put(_key(QUERY), 1, translate_query(QUERY))
        cache.get(_key(QUERY), 1)
        cache.clear()
        assert len(cache) == 0
        assert cache.stats().hits == 1

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            PlanCache(capacity=0)


#: two <n> elements whose texts differ only in a whitespace run
SPACED_DOC = "<r><p><n>a  b</n></p><p><n>a b</n></p></r>"
SPACED_FILTER = (
    'FOR $n IN document("auction.xml")//n WHERE $n = "{}" RETURN $n'
)
SPACED_CONSTRUCTOR = (
    'FOR $n IN document("auction.xml")//n RETURN <o>x{}y {{$n/text()}}</o>'
)


@pytest.mark.parametrize(
    "template, first, second",
    [
        (SPACED_FILTER, "a b", "a  b"),
        (SPACED_CONSTRUCTOR, " ", "   "),
    ],
    ids=["string-literal", "constructor-text"],
)
def test_a_cached_plan_never_answers_a_text_that_differs_in_meaning(
    template, first, second
):
    """Texts differing only inside a literal or constructor text are
    different queries: the second must not get the first one's plan."""
    engine = Engine()
    engine.load_xml("auction.xml", SPACED_DOC)
    second_text = template.format(second)
    with QueryService(engine, threads=1) as svc:
        svc.execute(template.format(first))
        served = [tree.to_xml() for tree in svc.execute(second_text)]
    assert served == [tree.to_xml() for tree in engine.run(second_text)]


XMARK_TEXTS = [QUERIES[name].text for name in FIGURE15_ORDER]
RUNS = st.sampled_from([" ", "  ", "\n", "\t", "\n    ", " \r\n  "])
#: constructor text: whitespace, apostrophes, brackets; no ``<{$``
TEXT = st.text(alphabet="ab '\"()>}/\t\n", max_size=8)
LITERAL = st.text(alphabet="ab <{$'\t\n", max_size=8)


def _ast(text):
    try:
        return parse_query(text)
    except XQuerySyntaxError:
        return "syntax error"


def _splice(draw, text, pattern, make):
    """Replace one match of ``pattern`` in ``text`` by ``make(match)``."""
    spots = list(re.finditer(pattern, text))
    if not spots or not draw(st.booleans()):
        return text
    spot = draw(st.sampled_from(spots))
    return text[: spot.start()] + make(spot.group()) + text[spot.end():]


@st.composite
def injected_texts(draw):
    """An XMark text with a literal's content redrawn and, after a start
    tag, some text, an enclosed FLWOR with its own literal and more
    text."""
    text = draw(st.sampled_from(XMARK_TEXTS))
    text = _splice(draw, text, r'"[^"]*"', lambda _: f'"{draw(LITERAL)}"')
    nested = (
        '{FOR $z IN document("auction.xml")//z '
        f'WHERE $z = "{draw(LITERAL)}" RETURN $z}}'
    )
    return _splice(
        draw,
        text,
        r"<[A-Za-z_][\w.\-]*>",
        lambda tag: tag + draw(TEXT) + nested + draw(TEXT),
    )


@settings(max_examples=200, deadline=None)
@given(injected_texts(), RUNS)
def test_equal_keys_mean_equal_asts(text, run):
    """Redraw each whitespace run in turn — including runs inside
    literals and constructor text: a copy that keeps the key parses to
    the same AST (or fails the same way)."""
    key, ast = normalize_query(text), _ast(text)
    pieces = re.split(r"([ \t\r\n]+)", text)
    for index in range(1, len(pieces), 2):
        other = "".join(pieces[:index] + [run] + pieces[index + 1:])
        if normalize_query(other) == key:
            assert _ast(other) == ast, other
