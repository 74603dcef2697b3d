"""Hostile nesting: past ``MAX_NESTING`` levels, or ``MAX_NESTING``
steps in one path, the parser raises ``XQuerySyntaxError`` — never
``RecursionError`` — and at the limit a query still translates, lints,
evaluates and serialises."""

import pytest

from repro import Engine
from repro.analysis import analyze
from repro.errors import XQuerySyntaxError
from repro.xmark import QUERIES
from repro.xquery import parse_query
from repro.xquery.fuzz import sample_queries
from repro.xquery.parser import MAX_NESTING

DOC = 'document("auction.xml")'
HEAD = f"FOR $p IN {DOC}//person "


def return_parens(depth):
    k = depth - 1  # the FLWOR is one level
    return HEAD + "RETURN " + "(" * k + "$p/name" + ")" * k


def return_braces(depth):
    k = depth - 1
    return HEAD + "RETURN " + "{" * k + "$p/name" + "}" * k


def where_parens(depth):
    k = depth - 1
    return (
        HEAD + "WHERE " + "(" * k + "$p//age > 25" + ")" * k
        + " RETURN $p/name"
    )


def constructors(depth):
    k = depth - 1
    return HEAD + "RETURN " + "<a>" * k + "$p/name" + "</a>" * k


def binding_flwors(depth):
    """``depth`` FLWORs, each the FOR source of the one outside it."""
    last = depth - 1
    text = f"FOR $y{last} IN {DOC}//person RETURN $y{last}"
    for i in range(last - 1, -1, -1):
        text = f"FOR $y{i} IN ({text}) RETURN $y{i}"
    return text


def return_flwors(depth):
    """Correlated FLWORs nested in RETURN, three levels each (the
    constructor, its braces and the FLWOR), topped up with braces."""
    levels, extra = divmod(depth - 2, 3)
    text = "{" * extra + f"$x{levels}/name" + "}" * extra
    for i in range(levels, 0, -1):
        text = (
            f"FOR $x{i} IN {DOC}//person WHERE $x{i}/@id = $x{i - 1}/@id "
            f"RETURN <r>{text}</r>"
        )
        text = "{" + text + "}"
    return f"FOR $x0 IN {DOC}//person RETURN <r>{text}</r>"


CONSTRUCTS = [
    return_parens,
    return_braces,
    where_parens,
    constructors,
    binding_flwors,
    return_flwors,
]
IDS = [build.__name__ for build in CONSTRUCTS]


@pytest.fixture(scope="module")
def service(xmark_engine):
    svc = xmark_engine.service(threads=1)
    yield svc
    svc.close()


@pytest.mark.parametrize("build", CONSTRUCTS, ids=IDS)
def test_parser_accepts_the_limit(build):
    parse_query(build(MAX_NESTING))


@pytest.mark.parametrize("build", CONSTRUCTS, ids=IDS)
def test_parser_rejects_one_past_the_limit(build):
    with pytest.raises(XQuerySyntaxError, match="nested more than"):
        parse_query(build(MAX_NESTING + 1))


@pytest.mark.parametrize("build", CONSTRUCTS, ids=IDS)
def test_prepare_at_and_past_the_limit(service, build):
    assert service.prepare(build(MAX_NESTING)).translation is not None
    with pytest.raises(XQuerySyntaxError, match="nested more than"):
        service.prepare(build(MAX_NESTING + 1))


@pytest.mark.parametrize(
    "build, optimize",
    [(build, optimize) for optimize in (False, True) for build in CONSTRUCTS],
    ids=IDS + [f"{name}-optimized" for name in IDS],
)
def test_every_stage_runs_at_the_limit(xmark_engine, build, optimize):
    text = build(MAX_NESTING)
    analyze(xmark_engine.plan(text, optimize=optimize).plan)
    result = xmark_engine.run(text, optimize=optimize)
    assert isinstance(result.to_xml(), str)


def test_binding_flwors_at_the_limit_cross_to_a_worker(xmark_engine):
    """A process-mode worker receives the plan pickled: a hundred
    nested FLWORs (some 300 operators deep) must cross and run there,
    byte for byte as in thread mode."""
    text = binding_flwors(MAX_NESTING)
    with xmark_engine.service(threads=1) as svc:
        expected = svc.execute(text).to_xml()
    with xmark_engine.service(threads=1, mode="process") as svc:
        assert svc.execute(text).to_xml() == expected


@pytest.mark.parametrize(
    "text",
    [
        HEAD + "RETURN " + "(" * 2000,
        HEAD + "RETURN " + "<a>" * 2000,
        HEAD + "WHERE " + "(" * 2000,
        "FOR $y IN (" * 2000,
    ],
    ids=["parens", "constructors", "where", "bindings"],
)
def test_deep_hostile_input_is_a_syntax_error(service, text):
    with pytest.raises(XQuerySyntaxError, match="nested more than"):
        parse_query(text)
    with pytest.raises(XQuerySyntaxError, match="nested more than"):
        service.prepare(text)


def test_every_compile_cold_text_still_prepares(service):
    """The layered benchmark's ``compile_cold`` corpus: the XMark queries
    plus 300 fuzzed texts per document variant of its default seed."""
    texts = [query.text for query in QUERIES.values()]
    for seed in range(20040612, 20040616):
        texts += sample_queries(300, seed)
    for text in texts:
        service.prepare(text, optimize=True)


# ---------------------------------------------------------------------
# long paths: each step nests one pattern node under the last
# ---------------------------------------------------------------------
DEEP = 100  # levels of the deep document


def long_path(steps):
    return 'for $x in document("d.xml")' + "/a" * steps + " return $x"


@pytest.fixture(scope="module")
def deep_engine():
    engine = Engine()
    engine.load_xml("d.xml", "<a>" * DEEP + "</a>" * DEEP)
    return engine


@pytest.mark.parametrize("steps", [MAX_NESTING + 1, 600, 3000])
def test_a_path_past_the_limit_is_a_syntax_error(deep_engine, steps):
    with pytest.raises(XQuerySyntaxError, match="path longer than"):
        parse_query(long_path(steps))
    svc = deep_engine.service(threads=1)
    try:
        with pytest.raises(XQuerySyntaxError, match="path longer than"):
            svc.execute(long_path(steps))
    finally:
        svc.close()


@pytest.mark.parametrize(
    "engine, optimize",
    [("tlc", False), ("tlc", True), ("nav", False), ("tax", False),
     ("gtp", False)],
    ids=["tlc", "tlc-O", "nav", "tax", "gtp"],
)
def test_a_path_at_the_limit_runs_everywhere(deep_engine, engine, optimize):
    text = long_path(MAX_NESTING)
    assert len(deep_engine.run(text, engine=engine, optimize=optimize)) == 1
    if engine == "tlc":
        analysis = analyze(deep_engine.plan(text, "tlc", optimize).plan)
        assert analysis.diagnostics == [], analysis.render()


# ---------------------------------------------------------------------
# chained paths: variables graft every path onto one pattern
# ---------------------------------------------------------------------
def chained(*steps):
    """One FOR clause per entry, each ``steps[i]`` steps below the last
    clause's variable."""
    text = 'for $v0 in document("d.xml")' + "/a" * steps[0]
    for i, count in enumerate(steps[1:], 1):
        text += f" for $v{i} in $v{i - 1}" + "/a" * count
    return text + f" return $v{len(steps) - 1}"


@pytest.fixture(scope="module")
def chain_engine():
    engine = Engine()
    engine.load_xml("d.xml", "<a>" * 110 + "</a>" * 110)
    return engine


@pytest.mark.parametrize(
    "steps",
    [(50, 51), (100,) * 6],
    ids=["one-past", "six-chains"],
)
def test_a_chained_pattern_past_the_limit_is_a_syntax_error(
    chain_engine, steps
):
    text = chained(*steps)
    with pytest.raises(XQuerySyntaxError, match="pattern deeper than 100"):
        chain_engine.run(text)
    svc = chain_engine.service(threads=1)
    try:
        with pytest.raises(
            XQuerySyntaxError, match="pattern deeper than 100"
        ):
            svc.execute(text)
    finally:
        svc.close()


@pytest.mark.parametrize(
    "engine, optimize",
    [("tlc", False), ("tlc", True), ("tax", False), ("gtp", False)],
    ids=["tlc", "tlc-O", "tax", "gtp"],
)
def test_a_chained_pattern_at_the_limit_runs(chain_engine, engine, optimize):
    text = chained(50, 25, 25)
    assert len(chain_engine.run(text, engine=engine, optimize=optimize)) == 1
    svc = chain_engine.service(threads=1)
    try:
        assert len(svc.execute(text, engine=engine, optimize=optimize)) == 1
    finally:
        svc.close()
