"""Whole-corpus guarantees: every real plan the system builds lints clean.

These are the analyzer's false-positive regression tests: the XMark
benchmark queries exercise every translation pattern (nested blocks,
aggregates, deferred joins, disjunctions, ordering), and the rewrites
restructure them aggressively — none of it may trip a diagnostic.
"""

import pickle

import pytest

import repro.core as core
from repro.patterns.logical_class import LCLAllocator
from repro.rewrites.pipeline import optimize, optimize_plan
from repro.xmark import QUERIES
from repro.xquery.translator import translate_query

_NAMES = sorted(QUERIES)


def _plans(name):
    """The translated and the rewritten plan of one benchmark query."""
    translation = translate_query(QUERIES[name].text)
    return translation.plan, optimize_plan(translation, verify=False).plan


@pytest.mark.parametrize("name", _NAMES)
def test_translated_plans_lint_clean(name):
    report = translate_query(QUERIES[name].text).lint()
    assert report.ok, report.render()
    assert not report.diagnostics, report.render()


@pytest.mark.parametrize("name", _NAMES)
def test_optimized_plans_lint_clean(name):
    translation = translate_query(QUERIES[name].text)
    report = optimize_plan(translation).lint()
    assert report.ok, report.render()
    assert not report.diagnostics, report.render()


@pytest.mark.parametrize("name", _NAMES)
def test_rewrite_steps_all_verify(name):
    _, log = optimize(translate_query(QUERIES[name].text).plan)
    assert log.verified == ["restructure", "illuminate"]


@pytest.mark.parametrize("name", _NAMES)
def test_sweep_cardinality_bounds_raise_no_diagnostics(name, xmark_engine):
    """The LC3xx pass over both plan shapes of every benchmark query."""
    from repro.analysis import analyze
    from repro.storage.stats import CardinalityStats

    stats = CardinalityStats.from_database(xmark_engine.db)
    for plan in _plans(name):
        analysis = analyze(plan, stats)
        assert analysis.diagnostics == [], [
            d.render() for d in analysis.diagnostics
        ]


def _round_trips(plan):
    return pickle.loads(pickle.dumps(plan)).describe() == plan.describe()


@pytest.mark.parametrize("name", _NAMES)
def test_sweep_plans_certify_pickle_safe(name):
    """Every benchmark plan ships to a process pool intact."""
    for plan in _plans(name):
        assert _round_trips(plan), plan.describe()


@pytest.mark.parametrize("name", _NAMES)
def test_sweep_plan_clones_answer_like_the_originals(name, xmark_engine):
    """A worker runs the unpickled plan: it must answer what the
    dispatcher's plan answers, tree for tree and in the same order."""

    def answer(plan):
        return [repr(t.canonical(True)) for t in xmark_engine.run_plan(plan)]

    for plan in _plans(name):
        assert answer(pickle.loads(pickle.dumps(plan))) == answer(plan)


def test_plans_cover_every_core_operator(union_plan):
    """A new operator cannot ship without a pickled instance above.

    The translator emits every operator but Union, which the hand-built
    ``union_plan`` adds.
    """
    assert _round_trips(union_plan)
    plans = [plan for name in _NAMES for plan in _plans(name)]
    covered = {
        type(op).__name__ for plan in plans + [union_plan] for op in plan.walk()
    }
    exported = {name for name in core.__all__ if name.endswith("Op")}
    assert exported - covered == set()


@pytest.mark.parametrize("name", ["x3", "x5", "Q1", "Q2"])
def test_strict_execution_of_benchmark_queries(name, xmark_engine):
    query = QUERIES[name].text
    plain = xmark_engine.run(query, strict=True)
    optimized = xmark_engine.run(query, optimize=True, strict=True)
    key = lambda seq: sorted(repr(t.canonical(True)) for t in seq)
    assert key(plain) == key(optimized)


class TestAllocatorFork:
    def test_forks_share_one_counter(self):
        parent = LCLAllocator()
        fork_a, fork_b = parent.fork(), parent.fork()
        labels = [
            parent.allocate(),
            fork_a.allocate(),
            fork_b.allocate(),
            fork_a.allocate(),
        ]
        assert labels == [1, 2, 3, 4]  # no label handed out twice
        assert parent.high_water == fork_a.high_water == 5

    def test_reserve_visible_to_all_forks(self):
        parent = LCLAllocator()
        fork = parent.fork()
        fork.reserve(40)
        assert parent.allocate() == 41

    def test_independent_allocators_do_collide(self):
        # the bug fork() prevents: two fresh allocators reuse label 1
        assert LCLAllocator().allocate() == LCLAllocator().allocate()

    def test_no_duplicate_labels_across_nested_blocks(self):
        # a nested-FLWR query: each block allocates through a fork of
        # the same translator counter, so the plan-wide label set is
        # duplicate-free and the analyzer reports no LC102
        query = QUERIES["x6"].text
        translation = translate_query(query)
        report = translation.lint()
        assert not any(d.code == "LC102" for d in report.diagnostics)
