"""The rewrite pipeline verifies exactly the steps that change the plan.

``optimize`` runs the LC-flow analyzer only around a step whose phase-1
scan found sites: a baseline just before the first such step, then once
after each.  These tests pin that the skip changes nothing and that the
verifier still catches a broken step:

* ``rewrite_logs.json`` pins every ``RewriteLog`` and a digest of every
  optimized plan's ``describe()`` over the compile corpus (the 23 XMark
  texts plus the fuzzed batch the ``compile_cold`` workload compiles);
* a step whose scan found nothing leaves ``describe()`` unchanged;
* ``analyze`` runs 0 times on a plan no step changes and
  1 + (changing steps) times otherwise;
* a step whose apply leaves an undefined class reference raises
  ``PlanValidationError`` naming that step;
* no translated plan — TLC plain and optimized over the corpus, TAX and
  GTP over the XMark texts — reaches one operator along two edges, so
  the pipeline needs no step that shares sub-plans.

Regenerate the fixture (only when a rewrite is meant to change its
output) with ``PYTHONPATH=src python tests/rewrites/test_pipeline.py
--regen``.
"""

import hashlib
import json
import sys
from collections import Counter
from dataclasses import asdict
from pathlib import Path

import pytest

import repro.analysis
from repro import Engine
from repro.core import ProjectOp
from repro.errors import PlanValidationError
from repro.rewrites import RewriteLog, optimize, pipeline
from repro.xmark import FIGURE15_ORDER, QUERIES
from repro.xquery import translate_query
from repro.xquery.fuzz import sample_queries

LOGS_PATH = Path(__file__).with_name("rewrite_logs.json")

#: the layer benchmark's default workload seed, which the fuzzer uses
FUZZ_SEED = 20040613

STEPS = ["restructure", "illuminate"]


def corpus():
    """``(name, text)`` for the XMark texts, then the distinct fuzzed
    texts as ``f000``, ``f001``, … (the ``compile_cold`` texts)."""
    texts = [(name, QUERIES[name].text) for name in FIGURE15_ORDER]
    seen = {text for _, text in texts}
    fuzzed = []
    for text in sample_queries(300, FUZZ_SEED):
        if text not in seen:
            seen.add(text)
            fuzzed.append(text)
    return texts + [(f"f{i:03d}", text) for i, text in enumerate(fuzzed)]


def plan_digest(plan) -> str:
    return hashlib.sha256(plan.describe().encode()).hexdigest()[:16]


def rewrite_logs() -> dict:
    """The fixture's content: logs of the texts a rewrite changed, and
    every optimized plan's digest."""
    logs, plans = {}, {}
    for name, text in corpus():
        plan, log = optimize(translate_query(text).plan)
        if log.changed:
            logs[name] = asdict(log)
        plans[name] = plan_digest(plan)
    return {"logs": logs, "plans": plans}


@pytest.fixture(scope="module")
def pinned() -> dict:
    return json.loads(LOGS_PATH.read_text())


def test_logs_and_plans_match_the_pinned_fixture(pinned):
    actual = rewrite_logs()
    unchanged = asdict(RewriteLog(verified=list(STEPS)))
    assert sorted(actual["logs"]) == sorted(pinned["logs"])
    for name, log in pinned["logs"].items():
        assert actual["logs"][name] == log, name
        assert log["verified"] == STEPS
    assert actual["plans"] == pinned["plans"]
    for name, text in corpus():
        if name not in pinned["logs"]:
            _, log = optimize(translate_query(text).plan)
            assert asdict(log) == unchanged, name


def test_the_pinned_rewrites_fire_where_figure_16_says(pinned):
    xmark = {name for name in pinned["logs"] if not name.startswith("f")}
    assert xmark == {"x3", "x5", "Q1", "Q2"}


def test_a_step_that_finds_no_site_leaves_the_plan_unchanged(monkeypatch):
    """Each scan sees the plan the previous step left; a step whose
    scan came back empty must hand the next scan the same plan."""
    seen = []

    def recording(step, find_sites):
        def scan(root):
            sites = find_sites(root)
            seen.append((step, bool(sites), root.describe()))
            return sites

        return scan

    monkeypatch.setattr(
        pipeline,
        "_STEPS",
        tuple(
            (step, recording(step, find), rewrite)
            for step, find, rewrite in pipeline._STEPS
        ),
    )
    skipped = 0
    for _, text in corpus():
        seen.clear()
        plan, _ = optimize(translate_query(text).plan)
        after = [described for _, _, described in seen[1:]]
        after.append(plan.describe())
        for (step, changed, before), described in zip(seen, after):
            if not changed:
                skipped += 1
                assert described == before, step
    assert skipped > 0


@pytest.fixture
def analyze_calls(monkeypatch):
    calls = []
    real = repro.analysis.analyze

    def counting(plan):
        calls.append(plan)
        return real(plan)

    monkeypatch.setattr(repro.analysis, "analyze", counting)
    return calls


def changing_steps(log) -> int:
    return sum(
        bool(done)
        for done in (log.flattened or log.shadowed, log.illuminated)
    )


@pytest.mark.parametrize("name", ["x1", "x20", "x3", "x5", "Q1", "Q2"])
def test_named_queries_analyze_once_per_change(name, analyze_calls):
    _, log = optimize(translate_query(QUERIES[name].text).plan)
    expected = {"x1": 0, "x20": 0, "x3": 2, "x5": 3, "Q1": 3, "Q2": 3}
    assert len(analyze_calls) == expected[name]
    assert log.verified == STEPS


def test_corpus_analyzes_one_baseline_plus_one_per_changing_step(
    analyze_calls,
):
    for name, text in corpus():
        analyze_calls.clear()
        _, log = optimize(translate_query(text).plan)
        steps = changing_steps(log)
        assert len(analyze_calls) == (1 + steps if steps else 0), name


def test_verify_false_never_analyzes(analyze_calls):
    plan = translate_query(QUERIES["Q1"].text).plan
    _, log = optimize(plan, verify=False)
    assert analyze_calls == []
    assert log.verified == [] and log.illuminated


# ---------------------------------------------------------------------
# no plan shares an operator: the pipeline has no sharing step to run
# ---------------------------------------------------------------------
def shared_operators(plan):
    """Operators the plan reaches along more than one edge."""
    reached = Counter(id(op) for op in plan.walk())
    return [op.name for op in plan.walk() if reached[id(op)] > 1]


def test_no_translated_tlc_plan_shares_an_operator():
    shared = {}
    for name, text in corpus():
        plain = translate_query(text).plan
        for label, plan in (("", plain), ("-O", optimize(plain)[0])):
            if shared_operators(plan):
                shared[name + label] = shared_operators(plan)
    assert shared == {}


@pytest.mark.parametrize("engine", ["tax", "gtp"])
def test_no_baseline_plan_shares_an_operator(engine):
    planner = Engine()
    shared = {}
    for name in FIGURE15_ORDER:
        plan = planner.plan(QUERIES[name].text, engine).plan
        if shared_operators(plan):
            shared[name] = shared_operators(plan)
    assert shared == {}


# ---------------------------------------------------------------------
# a broken step is still caught and named
# ---------------------------------------------------------------------
#: a class no operator produces: reading it is an LC101 error
UNPRODUCED = 999


def reads_unproduced(apply):
    """``apply`` that leaves a consumer of an unproduced class on top."""

    def broken(*args, **kwargs):
        return ProjectOp([UNPRODUCED], apply(*args, **kwargs))

    return broken


@pytest.mark.parametrize(
    "step, apply, name",
    [
        ("restructure", "apply_flatten", "x3"),
        ("restructure", "apply_flatten", "Q1"),
        ("illuminate", "apply_illuminate", "Q1"),
    ],
)
def test_broken_step_is_named(monkeypatch, step, apply, name):
    monkeypatch.setattr(
        pipeline, apply, reads_unproduced(getattr(pipeline, apply))
    )
    with pytest.raises(PlanValidationError, match=f"'{step}'"):
        optimize(translate_query(QUERIES[name].text).plan)


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        sys.exit("usage: test_pipeline.py --regen")
    LOGS_PATH.write_text(json.dumps(rewrite_logs(), indent=1) + "\n")
    print(f"wrote {LOGS_PATH}")
