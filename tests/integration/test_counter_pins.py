"""Integration: no work counter moved — the 23 XMark queries' pinned counts.

``counter_pins.json`` holds, per XMark query, the full ``Metrics``
snapshot (minus the plan-cache fields, which meter the service rather
than evaluation) of one cold-pool run at factor 0.002 under shipped
defaults (scan cache on) —
under ``queries`` for TLC and under ``baselines`` for TAX and GTP,
whose GroupBy, node and tree counts Figure 15's verdicts rest on.  A
performance PR that claims "same scan, cheaper" must pass this file
*unregenerated*: page reads, buffer hits, nodes touched, index entries
scanned, join counts and trees built are all exact, so any drift is a
behaviour change, not noise.

**Regenerating** (``PYTHONPATH=src python tests/integration/
test_counter_pins.py --regen``) is legitimate only when a PR
*intentionally* changes how much work a query does — and then counts may
only fall, and the PR description says which and why.  Regenerate at the
commit whose counts are the new contract, never to make a red test green.
The regeneration prints ``old -> new`` for every (query, counter) that
moved and refuses to write the file when any pinned count rose.
"""

import json
import sys
from pathlib import Path

import pytest

from repro import Engine
from repro.storage.stats import COUNTER_FIELDS
from repro.xmark import FIGURE15_ORDER, QUERIES, load_xmark

PINS_PATH = Path(__file__).with_name("counter_pins.json")
FACTOR = 0.002

#: evaluation work only: the plan cache belongs to the service layer
PINNED_FIELDS = tuple(
    name for name in COUNTER_FIELDS if not name.startswith("plan_cache_")
)


#: the Section 6.1 competitors pinned next to TLC
BASELINES = ("tax", "gtp")


def _counters(engine: Engine, name: str, algebra: str = "tlc") -> dict:
    report = engine.measure(
        QUERIES[name].text, engine=algebra, cold_cache=True
    )
    return {field: report.counters[field] for field in PINNED_FIELDS}


def _sweep(engine: Engine) -> dict:
    """The whole pin file's contents, measured on ``engine``."""
    return {
        "factor": FACTOR,
        "queries": {
            name: _counters(engine, name) for name in FIGURE15_ORDER
        },
        "baselines": {
            algebra: {
                name: _counters(engine, name, algebra)
                for name in FIGURE15_ORDER
            }
            for algebra in BASELINES
        },
    }


def _flat(pins: dict) -> dict:
    """Every pinned query keyed ``name`` (TLC) or ``algebra:name``."""
    flat = dict(pins["queries"])
    for algebra, queries in pins.get("baselines", {}).items():
        for name, counters in queries.items():
            flat[f"{algebra}:{name}"] = counters
    return flat


@pytest.fixture(scope="module")
def pins() -> dict:
    return json.loads(PINS_PATH.read_text())


def test_pins_cover_every_query_and_field(pins):
    assert pins["factor"] == FACTOR
    assert sorted(pins["queries"]) == sorted(FIGURE15_ORDER)
    assert sorted(pins["baselines"]) == sorted(BASELINES)
    for queries in pins["baselines"].values():
        assert sorted(queries) == sorted(FIGURE15_ORDER)
    for counters in _flat(pins).values():
        assert sorted(counters) == sorted(PINNED_FIELDS)


@pytest.mark.parametrize("name", FIGURE15_ORDER)
def test_work_counters_match_pins(xmark_engine, pins, name):
    assert _counters(xmark_engine, name) == pins["queries"][name], (
        f"{name}: a work counter moved — see this module's docstring "
        "before regenerating"
    )


@pytest.mark.parametrize(
    "algebra,name",
    [(algebra, name) for algebra in BASELINES for name in FIGURE15_ORDER],
)
def test_baseline_work_counters_match_pins(xmark_engine, pins, algebra, name):
    assert (
        _counters(xmark_engine, name, algebra)
        == pins["baselines"][algebra][name]
    ), (
        f"{algebra} {name}: a work counter moved — see this module's "
        "docstring before regenerating"
    )


def pin_changes(old: dict, new: dict) -> list:
    """``(query, counter, old, new)`` for every pinned count that moved."""
    return [
        (name, field, old.get(name, {}).get(field), value)
        for name, counters in sorted(new.items())
        for field, value in sorted(counters.items())
        if old.get(name, {}).get(field) != value
    ]


def test_pin_changes_lists_moves_only():
    old = {"x1": {"a": 1, "b": 2}}
    new = {"x1": {"a": 1, "b": 1}, "x2": {"a": 3}}
    assert pin_changes(old, new) == [
        ("x1", "b", 2, 1), ("x2", "a", None, 3)
    ]


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        sys.exit("usage: test_counter_pins.py --regen")
    regen_engine = Engine()
    load_xmark(regen_engine.db, factor=FACTOR)
    swept = _sweep(regen_engine)
    changes = pin_changes(
        _flat(json.loads(PINS_PATH.read_text())), _flat(swept)
    )
    for name, field, was, now in changes:
        print(f"{name:9} {field:22} {was} -> {now}")
    risen = [
        change for change in changes
        if change[2] is not None and change[3] > change[2]
    ]
    if risen:
        sys.exit(
            f"refusing to write {PINS_PATH}: {len(risen)} counter(s) rose"
        )
    PINS_PATH.write_text(json.dumps(swept, indent=1, sort_keys=True) + "\n")
    print(f"wrote {PINS_PATH} ({len(changes)} change(s))")
