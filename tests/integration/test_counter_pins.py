"""Integration: no work counter moved — the 23 XMark queries' pinned counts.

``counter_pins.json`` holds, per XMark query, the full ``Metrics``
snapshot (minus the plan-cache and planner fields, which meter the
service and planner rather than evaluation) of one cold-pool run at
factor 0.002 under shipped defaults: planner off, scan cache on.  A
performance PR that claims "same scan, cheaper" must pass this file
*unregenerated*: page reads, buffer hits, nodes touched, index entries
scanned, join counts and trees built are all exact, so any drift is a
behaviour change, not noise.

**Regenerating** (``PYTHONPATH=src python tests/integration/
test_counter_pins.py --regen``) is legitimate only when a PR
*intentionally* changes how much work a query does — and then counts may
only fall, and the PR description says which and why.  Regenerate at the
commit whose counts are the new contract, never to make a red test green.
"""

import json
import sys
from pathlib import Path

import pytest

from repro import Engine
from repro.planner import use_planner
from repro.storage.stats import COUNTER_FIELDS
from repro.xmark import FIGURE15_ORDER, QUERIES, load_xmark

PINS_PATH = Path(__file__).with_name("counter_pins.json")
FACTOR = 0.002

#: evaluation work only: the plan cache belongs to the service layer
#: and the planner fields to a planner that is off by default
PINNED_FIELDS = tuple(
    name
    for name in COUNTER_FIELDS
    if not name.startswith(("plan_cache_", "planner_"))
)


def _counters(engine: Engine, name: str) -> dict:
    with use_planner(False):
        report = engine.measure(
            QUERIES[name].text, engine="tlc", cold_cache=True
        )
    return {field: report.counters[field] for field in PINNED_FIELDS}


@pytest.fixture(scope="module")
def pins() -> dict:
    return json.loads(PINS_PATH.read_text())


def test_pins_cover_every_query_and_field(pins):
    assert pins["factor"] == FACTOR
    assert sorted(pins["queries"]) == sorted(FIGURE15_ORDER)
    for counters in pins["queries"].values():
        assert sorted(counters) == sorted(PINNED_FIELDS)


@pytest.mark.parametrize("name", FIGURE15_ORDER)
def test_work_counters_match_pins(xmark_engine, pins, name):
    assert _counters(xmark_engine, name) == pins["queries"][name], (
        f"{name}: a work counter moved — see this module's docstring "
        "before regenerating"
    )


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        sys.exit("usage: test_counter_pins.py --regen")
    regen_engine = Engine()
    load_xmark(regen_engine.db, factor=FACTOR)
    PINS_PATH.write_text(
        json.dumps(
            {
                "factor": FACTOR,
                "queries": {
                    name: _counters(regen_engine, name)
                    for name in FIGURE15_ORDER
                },
            },
            indent=1,
            sort_keys=True,
        )
        + "\n"
    )
    print(f"wrote {PINS_PATH}")
