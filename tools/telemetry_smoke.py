#!/usr/bin/env python3
"""End-to-end telemetry smoke test: serve --http, scrape, validate.

Starts ``python -m repro serve xmark:0.002 --http 0 --slow-ms 0
--spans --mode process --workers 2 --query-log <tmp>`` as a
subprocess, keeps its stdin pipe open while scraping the announced
endpoints, then feeds it queries and checks that:

* ``/healthz`` answers ``{"status": "ok"}``;
* ``/metrics`` is valid Prometheus exposition text (``promformat``)
  and counts the served requests, and the work the workers did reaches
  it through the ``Metrics`` deltas each ``WorkerResult`` carries
  (``repro_work_pattern_matches_total`` > 0,
  ``repro_plan_executions_total`` >= the queries sent);
* ``/stats`` reports the executions with latency percentiles;
* ``/slow`` holds a capture with a per-operator trace (every request
  is slow at ``--slow-ms 0``);
* ``/trace`` lists one span capture per request, ``/trace/<id>``
  round-trips as Chrome-trace-event JSON that passes the schema
  checker (non-decreasing ``ts``, matched ``B``/``E`` pairs) and
  carries worker-side spans;
* ``/workers`` reports both worker processes with their served
  request counts;
* every query-log JSONL record's ``trace_id`` joins against a
  resident ``/trace`` capture.

Run from the repo root: ``python tools/telemetry_smoke.py``.  Exit 0
on success; failures print a reason and exit 1.  Stdlib plus the
in-repo ``repro.telemetry.spans`` checker only.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "tools"))
sys.path.insert(0, str(REPO / "src"))

from promformat import parse_exposition  # noqa: E402

from repro.telemetry.spans import check_chrome_trace  # noqa: E402

QUERIES = [
    'FOR $p IN document("auction.xml")//person RETURN $p/name',
    'FOR $i IN document("auction.xml")//item RETURN $i/location',
]


def _get(base: str, path: str) -> bytes:
    with urllib.request.urlopen(base + path, timeout=10) as response:
        return response.read()


def main() -> int:
    env_path = str(REPO / "src")
    import os
    import tempfile

    env = dict(os.environ)
    env["PYTHONPATH"] = env_path + os.pathsep + env.get("PYTHONPATH", "")
    query_log = Path(tempfile.mkstemp(suffix=".jsonl")[1])
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve", "xmark:0.002",
            "--http", "0", "--slow-ms", "0",
            "--spans", "--mode", "process", "--workers", "2",
            "--query-log", str(query_log),
        ],
        stdin=subprocess.PIPE,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        cwd=str(REPO),
    )
    try:
        assert proc.stderr is not None and proc.stdin is not None
        # --mode process announces the worker fleet first; scan stderr
        # lines until the telemetry address shows up
        match = None
        for _ in range(10):
            line = proc.stderr.readline()
            if not line:
                break
            match = re.search(r"http://[\d.]+:\d+", line)
            if match:
                break
        if not match:
            print(f"smoke: no telemetry address in {line!r}")
            return 1
        base = match.group(0)
        print(f"smoke: serve announced {base}")

        health = json.loads(_get(base, "/healthz"))
        if health.get("status") != "ok":
            print(f"smoke: /healthz not ok: {health}")
            return 1

        for query in QUERIES:
            proc.stdin.write(query + "\n")
        proc.stdin.flush()

        # poll /stats until both requests are in
        for _ in range(100):
            stats = json.loads(_get(base, "/stats"))
            if stats["service"]["executed"] >= len(QUERIES):
                break
            time.sleep(0.1)
        else:
            print(f"smoke: requests never landed: {stats['service']}")
            return 1
        latency = stats["service"]["latency"].get("all", {})
        for key in ("p50_ms", "p95_ms", "p99_ms"):
            if key not in latency:
                print(f"smoke: /stats latency misses {key}: {latency}")
                return 1

        text = _get(base, "/metrics").decode("utf-8")
        families = parse_exposition(text)
        for required in (
            "repro_requests_total",
            "repro_request_seconds",
            "repro_plan_executions_total",
            "repro_slow_queries_total",
        ):
            if required not in families:
                print(f"smoke: /metrics misses family {required}")
                return 1
        requests_total = sum(
            value
            for _, _, value in families["repro_requests_total"].samples
        )
        if requests_total < len(QUERIES):
            print(f"smoke: repro_requests_total={requests_total} < 2")
            return 1
        executions = families["repro_plan_executions_total"].samples[0][2]
        if executions < len(QUERIES):
            print(
                f"smoke: repro_plan_executions_total={executions} < "
                f"{len(QUERIES)}"
            )
            return 1
        matches = families.get("repro_work_pattern_matches_total")
        if matches is None or matches.samples[0][2] <= 0:
            print(
                "smoke: worker pattern matches never reached /metrics "
                "(repro_work_pattern_matches_total missing or 0)"
            )
            return 1

        slow = json.loads(_get(base, "/slow"))
        if slow["captured"] < len(QUERIES):
            print(f"smoke: slow ring captured {slow['captured']} < 2")
            return 1
        if not any(entry.get("trace") for entry in slow["slow"]):
            print("smoke: no slow capture carries a trace")
            return 1

        # span captures: /trace index, per-id Chrome round-trip
        index = json.loads(_get(base, "/trace"))
        if not index.get("spans_enabled"):
            print(f"smoke: /trace reports spans disabled: {index}")
            return 1
        traces = index.get("traces", [])
        if len(traces) < len(QUERIES):
            print(f"smoke: /trace holds {len(traces)} captures < 2")
            return 1
        for entry in traces:
            chrome = json.loads(_get(base, f"/trace/{entry['trace_id']}"))
            problems = check_chrome_trace(chrome)
            if problems:
                print(
                    f"smoke: /trace/{entry['trace_id']} export is "
                    f"malformed: {problems}"
                )
                return 1
            names = {
                event.get("name")
                for event in chrome["traceEvents"]
                if event.get("ph") == "B"
            }
            if "worker.execute" not in names:
                print(
                    f"smoke: trace {entry['trace_id']} never crossed "
                    f"the worker boundary: {sorted(names)}"
                )
                return 1

        # worker introspection
        workers = json.loads(_get(base, "/workers"))
        if workers.get("mode") != "process":
            print(f"smoke: /workers mode {workers.get('mode')!r}")
            return 1
        fleet = workers.get("workers", [])
        if len(fleet) != 2:
            print(f"smoke: /workers lists {len(fleet)} workers != 2")
            return 1
        served = sum(entry.get("requests", 0) for entry in fleet)
        if served < len(QUERIES):
            print(f"smoke: workers served {served} < {len(QUERIES)}")
            return 1
        if "repro_worker_requests" not in families and not any(
            f.startswith("repro_worker_requests")
            for f in parse_exposition(_get(base, "/metrics").decode())
        ):
            print("smoke: /metrics misses repro_worker_requests")
            return 1

        proc.stdin.close()
        if proc.wait(timeout=60) != 0:
            print(f"smoke: serve exited {proc.returncode}")
            print(proc.stderr.read(), file=sys.stderr)
            return 1

        # the query log joins against the exported span captures
        resident = {entry["trace_id"] for entry in traces}
        events = [
            json.loads(line)
            for line in query_log.read_text().splitlines()
            if line.strip()
        ]
        if len(events) < len(QUERIES):
            print(f"smoke: query log holds {len(events)} records < 2")
            return 1
        unjoined = [
            event["trace_id"]
            for event in events
            if event.get("trace_id") not in resident
        ]
        if unjoined:
            print(f"smoke: log trace_ids not in /trace: {unjoined}")
            return 1

        print(
            f"smoke: OK ({len(families)} metric families, "
            f"{int(requests_total)} requests, "
            f"{slow['captured']} slow captures, {len(traces)} span "
            f"captures joined to {len(events)} log records, "
            f"{served} requests across {len(fleet)} workers)"
        )
        return 0
    finally:
        if proc.poll() is None:
            proc.kill()
        query_log.unlink(missing_ok=True)


if __name__ == "__main__":
    sys.exit(main())
