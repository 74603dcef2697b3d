"""CI's smoke scripts, run as subprocesses with their own flags.

``benchmarks/bench_smoke.py`` sweeps the 23 queries through a 2-worker
process pool under each start method, with and without request spans,
and checks every result byte-for-byte against serial;
``tools/telemetry_smoke.py`` serves with ``--http --spans --mode
process`` and validates every endpoint.  Each script asserts by itself
and exits 0 only when every check passed.
"""

import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.service import START_METHODS

REPO = Path(__file__).resolve().parents[2]

AVAILABLE = [
    m for m in START_METHODS
    if m in multiprocessing.get_all_start_methods()
]


def _run(*argv):
    done = subprocess.run(
        [sys.executable, *argv],
        cwd=REPO,
        env={**os.environ, "PYTHONPATH": str(REPO / "src")},
        stdin=subprocess.DEVNULL,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]


@pytest.mark.parametrize("spans", [[], ["--spans"]], ids=["plain", "spans"])
@pytest.mark.parametrize("start_method", AVAILABLE)
def test_process_pool_smoke(start_method, spans):
    _run(
        "benchmarks/bench_smoke.py", "--mode", "process", "--workers", "2",
        "--start-method", start_method, *spans,
    )


def test_telemetry_smoke():
    _run("tools/telemetry_smoke.py")
