"""Every example script runs to completion as a user would start it."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]


@pytest.mark.parametrize(
    "script",
    [
        "auction_analytics.py",
        "fuzz_and_verify.py",
        "rewrite_optimization.py",
        "xquery_repl.py",  # stdin closed: the shell exits at end of input
    ],
)
def test_example_exits_cleanly(script):
    done = subprocess.run(
        [sys.executable, str(REPO / "examples" / script)],
        env={**os.environ, "PYTHONPATH": str(REPO / "src")},
        stdin=subprocess.DEVNULL,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
