"""What importing the package drags into a process.

Every process pays for its imports — the dispatcher once, and every
spawned worker again.  numpy costs ~16 MB of resident memory and
~0.16 s per interpreter here, and nothing in the engine computes with
it (DESIGN §15), so no module of the package may import it, not even
for convenience.
"""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """
import sys
import repro, repro.service, repro.columns, repro.bench
sys.exit("numpy imported" if "numpy" in sys.modules else 0)
"""


def probe(source):
    return subprocess.run(
        [sys.executable, "-c", source],
        env={"PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=60,
    )


def test_importing_the_package_does_not_import_numpy():
    done = probe(PROBE)
    assert done.returncode == 0, done.stderr
