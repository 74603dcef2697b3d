"""What importing the package drags into a process.

Every process pays for its imports — the dispatcher once, and every
spawned worker again.  numpy costs ~16 MB of resident memory and
~0.16 s per interpreter here, and nothing in the engine computes with
it (DESIGN §15), so no module of the package may import it, not even
for convenience.  Likewise, running and preparing queries loads none of
the repository's own linters.
"""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

RUNTIME_PROBE = """
import sys
from repro import Engine
from repro.service import QueryService
engine = Engine()
engine.load_xmark(factor=0.001)
query = 'FOR $p IN document("auction.xml")//person RETURN $p/name'
engine.run(query)
with QueryService(engine) as service:
    service.prepare(query, optimize=True)
loaded = sorted(
    name for name in ("checker", "findings", "concurrency")
    if "repro.analysis." + name in sys.modules
)
sys.exit(f"loaded: {loaded}" if loaded else 0)
"""

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


def test_running_queries_loads_no_repository_linter():
    done = probe(RUNTIME_PROBE)
    assert done.returncode == 0, done.stderr
