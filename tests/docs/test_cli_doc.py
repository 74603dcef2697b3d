"""docs/CLI.md cannot drift: every documented invocation is executed.

Each ``bash`` fence in the page contributes its command lines; every
``python -m repro …`` invocation is run in-process via ``main()`` (with
the documented stdin for piped ``serve`` lines) from a temp directory,
and must exit 0.  A documented command that stops working — renamed
flag, removed subcommand — fails here before a reader finds out.
"""

import io
import re
import shlex
from pathlib import Path

import pytest

from repro.__main__ import main

DOC = Path(__file__).resolve().parents[2] / "docs" / "CLI.md"

_BLOCK = re.compile(r"```bash\n(.*?)```", re.DOTALL)


def documented_commands():
    """(stdin_text, argv) for every invocation in the page's bash fences."""
    commands = []
    for block in _BLOCK.findall(DOC.read_text()):
        for line in block.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            stdin_text = None
            if "|" in line:
                producer, line = (part.strip() for part in line.split("|", 1))
                echoed = shlex.split(producer)
                assert echoed[0] == "echo", f"unexpected producer: {producer}"
                stdin_text = " ".join(echoed[1:]) + "\n"
            words = shlex.split(line)
            assert words[:3] == ["python", "-m", "repro"], (
                f"docs/CLI.md bash fences must hold repro invocations: {line}"
            )
            commands.append((stdin_text, words[3:]))
    return commands


COMMANDS = documented_commands()


def test_the_page_documents_every_subcommand():
    subcommands = {argv[0] for _, argv in COMMANDS}
    assert subcommands == {
        "generate",
        "query",
        "explain",
        "plan",
        "lint",
        "profile",
        "bench",
        "prepare",
        "serve",
        "stats",
        "tail",
        "check",
    }


@pytest.mark.parametrize(
    "stdin_text,argv",
    COMMANDS,
    ids=[" ".join(argv[:2]) for _, argv in COMMANDS],
)
def test_documented_invocation_runs(stdin_text, argv, tmp_path, monkeypatch,
                                    capsys):
    monkeypatch.chdir(tmp_path)  # generate writes auction.xml / auction.tlcdb
    if "auction.tlcdb" in argv:
        assert main(["generate", "auction.tlcdb", "--factor", "0.001"]) == 0
        capsys.readouterr()
    if "qlog.jsonl" in argv and argv[0] != "serve":
        # stats/tail read a query log; seed one the way serve writes it
        monkeypatch.setattr(
            "sys.stdin",
            io.StringIO(
                'FOR $p IN document("auction.xml")//person '
                "RETURN $p/name\n"
            ),
        )
        assert main([
            "serve", "xmark:0.001",
            "--slow-ms", "0", "--query-log", "qlog.jsonl",
        ]) == 0
        capsys.readouterr()
    if stdin_text is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
    assert main(argv) == 0, f"documented command failed: {argv}"
