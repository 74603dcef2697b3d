"""The documentation names only knobs and commands that exist.

README.md, DESIGN.md, EXPERIMENTS.md and ``docs/*.md`` describe HEAD.
Outside a section whose heading says *historical* (a record of a
measurement whose subject is gone), every

* ``REPRO_*`` environment variable must be read somewhere under ``src/``
  or ``benchmarks/``;
* ``python -m repro <subcommand>`` — and ``bench <figure>``, also in its
  inline `` `bench <figure>` `` form — must be accepted by the CLI parser;
* ``--flag`` after ``python -m repro <subcommand>`` on the same
  (backslash-joined) line must be an option of that subcommand;
* ``bench_smoke.py --flag`` must be an option of that script;
* Python file named — ``name.py``, ``dir/name.py``, a ``bench_*.py``
  script — must exist under ``src/repro``, ``benchmarks``, ``tests``,
  ``tools`` or ``examples``, or at the repository root (a name matches
  any file whose path it ends).

A deleted toggle, subcommand, flag or module that a page still
advertises fails here, next to the CLI.md execution check and the link
check.
"""

import argparse
import re
from pathlib import Path

from repro.__main__ import build_parser

REPO = Path(__file__).resolve().parents[2]
PAGES = [
    REPO / "README.md",
    REPO / "DESIGN.md",
    REPO / "EXPERIMENTS.md",
    *sorted((REPO / "docs").glob("*.md")),
]

_HEADING = re.compile(r"^(#+)\s")
_ENV_VAR = re.compile(r"\bREPRO_[A-Z][A-Z_]*[A-Z]\b")
_INVOCATION = re.compile(r"python3? -m repro ([a-z]+)(?:\s+(\w+))?")
#: a subcommand and the rest of its command line, up to the closing
#: backtick of inline code or the next command in a pipeline
_INVOCATION_LINE = re.compile(r"python3? -m repro ([a-z]+)([^\n`|;]*)")
_INLINE_BENCH = re.compile(r"`(?:repro )?bench (\w+)")
_SMOKE = re.compile(r"bench_smoke\.py((?:[ \t]+[^\s`]+)*)")
_FLAG = re.compile(r"(?<![\w-])--[a-z][\w-]*")
_PY_PATH = re.compile(r"(?<![\w.-])(?:\.\.?/)*((?:[\w.-]+/)*[\w-]+\.py)\b")


def current_text(markdown):
    """The page without its historical sections.

    A heading containing "historical" opens one; it runs until the next
    heading of the same or a shallower level.  Fenced code is not
    scanned for headings (``# comment`` lines in bash fences).
    """
    kept, skipping_from, fenced = [], None, False
    for line in markdown.splitlines():
        if line.lstrip().startswith("```"):
            fenced = not fenced
        heading = None if fenced else _HEADING.match(line)
        if heading:
            level = len(heading.group(1))
            if skipping_from is not None and level <= skipping_from:
                skipping_from = None
            if skipping_from is None and "historical" in line.lower():
                skipping_from = level
        if skipping_from is None:
            kept.append(line)
    return "\n".join(kept)


SUBCOMMANDS = next(
    action.choices
    for action in build_parser()._actions
    if isinstance(action, argparse._SubParsersAction)
)
FIGURES = next(
    action.choices
    for action in SUBCOMMANDS["bench"]._actions
    if action.dest == "figure"
)
OPTIONS = {
    name: set(parser._option_string_actions)
    for name, parser in SUBCOMMANDS.items()
}
SMOKE_SOURCE = (REPO / "benchmarks" / "bench_smoke.py").read_text()
FILES = sorted(
    "/" + path.relative_to(REPO).as_posix()
    for root in ("src/repro", "benchmarks", "tests", "tools", "examples")
    for path in (REPO / root).rglob("*.py")
) + [f"/{path.name}" for path in REPO.glob("*.py")]


def unknown_names(markdown, code, files=FILES):
    """Names the page advertises that neither the CLI, ``code`` nor
    ``files`` (repository-rooted paths) has."""
    text = current_text(markdown).replace("\\\n", " ")
    unknown = set(_ENV_VAR.findall(text)) - set(_ENV_VAR.findall(code))
    for subcommand, argument in _INVOCATION.findall(text):
        if subcommand not in SUBCOMMANDS:
            unknown.add(f"python -m repro {subcommand}")
        elif subcommand == "bench" and argument and argument not in FIGURES:
            unknown.add(f"bench {argument}")
    for subcommand, arguments in _INVOCATION_LINE.findall(text):
        unknown.update(
            f"python -m repro {subcommand} {flag}"
            for flag in _FLAG.findall(arguments)
            if subcommand in OPTIONS and flag not in OPTIONS[subcommand]
        )
    unknown.update(
        f"bench {figure}"
        for figure in _INLINE_BENCH.findall(text)
        if figure not in FIGURES
    )
    for arguments in _SMOKE.findall(text):
        unknown.update(
            f"bench_smoke.py {flag}"
            for flag in _FLAG.findall(arguments)
            if f'"{flag}"' not in SMOKE_SOURCE
        )
    unknown.update(
        name
        for name in _PY_PATH.findall(text)
        if not any(file.endswith("/" + name) for file in files)
    )
    return sorted(unknown)


def test_pages_name_only_what_exists():
    code = "\n".join(
        path.read_text()
        for root in ("src", "benchmarks")
        for path in sorted((REPO / root).rglob("*.py"))
    )
    stale = {
        page.name: names
        for page in PAGES
        if (names := unknown_names(page.read_text(), code))
    }
    assert not stale, f"documentation names what no longer exists: {stale}"


def test_checker_flags_stale_names_outside_historical_sections():
    page = (
        "# T\n\nset `REPRO_NO_SUCH_KNOB=1`, run `bench nosuchfigure` or\n"
        "```bash\n# a comment, not a heading\n"
        "python -m repro nosuchcommand x\n"
        "python benchmarks/bench_smoke.py \\\n    --no-such-flag F --spans\n"
        "python -m repro bench 15 --factor 0.001\n"
        "python -m repro serve xmark:0.001 \\\n"
        "    --no-such-flag F --spans | python -m repro stats --json\n```\n"
        "## Old (historical)\n\n`REPRO_GONE`, `bench gone`\n"
        "### still old\n\n`python -m repro gone`\n"
        "## Now\n\n`REPRO_SPANS=1` and `REPRO_ALSO_GONE`\n"
        "`physical/join.py`, [j](../src/repro/physical/gone.py), "
        "`bench_fig1.py` and bench_gone.py, `join.py` and `gone.py`\n"
    )
    files = [
        "/src/repro/physical/join.py",
        "/benchmarks/bench_fig1.py",
        "/benchmarks/bench_smoke.py",
    ]
    assert unknown_names(page, 'environ.get("REPRO_SPANS")', files) == [
        "REPRO_ALSO_GONE",
        "REPRO_NO_SUCH_KNOB",
        "bench nosuchfigure",
        "bench_gone.py",
        "bench_smoke.py --no-such-flag",
        "gone.py",
        "python -m repro nosuchcommand",
        "python -m repro serve --no-such-flag",
        "src/repro/physical/gone.py",
    ]
