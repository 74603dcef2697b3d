#!/usr/bin/env python3
"""Markdown link checker for the repo's documentation (stdlib only).

Scans the given markdown files (or the repo's standard doc set when run
without arguments) for inline ``[text](target)`` links and verifies that
every *local* target exists relative to the file containing the link.
External links (``http(s)://``, ``mailto:``) are counted but not
fetched — CI must not depend on the network.  Intra-page anchors
(``#section``) are checked against the page's own headings.

Exit status: 0 when every local target resolves, 1 otherwise (broken
links are listed on stderr).
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

#: The documentation set checked when no files are given.
DEFAULT_DOCS = (
    "README.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    "ROADMAP.md",
    "CHANGES.md",
    "docs/ARCHITECTURE.md",
    "docs/OPERATORS.md",
    "docs/CLI.md",
    "docs/OBSERVABILITY.md",
)

#: Inline links, skipping images; code spans are stripped beforehand.
_LINK = re.compile(r"(?<!\!)\[[^\]]*\]\(([^)\s]+)\)")
_CODE_FENCE = re.compile(r"```.*?```", re.DOTALL)
_INLINE_CODE = re.compile(r"`[^`]*`")
_HEADING = re.compile(r"^#{1,6}\s+(.+?)\s*$", re.MULTILINE)


def github_anchor(heading: str) -> str:
    """The anchor id GitHub generates for a heading."""
    anchor = heading.strip().lower()
    anchor = re.sub(r"[^\w\- ]", "", anchor)
    return anchor.replace(" ", "-")


def check_file(path: Path) -> list[str]:
    """Broken-link descriptions for one markdown file."""
    text = path.read_text(encoding="utf-8")
    prose = _INLINE_CODE.sub("", _CODE_FENCE.sub("", text))
    anchors = {github_anchor(h) for h in _HEADING.findall(text)}
    problems = []
    for target in _LINK.findall(prose):
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        if target.startswith("#"):
            if target[1:] not in anchors:
                problems.append(f"{path}: missing anchor {target!r}")
            continue
        base, _, fragment = target.partition("#")
        resolved = (path.parent / base).resolve()
        if not resolved.exists():
            problems.append(f"{path}: broken link {target!r}")
        elif fragment and resolved.suffix == ".md":
            linked = resolved.read_text(encoding="utf-8")
            linked_anchors = {
                github_anchor(h) for h in _HEADING.findall(linked)
            }
            if github_anchor(fragment) not in linked_anchors:
                problems.append(
                    f"{path}: link {target!r} points at a missing anchor"
                )
    return problems


def main(argv: list[str]) -> int:
    files = [Path(arg) for arg in argv] if argv else [
        REPO / name for name in DEFAULT_DOCS
    ]
    problems = []
    checked = 0
    for path in files:
        if not path.exists():
            problems.append(f"{path}: file not found")
            continue
        checked += 1
        problems.extend(check_file(path))
    for problem in problems:
        print(problem, file=sys.stderr)
    print(f"checked {checked} files, {len(problems)} broken links")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
