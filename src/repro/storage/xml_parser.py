"""The XML front end: stdlib expat events under one text rule.

:func:`parse_events` drives a sink's ``start(tag, attrs)`` /
``end(value)`` calls from ``xml.parsers.expat`` (C, no third-party
dependency).  :meth:`~repro.storage.document.Document.from_xml` feeds
the record builder from it directly; :func:`parse_xml` feeds a
:class:`ParsedElement` sink, for callers that want a parse tree.
Neither recurses, so nesting depth is bounded by memory only.

**The text rule** (the single-text-value node model of the paper's
figures): a maximal run of character data between two markup events is
stripped and dropped if empty; a CDATA section's content is its own
part and is not stripped; comments and processing instructions end a
run; an element's value is its parts joined with one space, ``None``
when it has none.  So ``<a>one<b/>two</a>`` gives ``a`` the value
``"one two"`` and whitespace between elements vanishes.

Rejected, as :class:`~repro.errors.XMLParseError` with a 1-based line
and column: anything expat finds not well-formed (including NUL, the
non-characters U+FFFE/U+FFFF, a truncated document, an undefined
entity), a lone surrogate, and a DOCTYPE with an internal subset or an
external id — so no entity is ever declared, let alone expanded.  A
bare ``<!DOCTYPE name>`` is accepted and ignored.  Namespaces are not
processed: ``:`` is an ordinary name character.

XML 1.0 behaviour that differs from the earlier hand-rolled scanner:
attribute values have their whitespace characters normalised to
spaces; ``\\r\\n`` and ``\\r`` become ``\\n``; character references
are decoded before a run is stripped, so ``&#32;`` at a run's edge is
stripped too; a duplicate attribute is an error (the scanner kept the
last); ``:`` and non-ASCII letters are allowed in names.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional
from xml.parsers import expat

from ..errors import XMLParseError

StartHandler = Callable[[str, Dict[str, str]], None]
EndHandler = Callable[[Optional[str]], None]


@dataclass
class ParsedElement:
    """One element of the parse tree."""

    tag: str
    attrs: Dict[str, str] = field(default_factory=dict)
    text: Optional[str] = None
    children: List["ParsedElement"] = field(default_factory=list)

    def find_all(self, tag: str) -> List["ParsedElement"]:
        """All descendants (including self) with the given tag."""
        found = []
        stack = [self]
        while stack:
            node = stack.pop()
            if node.tag == tag:
                found.append(node)
            stack.extend(reversed(node.children))
        return found

    def size(self) -> int:
        """Number of elements in this subtree (attributes not counted)."""
        total = 0
        stack = [self]
        while stack:
            node = stack.pop()
            total += 1
            stack.extend(node.children)
        return total


class _Rejected(Exception):
    """Raised by a handler; located and re-raised by :func:`parse_events`."""


def parse_events(text: str, start: StartHandler, end: EndHandler) -> None:
    """Parse ``text``, calling ``start``/``end`` once per element.

    ``start(tag, attrs)`` fires in document order with the attributes in
    document order; ``end(value)`` fires when the element closes, with
    its value under the text rule of this module.
    """
    parser = expat.ParserCreate()
    parser.buffer_text = True
    run: List[str] = []  # character data of the run being read
    parts: List[str] = []  # closed text parts of all open elements
    marks: List[int] = []  # where each open element's parts begin

    def close_run(*_: object) -> None:
        if run:
            value = "".join(run).strip()
            run.clear()
            if value:
                parts.append(value)

    def start_element(tag: str, attrs: Dict[str, str]) -> None:
        close_run()
        marks.append(len(parts))
        start(tag, attrs)

    def end_element(_tag: str) -> None:
        close_run()
        mark = marks.pop()
        if len(parts) > mark:
            end(" ".join(parts[mark:]))
            del parts[mark:]
        else:
            end(None)

    def end_cdata() -> None:
        parts.append("".join(run))
        run.clear()

    def doctype(
        _name: str,
        system_id: Optional[str],
        public_id: Optional[str],
        has_internal_subset: int,
    ) -> None:
        if system_id or public_id or has_internal_subset:
            raise _Rejected(
                "DOCTYPE with an internal subset or external id"
            )

    parser.StartElementHandler = start_element
    parser.EndElementHandler = end_element
    parser.CharacterDataHandler = run.append
    parser.CommentHandler = close_run
    parser.ProcessingInstructionHandler = close_run
    parser.StartCdataSectionHandler = close_run
    parser.EndCdataSectionHandler = end_cdata
    parser.StartDoctypeDeclHandler = doctype
    try:
        parser.Parse(text, True)
    except expat.ExpatError as error:
        raise XMLParseError(
            expat.ErrorString(error.code), error.lineno, error.offset + 1
        ) from None
    except _Rejected as error:
        raise XMLParseError(
            str(error),
            parser.CurrentLineNumber,
            parser.CurrentColumnNumber + 1,
        ) from None
    except UnicodeEncodeError as error:  # e.g. a lone surrogate
        pos = error.start
        raise XMLParseError(
            f"unencodable character {text[pos]!r}",
            text.count("\n", 0, pos) + 1,
            pos - text.rfind("\n", 0, pos),
        ) from None


def parse_xml(text: str) -> ParsedElement:
    """Parse XML text and return the root :class:`ParsedElement`."""
    holder = ParsedElement("")  # parent of the document element
    open_elements = [holder]

    def start(tag: str, attrs: Dict[str, str]) -> None:
        element = ParsedElement(tag, attrs)
        open_elements[-1].children.append(element)
        open_elements.append(element)

    def end(value: Optional[str]) -> None:
        open_elements.pop().text = value

    parse_events(text, start, end)
    return holder.children[0]
