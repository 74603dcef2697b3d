"""Serialisation of parse trees, stored subtrees and result trees to XML."""

from __future__ import annotations

from typing import List

from ..model.tree import TNode, write_xml
from .document import Document
from .xml_parser import ParsedElement


def escape_text(text: str) -> str:
    """Escape XML character data."""
    return (
        text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    )


def escape_attr(text: str) -> str:
    """Escape XML attribute content (double-quoted)."""
    return escape_text(text).replace('"', "&quot;")


def serialize_parsed(element: ParsedElement, indent: int = 0) -> str:
    """Pretty-print a :class:`ParsedElement` tree as XML text."""
    pad = "  " * indent
    attrs = "".join(
        f' {name}="{escape_attr(value)}"'
        for name, value in element.attrs.items()
    )
    if not element.children and element.text is None:
        return f"{pad}<{element.tag}{attrs}/>"
    if not element.children:
        return (
            f"{pad}<{element.tag}{attrs}>"
            f"{escape_text(element.text or '')}</{element.tag}>"
        )
    lines: List[str] = [f"{pad}<{element.tag}{attrs}>"]
    if element.text:
        lines.append(f"{pad}  {escape_text(element.text)}")
    for child in element.children:
        lines.append(serialize_parsed(child, indent + 1))
    lines.append(f"{pad}</{element.tag}>")
    return "\n".join(lines)


def serialize_stored(document: Document, record_idx: int = 0) -> str:
    """Serialise a stored subtree back to XML (unmetered; for tests).

    The synthetic ``doc_root`` wrapper is skipped when serialising from the
    top so round-trips return the original document element.
    """
    while document.tags[record_idx] == "doc_root":
        children = document.child_indexes(record_idx)
        if len(children) != 1:
            break
        record_idx = children[0]
    return write_xml(document.tree(record_idx), escape_text)


def serialize_result(node: TNode) -> str:
    """Serialise a result tree node (delegates to :meth:`TNode.to_xml`)."""
    return node.to_xml()
