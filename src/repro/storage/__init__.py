"""Storage substrate: parser, paged node store, indexes, buffer pool."""

from .database import DEFAULT_POOL_PAGES, Database
from .document import Document
from .indexes import ENTRIES_PER_PAGE, TagIndex, ValueIndex
from .page import NODES_PER_PAGE, BufferPool
from .postings import EMPTY_POSTINGS, Postings
from .stats import Metrics, QueryReport
from .xml_parser import ParsedElement, parse_xml
from .xml_serializer import serialize_parsed, serialize_result, serialize_stored

__all__ = [
    "DEFAULT_POOL_PAGES",
    "Database",
    "Document",
    "ENTRIES_PER_PAGE",
    "TagIndex",
    "ValueIndex",
    "NODES_PER_PAGE",
    "BufferPool",
    "EMPTY_POSTINGS",
    "Postings",
    "Metrics",
    "QueryReport",
    "ParsedElement",
    "parse_xml",
    "serialize_parsed",
    "serialize_result",
    "serialize_stored",
]
