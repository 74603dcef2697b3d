"""Binary persistence for the node store.

TIMBER is a disk-resident database; this module gives the substrate a
durable format so generated XMark documents (expensive to rebuild at
large factors) can be saved once and reopened instantly.  The format is
a compact little-endian layout:

* header: magic ``TLCDB``, format version, document count;
* per document: name, a string table (tags and values are interned),
  then the record array — ``tag_ref, value_ref, start, end, level,
  parent, n_children, children…`` as varint-free fixed 32-bit fields.

Indexes are rebuilt on load (they derive from the records; rebuilding is
linear and keeps the format minimal).  The reader decodes straight into
the document's columns; ``start`` and the child lists follow from the
other fields, so it checks them against the layout instead of storing
them, and a file whose records are not one pre-order tree is refused.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import (
    BinaryIO,
    Dict,
    Iterator,
    List,
    Optional,
    Protocol,
    Tuple,
    Union,
)

from ..errors import StorageError
from .database import Database
from .document import Columns, Document

MAGIC = b"TLCDB"
VERSION = 1

_U32 = struct.Struct("<I")
_I32 = struct.Struct("<i")
_HEADER = struct.Struct("<5sBI")
# tag, value, start, end, level, parent, n_children
_RECORD_FIXED = struct.Struct("<IiIIIiI")


class _Sink(Protocol):
    """What the writers need of a stream (a file, or a hashing tee)."""

    def write(self, __data: bytes) -> int: ...


def _write_u32(stream: _Sink, value: int) -> None:
    stream.write(_U32.pack(value))


def _read_u32(stream: BinaryIO) -> int:
    data = stream.read(4)
    if len(data) != 4:
        raise StorageError("truncated database file")
    return _U32.unpack(data)[0]


def _bytes_left(stream: BinaryIO) -> int:
    return os.fstat(stream.fileno()).st_size - stream.tell()


def _write_str(stream: _Sink, text: str) -> None:
    encoded = text.encode("utf-8")
    _write_u32(stream, len(encoded))
    stream.write(encoded)


def _read_str(stream: BinaryIO) -> str:
    length = _read_u32(stream)
    data = stream.read(length)
    if len(data) != length:
        raise StorageError("truncated database file")
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise StorageError(f"string is not valid UTF-8: {exc}") from None


def save_database(db: Database, path: Union[str, Path]) -> None:
    """Write every document of ``db`` to ``path`` in the TLCDB format."""
    with open(path, "wb") as stream:
        _write_database(db, stream)


def _write_database(db: Database, stream: _Sink) -> None:
    names = db.document_names()
    stream.write(_HEADER.pack(MAGIC, VERSION, len(names)))
    for name in names:
        _save_document(stream, db.document(name))


def _save_document(stream: _Sink, document: Document) -> None:
    _write_str(stream, document.name)
    strings: Dict[str, int] = {}
    order: List[str] = []

    def intern(text: str) -> int:
        if text not in strings:
            strings[text] = len(order)
            order.append(text)
        return strings[text]

    # first pass: build the string table (value index 0 = the None marker)
    intern("")  # reserved: None values reference slot 0 via flag -1 below
    refs = [
        (intern(tag), -1 if value is None else intern(value))
        for tag, value in zip(document.tags, document.values)
    ]
    _write_u32(stream, len(order))
    for text in order:
        _write_str(stream, text)
    _write_u32(stream, len(refs))
    ends, levels, parents = document.ends, document.levels, document.parents
    records = bytearray()
    for idx, (tag_ref, value_ref) in enumerate(refs):
        children = document.child_indexes(idx)
        level = levels[idx]
        records += _RECORD_FIXED.pack(
            tag_ref,
            value_ref,
            2 * idx - level + 1,
            ends[idx],
            level,
            parents[idx],
            len(children),
        )
        for child in children:
            records += _U32.pack(child)
    stream.write(records)


def load_database(
    path: Union[str, Path], pool_pages: Optional[int] = None
) -> Database:
    """Open a TLCDB file as a fresh :class:`Database` (indexes rebuilt)."""
    from .database import DEFAULT_POOL_PAGES

    db = Database(pool_pages or DEFAULT_POOL_PAGES)
    with open(path, "rb") as stream:
        header = stream.read(_HEADER.size)
        if len(header) != _HEADER.size:
            raise StorageError(f"{path}: not a TLCDB file")
        magic, version, n_docs = _HEADER.unpack(header)
        if magic != MAGIC:
            raise StorageError(f"{path}: bad magic {magic!r}")
        if version != VERSION:
            raise StorageError(
                f"{path}: unsupported format version {version}"
            )
        for _ in range(n_docs):
            _load_document(stream, db)
    return db


def _load_document(stream: BinaryIO, db: Database) -> Document:
    name = _read_str(stream)
    return db._install(
        name,
        lambda doc_id: Document(name, doc_id, _read_columns(stream)),
    )


def _read_columns(stream: BinaryIO) -> Columns:
    """Decode one record array, checking it is one pre-order tree.

    Each record's parent must be open and one level up, its start must
    follow from its position, and it must be the parent's next listed
    child; a record's end and child list must close its subtree where
    the later records say it closes.  Otherwise :class:`StorageError`.
    """
    strings = [_read_str(stream) for _ in range(_read_u32(stream))]
    n_records = _read_u32(stream)
    # a tree lists every record but the root once as a child
    size = n_records * _RECORD_FIXED.size + 4 * (n_records - 1)
    if not n_records or size > _bytes_left(stream):
        raise StorageError(f"{n_records} records do not fit the file")
    block = stream.read(size)
    columns = Columns()
    tags, values = columns.tags, columns.values
    ends, levels, parents = columns.ends, columns.levels, columns.parents
    #: open records, innermost last, each with its unmatched children
    open_: List[Tuple[int, Iterator[int]]] = []

    def close(stop: int) -> None:
        idx, children = open_.pop()
        unmatched = next(children, None) is not None
        if unmatched or ends[idx] != 2 * stop - levels[idx]:
            raise StorageError(f"record {idx} does not close its subtree")

    offset = 0
    for idx in range(n_records):
        try:
            (tag_ref, value_ref, start, end, level, parent,
             n_children) = _RECORD_FIXED.unpack_from(block, offset)
            offset += _RECORD_FIXED.size
            listed = struct.unpack_from(f"<{n_children}I", block, offset)
        except struct.error:
            raise StorageError(f"record {idx} overruns its block") from None
        offset += 4 * n_children
        try:
            tag = strings[tag_ref]
            value = None if value_ref < 0 else strings[value_ref]
        except IndexError:
            raise StorageError(
                f"string reference out of range: record {idx} "
                f"names string {max(tag_ref, value_ref)} of {len(strings)}"
            ) from None
        while open_ and open_[-1][0] != parent:
            close(idx)
        if open_:
            in_place = next(open_[-1][1], None) == idx
        else:
            in_place = idx == 0 and parent == -1
        in_place = in_place and level == len(open_)
        if not in_place or start != 2 * idx - level + 1:
            raise StorageError(f"record {idx} is out of place")
        if not start < end <= 2 * n_records:
            raise StorageError(f"record {idx}: end {end} out of range")
        tags.append(tag)
        values.append(value)
        ends.append(end)
        levels.append(level)
        parents.append(parent)
        open_.append((idx, iter(listed)))
    while open_:
        close(n_records)
    return columns


@dataclass(frozen=True)
class SnapshotHandle:
    """A verifiable reference to a TLCDB snapshot on disk.

    The process-pool handshake: the dispatcher writes the immutable
    database once with :func:`write_snapshot` and ships the (tiny,
    picklable) handle to spawn-mode workers, each of which materializes
    its private copy with :func:`open_snapshot`.  The sha256 digest
    pins the exact bytes — a worker that finds different content (a
    concurrently rewritten temp file, a stale path from a previous
    serve run) fails loudly instead of silently answering queries
    against the wrong document set.
    """

    path: str
    #: sha256 hex digest of the snapshot file's bytes
    digest: str
    #: buffer-pool capacity the source database ran with, so workers
    #: reproduce its paging behaviour (and its counter profile)
    pool_pages: int


def _digest_file(path: Union[str, Path]) -> str:
    sha = hashlib.sha256()
    with open(path, "rb") as stream:
        for chunk in iter(lambda: stream.read(1 << 20), b""):
            sha.update(chunk)
    return sha.hexdigest()


class _HashingWriter:
    """A write-only stream that digests the bytes passing through it."""

    def __init__(self, stream: BinaryIO) -> None:
        self._stream = stream
        self.sha = hashlib.sha256()

    def write(self, data: bytes) -> int:
        self.sha.update(data)
        return self._stream.write(data)


def write_snapshot(db: Database, path: Union[str, Path]) -> SnapshotHandle:
    """Persist ``db`` and return the handle spawn-mode workers load.

    The bytes are digested as they are written and land in
    ``path + ".tmp"``, which replaces ``path`` only after an ``fsync``:
    a writer that dies part-way leaves the previous snapshot as it was,
    and a reader never sees a half-written file under the final name.
    """
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as stream:
            writer = _HashingWriter(stream)
            _write_database(db, writer)
            stream.flush()
            os.fsync(stream.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise
    return SnapshotHandle(
        path=str(path),
        digest=writer.sha.hexdigest(),
        pool_pages=db.pool.capacity,
    )


def open_snapshot(handle: SnapshotHandle) -> Database:
    """Load a snapshot, verifying its digest before trusting a byte."""
    actual = _digest_file(handle.path)
    if actual != handle.digest:
        raise StorageError(
            f"{handle.path}: snapshot digest mismatch "
            f"(expected {handle.digest[:12]}…, found {actual[:12]}…); "
            "refusing to serve queries against unverified data"
        )
    return load_database(handle.path, pool_pages=handle.pool_pages)
