"""Binary persistence for the node store.

TIMBER is a disk-resident database; this module gives the substrate a
durable format so generated XMark documents (expensive to rebuild at
large factors) can be saved once and reopened instantly.  The format is
a compact little-endian layout:

* header: magic ``TLCDB``, format version, document count;
* per document: name, a string table (tags and values are interned),
  the record count *n*, then three int32 columns of *n* entries in
  document order — tag ref, value ref (−1 for no value), level.

In a pre-order store the levels fix every interval id and parent
(:meth:`Columns.from_levels <repro.storage.document.Columns.from_levels>`),
so nothing else of the layout is stored, and a level sequence that is
not one pre-order tree is refused.  Indexes are rebuilt on load (they
derive from the records; rebuilding is linear and keeps the format
minimal).
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import struct
import sys
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Dict, Optional, Protocol, Union

from ..errors import StorageError
from .database import Database
from .document import Columns, Document

MAGIC = b"TLCDB"
VERSION = 2

_U32 = struct.Struct("<I")
_HEADER = struct.Struct("<5sBI")


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


def _little_endian(column: array) -> bytes:
    """The bytes of an int32 column in file (little-endian) order."""
    if sys.byteorder == "big":
        column = array("i", column)
        column.byteswap()
    return column.tobytes()


def _save_document(stream: _Sink, document: Document) -> None:
    _write_str(stream, document.name)
    strings: Dict[str, int] = {}

    def intern(text: str) -> int:
        return strings.setdefault(text, len(strings))

    tag_refs = array("i", map(intern, document.tags))
    value_refs = array(
        "i", [-1 if value is None else intern(value)
              for value in document.values]
    )
    _write_u32(stream, len(strings))
    for text in strings:
        _write_str(stream, text)
    _write_u32(stream, len(document))
    for column in (tag_refs, value_refs, document.levels):
        stream.write(_little_endian(column))


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


def _read_column(stream: BinaryIO, n_records: int) -> array:
    """One int32 column of ``n_records`` entries, in host order."""
    column = array("i")
    column.frombytes(stream.read(4 * n_records))
    if sys.byteorder == "big":
        column.byteswap()
    return column


def _read_columns(stream: BinaryIO) -> Columns:
    """Decode one document's columns, refusing refs out of range and
    levels that are not one pre-order tree (:class:`StorageError`)."""
    strings = [_read_str(stream) for _ in range(_read_u32(stream))]
    n_records = _read_u32(stream)
    if not n_records or 3 * 4 * n_records > _bytes_left(stream):
        raise StorageError(f"{n_records} records do not fit the file")
    tag_refs, value_refs, levels = (
        _read_column(stream, n_records) for _ in range(3)
    )
    if not (
        0 <= min(tag_refs) and max(tag_refs) < len(strings)
        and -1 <= min(value_refs) and max(value_refs) < len(strings)
    ):
        raise StorageError(
            f"string reference out of range of the {len(strings)} strings"
        )
    return Columns.from_levels(
        [strings[ref] for ref in tag_refs],
        [None if ref < 0 else strings[ref] for ref in value_refs],
        levels,
    )


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
