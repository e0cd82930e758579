"""The default in-process backend: deterministic, zero-dependency.

Table values still pass through the :mod:`repro.asn1` codec on every
write and read, so the in-memory backend has *exactly* the round-trip
semantics of SQLite (tuples come back as lists, a non-``str`` dict key
is refused at the put) — a test that passes here passes there.  The
blob store is the exception by design: a blob is raw bytes in both
backends, so this one keeps a reference to the caller's immutable
``bytes`` object instead of a copy.

Batches are all-or-nothing like SQLite's: every mutating primitive
called inside a batch pushes its inverse onto a per-batch undo list,
and a batch that ends in an exception runs the list backwards.
"""

from __future__ import annotations

import typing

from repro.storage.backend import StorageBackend

__all__ = ["MemoryBackend"]


def _restore_row(rows: dict[str, bytes], key: str, old: bytes | None) -> None:
    if old is None:
        rows.pop(key, None)
    else:
        rows[key] = old


class MemoryBackend(StorageBackend):
    """Dictionaries behind the :class:`StorageBackend` interface."""

    kind = "memory"

    def __init__(self) -> None:
        super().__init__()
        self._tables: dict[str, dict[str, bytes]] = {}
        self._blob_refs: dict[str, int] = {}
        self._blob_bodies: dict[str, bytes] = {}
        #: Inverses of the open batch's writes; None outside a batch.
        self._undo: list[typing.Callable[[], object]] | None = None

    # -- table primitives ----------------------------------------------------
    def _table_get(self, table: str, key: str) -> bytes | None:
        return self._tables.get(table, {}).get(key)

    def _table_put(self, table: str, key: str, data: bytes) -> None:
        rows = self._tables.setdefault(table, {})
        if self._undo is not None:
            old = rows.get(key)
            self._undo.append(lambda: _restore_row(rows, key, old))
        rows[key] = data

    def _table_delete(self, table: str, key: str) -> None:
        rows = self._tables.get(table, {})
        old = rows.pop(key, None)
        if self._undo is not None:
            self._undo.append(lambda: _restore_row(rows, key, old))

    def _table_keys(self, table: str) -> list[str]:
        return sorted(self._tables.get(table, {}))

    def _table_dump(self, table: str) -> list[tuple[str, bytes]]:
        rows = self._tables.get(table, {})
        return [(key, rows[key]) for key in sorted(rows)]

    def _table_names(self) -> list[str]:
        return sorted(name for name, rows in self._tables.items() if rows)

    # -- blob primitives -----------------------------------------------------
    def _blob_put(self, digest: str, body: bytes) -> bool:
        refs = self._blob_refs.get(digest, 0)
        self._blob_refs[digest] = refs + 1
        if refs == 0:
            # bytes(b) of a bytes object is that object: a reference, no copy.
            self._blob_bodies[digest] = bytes(body)
        if self._undo is not None:
            self._undo.append(lambda: self._blob_release(digest))
        return refs == 0

    def _blob_get(self, digest: str) -> bytes | None:
        return self._blob_bodies.get(digest)

    def _blob_release(self, digest: str) -> bool:
        refs = self._blob_refs.get(digest)
        if refs is None:
            return False
        if self._undo is not None:
            body = self._blob_bodies[digest]
            self._undo.append(lambda: self._blob_put(digest, body))
        if refs == 1:
            del self._blob_refs[digest]
            del self._blob_bodies[digest]
        else:
            self._blob_refs[digest] = refs - 1
        return True

    def _blob_digests(self) -> list[str]:
        return sorted(self._blob_refs)

    def _blob_dump(self) -> list[tuple[str, int, bytes]]:
        return [
            (digest, self._blob_refs[digest], self._blob_bodies[digest])
            for digest in sorted(self._blob_refs)
        ]

    def _blob_load(self, digest: str, refs: int, body: bytes) -> None:
        self._blob_refs[digest] = refs
        self._blob_bodies[digest] = body

    def _clear(self) -> None:
        self._tables.clear()
        self._blob_refs.clear()
        self._blob_bodies.clear()

    # -- transactions --------------------------------------------------------
    def _begin(self) -> None:
        self._undo = []

    def _commit(self) -> None:
        self._undo = None

    def _rollback(self) -> None:
        undo, self._undo = self._undo or [], None
        for inverse in reversed(undo):
            inverse()
