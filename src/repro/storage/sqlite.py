"""Real durability via the stdlib ``sqlite3``.

One database file (or ``:memory:``) holds every table and blob of a
deployment in two relations::

    kv   (tbl TEXT, key TEXT, value BLOB)          -- the named tables
    blobs(digest TEXT, refs INTEGER, body BLOB)    -- the blob store

``kv`` values are :mod:`repro.asn1` encodings and ``body`` is raw content
(a file body, an AJO or an outcome encoding), so a database written by
one process is readable by a cold-started successor — the restart
story of the persistence layer.  :meth:`StorageBackend.batch` maps to a
real transaction: either every record of a consignment lands, bodies
included, or none does.

The file is stamped with its layout (``PRAGMA user_version``); a file
written under another layout is refused, never reinterpreted.
"""

from __future__ import annotations

import sqlite3

from repro.storage.backend import StorageBackend
from repro.storage.errors import StorageError

__all__ = ["SQLiteBackend", "FORMAT_VERSION"]

#: Stamped into ``PRAGMA user_version``.  1 (never stamped, so 0 on
#: disk) kept file bodies inside its rows as text; 2 kept the NJS journal
#: as an append-only ``logs`` relation; 3 kept the AJO and outcome
#: encodings inside the journal and outcome rows; 4 encoded the ``kv``
#: values as JSON text, byte strings included; 5 kept a correlation
#: ticket in a forwarded group's consign row.
FORMAT_VERSION = 6

_SCHEMA = """
CREATE TABLE kv (
    tbl   TEXT NOT NULL,
    key   TEXT NOT NULL,
    value BLOB NOT NULL,
    PRIMARY KEY (tbl, key)
);
CREATE TABLE blobs (
    digest TEXT PRIMARY KEY,
    refs   INTEGER NOT NULL,
    body   BLOB NOT NULL
);
"""


class SQLiteBackend(StorageBackend):
    """SQLite behind the :class:`StorageBackend` interface."""

    kind = "sqlite"

    def __init__(self, path: str = ":memory:") -> None:
        super().__init__()
        self.path = path
        self._conn = sqlite3.connect(path)
        # The simulation is single-threaded and batches explicitly;
        # autocommit mode keeps the transaction boundaries ours alone.
        self._conn.isolation_level = None
        self._open_schema()

    def _open_schema(self) -> None:
        """Create the relations in an empty file; refuse a foreign layout."""
        (tables,) = self._conn.execute(
            "SELECT COUNT(*) FROM sqlite_master WHERE type = 'table'"
        ).fetchone()
        if not tables:
            self._conn.executescript(
                f"{_SCHEMA}PRAGMA user_version = {FORMAT_VERSION};"
            )
            return
        (version,) = self._conn.execute("PRAGMA user_version").fetchone()
        if version != FORMAT_VERSION:
            self._conn.close()
            raise StorageError(
                f"{self.path}: storage format {version} not supported "
                f"(expected {FORMAT_VERSION})"
            )

    def close(self) -> None:
        self._conn.close()

    # -- table primitives ----------------------------------------------------
    def _table_get(self, table: str, key: str) -> bytes | None:
        row = self._conn.execute(
            "SELECT value FROM kv WHERE tbl = ? AND key = ?", (table, key)
        ).fetchone()
        return None if row is None else bytes(row[0])

    def _table_put(self, table: str, key: str, data: bytes) -> None:
        self._conn.execute(
            "INSERT OR REPLACE INTO kv (tbl, key, value) VALUES (?, ?, ?)",
            (table, key, data),
        )

    def _table_delete(self, table: str, key: str) -> None:
        self._conn.execute(
            "DELETE FROM kv WHERE tbl = ? AND key = ?", (table, key)
        )

    def _table_keys(self, table: str) -> list[str]:
        return [
            row[0]
            for row in self._conn.execute(
                "SELECT key FROM kv WHERE tbl = ? ORDER BY key", (table,)
            )
        ]

    def _table_dump(self, table: str) -> list[tuple[str, bytes]]:
        return [
            (row[0], bytes(row[1]))
            for row in self._conn.execute(
                "SELECT key, value FROM kv WHERE tbl = ? ORDER BY key",
                (table,),
            )
        ]

    def _table_names(self) -> list[str]:
        return [
            row[0]
            for row in self._conn.execute(
                "SELECT DISTINCT tbl FROM kv ORDER BY tbl"
            )
        ]

    # -- blob primitives -----------------------------------------------------
    def _blob_put(self, digest: str, body: bytes) -> bool:
        cursor = self._conn.execute(
            "UPDATE blobs SET refs = refs + 1 WHERE digest = ?", (digest,)
        )
        if cursor.rowcount:
            return False
        self._blob_load(digest, 1, body)
        return True

    def _blob_get(self, digest: str) -> bytes | None:
        row = self._conn.execute(
            "SELECT body FROM blobs WHERE digest = ?", (digest,)
        ).fetchone()
        return None if row is None else bytes(row[0])

    def _blob_release(self, digest: str) -> bool:
        cursor = self._conn.execute(
            "UPDATE blobs SET refs = refs - 1 WHERE digest = ?", (digest,)
        )
        if not cursor.rowcount:
            return False
        self._conn.execute(
            "DELETE FROM blobs WHERE digest = ? AND refs = 0", (digest,)
        )
        return True

    def _blob_digests(self) -> list[str]:
        return [
            row[0]
            for row in self._conn.execute(
                "SELECT digest FROM blobs ORDER BY digest"
            )
        ]

    def _blob_dump(self) -> list[tuple[str, int, bytes]]:
        return [
            (row[0], int(row[1]), bytes(row[2]))
            for row in self._conn.execute(
                "SELECT digest, refs, body FROM blobs ORDER BY digest"
            )
        ]

    def _blob_load(self, digest: str, refs: int, body: bytes) -> None:
        self._conn.execute(
            "INSERT INTO blobs (digest, refs, body) VALUES (?, ?, ?)",
            (digest, refs, body),
        )

    def _clear(self) -> None:
        self._conn.execute("DELETE FROM kv")
        self._conn.execute("DELETE FROM blobs")

    # -- transactions --------------------------------------------------------
    def _begin(self) -> None:
        self._conn.execute("BEGIN")

    def _commit(self) -> None:
        self._conn.execute("COMMIT")

    def _rollback(self) -> None:
        self._conn.execute("ROLLBACK")
