"""The pluggable persistence interface: tables, blobs, and batches.

Section 4.2 makes the NJS the single stateful tier between users and
batch systems; this module defines the storage surface that state lives
behind, mirroring the transport split of :mod:`repro.net.transport`:

``"memory"``
    :class:`repro.storage.memory.MemoryBackend` — deterministic,
    zero-dependency dictionaries.  The default everywhere.

``"sqlite"``
    :class:`repro.storage.sqlite.SQLiteBackend` — real durability via
    the stdlib ``sqlite3``, either ``:memory:`` or an on-disk file.

The surface is deliberately tiny: named key/value **tables**
(:class:`Table`), one content-addressed **blob store**
(:class:`BlobStore`) holding every byte string a job persists (file
bodies, the consigned AJO, the encoded outcome), and a transactional
:meth:`StorageBackend.batch` grouping writes into one durable unit.
Every stateful component — the NJS journal and outcome store, UUDB
mappings, resource pages — persists through these calls only, so
flipping the backend never touches component logic.

Tables carry *metadata*, each row one value of the :mod:`repro.asn1`
codec, encoded on every put and decoded on every get by both backends
alike: a tuple comes back as a list, and a value the codec refuses (a
non-``str`` map key, an object) is a ``TypeError`` at the put.  The
byte strings a job persists never ride a row.  A record names each by
digest (files through a ``{path: digest}`` manifest) and the bytes go
to the blob store raw, once per distinct content however many records
name it.

Backend choice is one argument end to end: ``build_grid(storage=...)``
accepts a name, a ``"sqlite:/path/site.db"`` spec string, or a
:class:`StorageSpec`; ``None`` defers to the ``REPRO_STORAGE``
environment variable (so a whole test suite flips backends with no
per-test opt-ins) and finally to ``"memory"``.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import typing
from dataclasses import dataclass, field

from repro import asn1
from repro.storage.errors import StorageError
from repro.vfs.body import FileBody

if typing.TYPE_CHECKING:  # pragma: no cover
    import types

    from repro.observability.metrics import MetricsRegistry

__all__ = [
    "Table",
    "BlobStore",
    "StorageBackend",
    "StorageSpec",
    "resolve_storage",
]

#: Environment variable consulted when no explicit spec is given.
STORAGE_ENV = "REPRO_STORAGE"


class Table:
    """A named key/value table (string keys, :mod:`repro.asn1` values)."""

    def __init__(self, backend: "StorageBackend", name: str) -> None:
        self._backend = backend
        self.name = name

    def get(self, key: str, default: object = None) -> object:
        data = self._backend._table_get(self.name, key)
        if data is None:
            return default
        self._backend._count_read(len(data))
        return asn1.decode(data, StorageError)

    def put(self, key: str, value: object) -> None:
        data = asn1.encode(value)
        self._backend._table_put(self.name, key, data)
        self._backend._count_write(len(data))

    def delete(self, key: str) -> None:
        """Remove ``key`` (missing keys are fine)."""
        self._backend._table_delete(self.name, key)
        self._backend._count_write(0)

    def keys(self) -> list[str]:
        return self._backend._table_keys(self.name)

    def items(self) -> list[tuple[str, object]]:
        """Every row in key order: one scan, not a lookup per key."""
        rows = self._backend._table_dump(self.name)
        self._backend._count_read(sum(len(data) for _, data in rows))
        return [(key, asn1.decode(data, StorageError)) for key, data in rows]

    @contextlib.contextmanager
    def shaped(self, key: str) -> typing.Iterator[None]:
        """Wrap the one step that turns row ``key`` into a typed value: a
        row of the wrong shape is a :class:`StorageError` naming it."""
        try:
            yield
        except (LookupError, TypeError, ValueError) as err:
            raise StorageError(
                f"table {self.name!r} row {key!r} has the wrong shape "
                f"({type(err).__name__}: {err})"
            ) from None

    def __contains__(self, key: str) -> bool:
        return self._backend._table_get(self.name, key) is not None

    def __len__(self) -> int:
        return len(self.keys())


class BlobStore:
    """Content-addressed file bodies: sha256 hex digest -> raw bytes.

    Bodies are refcounted: every :meth:`put` takes one reference, every
    :meth:`release` drops one, and a body whose count reaches zero is
    deleted in the same batch.  Holders (journal entries, outcome
    records) keep ``{path: digest}`` manifests and call :meth:`put`,
    :meth:`get` and :meth:`release` inside the batch that writes or
    deletes the record naming them.

    The key of a body is the digest its :class:`~repro.vfs.FileBody`
    holds: content this site has persisted before is not hashed again.
    """

    def __init__(self, backend: "StorageBackend") -> None:
        self._backend = backend

    def put(self, content: FileBody | bytes | bytearray) -> str:
        """Store ``content`` (or take one more reference to it); its digest."""
        backend = self._backend
        body = FileBody.of(content)
        digest = body.digest
        if backend._blob_put(digest, body.data):
            backend._count_write(len(body))
        else:
            backend._count_write(0)
            backend._count_dedup_hit()
        return digest

    def get(self, digest: str) -> bytes:
        body = self._backend._blob_get(digest)
        if body is None:
            raise StorageError(f"no blob {digest!r} in the blob store")
        self._backend._count_read(len(body))
        return body

    def release(self, digest: str) -> None:
        """Drop one reference; the last one deletes the body."""
        if not self._backend._blob_release(digest):
            raise StorageError(f"release of unknown blob {digest!r}")
        self._backend._count_write(0)

    def body(self, digest: str) -> FileBody:
        """:meth:`get` as a body that knows the key it was read under,
        around the bytes this process already holds when it holds them
        (:meth:`FileBody.received`): a restored file read again and again
        is not a copy per read."""
        return FileBody.received(self.get(digest), digest=digest)

    def put_files(
        self, files: typing.Mapping[str, FileBody | bytes]
    ) -> dict[str, str]:
        """Store every body of a ``{path: content}`` map; its manifest."""
        return {path: self.put(body) for path, body in files.items()}

    def release_files(self, manifest: typing.Mapping[str, str]) -> None:
        for digest in manifest.values():
            self.release(digest)

    def digests(self) -> list[str]:
        """Every live digest, sorted."""
        return self._backend._blob_digests()

    def __contains__(self, digest: str) -> bool:
        return self._backend._blob_get(digest) is not None

    def __len__(self) -> int:
        return len(self._backend._blob_digests())


class StorageBackend:
    """Abstract persistence backend: tables + blobs + batches.

    Subclasses implement the underscore primitives; the public surface
    (:meth:`table`, :meth:`batch`, :meth:`dump`, :meth:`load`) plus all
    instrumentation is shared here.

    Counters (``writes``, ``reads``, ``fsyncs``, ``bytes_written``,
    ``bytes_read``, ``blob_dedup_hits``) are plain attributes always
    maintained, and mirror into a
    :class:`~repro.observability.MetricsRegistry` once
    :meth:`bind_metrics` attaches one (``storage.writes`` et al.).
    ``bytes_written`` / ``bytes_read`` count bytes that reached the
    backend: a blob put that only takes a reference writes 0 bytes.
    """

    #: Name of the backend (``"memory"``, ``"sqlite"``).
    kind: str = "abstract"

    def __init__(self) -> None:
        self.writes = 0
        self.reads = 0
        self.fsyncs = 0
        self.bytes_written = 0
        self.bytes_read = 0
        self.blob_dedup_hits = 0
        #: The backend's one content-addressed file-body store.
        self.blobs = BlobStore(self)
        self._metrics: MetricsRegistry | None = None
        self._batch_depth = 0

    # -- public surface ------------------------------------------------------
    def table(self, name: str) -> Table:
        return Table(self, name)

    def batch(self) -> typing.ContextManager[None]:
        """Group writes into one durable unit (one fsync, all-or-nothing)."""
        return _Batch(self)

    def bind_metrics(self, registry: "MetricsRegistry") -> None:
        """Mirror the storage counters into a metrics registry."""
        self._metrics = registry

    def close(self) -> None:
        """Release backend resources (no-op by default)."""

    # -- snapshot support ----------------------------------------------------
    def dump(self) -> dict[str, typing.Any]:
        """The entire backend contents as one value: every table's rows
        decoded, every blob's body raw."""
        tables = {
            name: {
                key: asn1.decode(data, StorageError)
                for key, data in self._table_dump(name)
            }
            for name in self._table_names()
        }
        blobs = {
            digest: {"refs": refs, "body": body}
            for digest, refs, body in self._blob_dump()
        }
        return {"tables": tables, "blobs": blobs}

    def load(self, dump: dict[str, typing.Any]) -> None:
        """Replace the backend contents with a :meth:`dump`."""
        blobs = []
        for digest, blob in dump.get("blobs", {}).items():
            body = blob["body"]
            # Never trusted, always read: the check that catches a body
            # stored under a key it does not hash to.
            if (not isinstance(body, bytes)
                    or hashlib.sha256(body).hexdigest() != digest):
                raise StorageError(f"blob {digest!r} does not match its digest")
            blobs.append((digest, int(blob["refs"]), body))
        self._clear()
        with self.batch():
            for name, rows in dump.get("tables", {}).items():
                for key, value in rows.items():
                    self._table_put(name, key, asn1.encode(value))
            for digest, refs, body in blobs:
                self._blob_load(digest, refs, body)

    # -- instrumentation -----------------------------------------------------
    def _count_write(self, nbytes: int) -> None:
        self.writes += 1
        self.bytes_written += nbytes
        if self._metrics is not None:
            self._metrics.counter("storage.writes").inc()
            self._metrics.counter("storage.bytes").inc(nbytes)
        if self._batch_depth == 0:
            self._count_fsync()

    def _count_read(self, nbytes: int) -> None:
        self.reads += 1
        self.bytes_read += nbytes
        if self._metrics is not None:
            self._metrics.counter("storage.reads").inc()
            self._metrics.counter("storage.bytes_read").inc(nbytes)

    def _count_dedup_hit(self) -> None:
        self.blob_dedup_hits += 1
        if self._metrics is not None:
            self._metrics.counter("storage.blob.dedup_hits").inc()

    def _count_fsync(self) -> None:
        self.fsyncs += 1
        if self._metrics is not None:
            self._metrics.counter("storage.fsyncs").inc()

    # -- primitives (subclass responsibility) --------------------------------
    def _table_get(self, table: str, key: str) -> bytes | None:
        raise NotImplementedError

    def _table_put(self, table: str, key: str, data: bytes) -> None:
        raise NotImplementedError

    def _table_delete(self, table: str, key: str) -> None:
        raise NotImplementedError

    def _table_keys(self, table: str) -> list[str]:
        raise NotImplementedError

    def _table_dump(self, table: str) -> list[tuple[str, bytes]]:
        raise NotImplementedError

    def _table_names(self) -> list[str]:
        raise NotImplementedError

    def _blob_put(self, digest: str, body: bytes) -> bool:
        """Take one reference to ``digest``; True when the body was new."""
        raise NotImplementedError

    def _blob_get(self, digest: str) -> bytes | None:
        raise NotImplementedError

    def _blob_release(self, digest: str) -> bool:
        """Drop one reference (deleting at zero); False when unknown."""
        raise NotImplementedError

    def _blob_digests(self) -> list[str]:
        raise NotImplementedError

    def _blob_dump(self) -> list[tuple[str, int, bytes]]:
        """``(digest, refs, body)`` of every live blob, digest-sorted."""
        raise NotImplementedError

    def _blob_load(self, digest: str, refs: int, body: bytes) -> None:
        raise NotImplementedError

    def _clear(self) -> None:
        raise NotImplementedError

    # -- transaction hooks ---------------------------------------------------
    def _begin(self) -> None:
        """Start a durable unit (outermost batch only)."""
        raise NotImplementedError

    def _commit(self) -> None:
        """Commit the durable unit (outermost batch only)."""
        raise NotImplementedError

    def _rollback(self) -> None:
        """Undo every write of the durable unit after an error."""
        raise NotImplementedError


class _Batch:
    """Reentrant batch context: one fsync at the outermost commit."""

    def __init__(self, backend: StorageBackend) -> None:
        self._backend = backend

    def __enter__(self) -> None:
        if self._backend._batch_depth == 0:
            self._backend._begin()
        self._backend._batch_depth += 1

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: types.TracebackType | None,
    ) -> None:
        self._backend._batch_depth -= 1
        if self._backend._batch_depth == 0:
            if exc_type is None:
                self._backend._commit()
                self._backend._count_fsync()
            else:
                self._backend._rollback()


@dataclass(frozen=True)
class StorageSpec:
    """A declarative backend choice: backend name plus options.

    Accepted anywhere storage is chosen (``build_grid(storage=...)``,
    ``Usite(storage=...)``) in any of these spellings::

        build_grid(sites)                                  # default "memory"
        build_grid(sites, storage="sqlite")                # by name
        build_grid(sites, storage="sqlite:/tmp/site.db")   # name:path
        build_grid(sites, storage=StorageSpec("sqlite", {"path": "x.db"}))

    ``parse(None)`` consults the ``REPRO_STORAGE`` environment variable
    (same spellings) before falling back to ``"memory"`` — that one hook
    flips an entire test suite onto SQLite with no per-test opt-ins.
    """

    kind: str = "memory"
    options: typing.Mapping[str, object] = field(default_factory=dict)

    @classmethod
    def parse(cls, value: "StorageSpec | str | None") -> "StorageSpec":
        """Coerce ``None`` / a name / a ``name:path`` string into a spec."""
        if value is None:
            value = os.environ.get(STORAGE_ENV) or "memory"
        if isinstance(value, cls):
            return value
        if isinstance(value, str):
            kind, _, path = value.partition(":")
            if path:
                return cls(kind=kind, options={"path": path})
            return cls(kind=kind)
        raise TypeError(
            f"storage must be a StorageSpec, backend name, or None; "
            f"got {value!r}"
        )


def resolve_storage(spec: "StorageSpec | str | None" = None) -> StorageBackend:
    """Instantiate the backend a spec names: ``"memory"`` or ``"sqlite"``.

    Raises :class:`StorageError` for any other kind.
    """
    parsed = StorageSpec.parse(spec)
    options = typing.cast("dict[str, typing.Any]", dict(parsed.options))
    if parsed.kind == "memory":
        from repro.storage.memory import MemoryBackend

        return MemoryBackend(**options)
    if parsed.kind == "sqlite":
        from repro.storage.sqlite import SQLiteBackend

        return SQLiteBackend(**options)
    raise StorageError(
        f"unknown storage backend {parsed.kind!r}; choose memory or sqlite"
    )
