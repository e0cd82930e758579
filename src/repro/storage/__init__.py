"""The pluggable persistence layer (tables, blobs, snapshots).

Every stateful component of the reproduction — the NJS write-ahead
journal and outcome store, UUDB mappings, resource pages — persists
through one :class:`StorageBackend` interface, selected end to end via
``build_grid(storage=...)`` (or the ``REPRO_STORAGE`` environment
variable).  ``"memory"`` is the deterministic zero-dependency default;
``"sqlite"`` provides real durability in ``:memory:`` or a file.  See
:mod:`repro.storage.backend` for the interface and
:mod:`repro.grid.snapshot` for whole-grid checkpoint/warm-restart built
on top of it.
"""

from repro.storage.backend import (
    StorageBackend,
    StorageSpec,
    Table,
    resolve_storage,
)
from repro.storage.codec import decode_value, encode_value, from_plain, to_plain
from repro.storage.errors import SnapshotError, StorageError
from repro.storage.journal import JobJournal, JournalEntry
from repro.storage.memory import MemoryBackend
from repro.storage.outcomes import OutcomeRecord, OutcomeStore
from repro.storage.sqlite import SQLiteBackend

__all__ = [
    "JobJournal",
    "JournalEntry",
    "MemoryBackend",
    "OutcomeRecord",
    "OutcomeStore",
    "SQLiteBackend",
    "SnapshotError",
    "StorageBackend",
    "StorageError",
    "StorageSpec",
    "Table",
    "decode_value",
    "encode_value",
    "from_plain",
    "resolve_storage",
    "to_plain",
]
