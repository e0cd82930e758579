"""Durable per-job outcome records: what survives when memory does not.

A finished job's observable surface — its status rollup, the encoded
outcome tree (stdout/stderr included), and the Uspace files the user may
still fetch — is written here, and the row's existence is what *makes*
the job finished: the journal keeps no "done" mark of its own (see
:mod:`repro.storage.journal`).  A cold-started NJS rebuilds finished
jobs from one scan of this table (:meth:`OutcomeStore.records`) as
:class:`~repro.server.njs.restored.RestoredRun` views, so completion
survives a full-site restart exactly as section 4.2's "single stateful
tier" demands, and disposal deletes the record just like it destroys
the Uspaces.

The record holds the Uspace as a ``{path: digest}`` manifest; the bodies
live in the backend's blob store, shared with every other record that
names the same content, and a reader fetches them from there one at a
time (:class:`~repro.server.njs.restored.RestoredRun` does).
"""

from __future__ import annotations

import dataclasses
import typing
from dataclasses import dataclass, field

from repro.storage.backend import StorageBackend
from repro.vfs.body import FileBody

__all__ = ["OutcomeRecord", "OutcomeStore"]


@dataclass(frozen=True, slots=True)
class OutcomeRecord:
    """One finished job as persisted."""

    job_id: str
    name: str
    user_dn: str
    status: str
    submitted_at: float
    recovered: bool
    trace_id: str
    outcome_bytes: bytes
    #: Uspace files still fetchable after restart: path -> blob digest.
    #: Filled in by :meth:`OutcomeStore.put` from the bodies it stores.
    files: dict[str, str] = field(default_factory=dict)


class OutcomeStore:
    """Typed view over the backend table holding finished-job records."""

    def __init__(self, storage: StorageBackend, name: str) -> None:
        self._storage = storage
        self._table = storage.table(name)
        self._blobs = storage.blobs

    def put(
        self, record: OutcomeRecord,
        files: typing.Mapping[str, FileBody | bytes],
    ) -> OutcomeRecord:
        """Persist ``record`` with the Uspace content ``files``; returns
        the record as stored, naming each file by its digest."""
        # Bodies and the record naming them are one durable unit.
        with self._storage.batch():
            manifest = self._blobs.put_files(files)
            self._table.put(record.job_id, {
                "name": record.name,
                "user_dn": record.user_dn,
                "status": record.status,
                "submitted_at": record.submitted_at,
                "recovered": record.recovered,
                "trace_id": record.trace_id,
                "outcome_bytes": record.outcome_bytes,
                "files": manifest,
            })
        return dataclasses.replace(record, files=manifest)

    def get(self, job_id: str) -> OutcomeRecord | None:
        raw = typing.cast("dict[str, typing.Any] | None", self._table.get(job_id))
        return None if raw is None else self._record(job_id, raw)

    def records(
        self, order: typing.Callable[[str], typing.Any]
    ) -> list[OutcomeRecord]:
        """Every finished job from one table scan, sorted by ``order`` of
        the job id (the issuer's key for consignment order)."""
        rows = typing.cast(
            "list[tuple[str, dict[str, typing.Any]]]", self._table.items()
        )
        rows.sort(key=lambda row: order(row[0]))
        return [self._record(job_id, raw) for job_id, raw in rows]

    @staticmethod
    def _record(job_id: str, raw: dict[str, typing.Any]) -> OutcomeRecord:
        return OutcomeRecord(
            job_id=job_id,
            name=raw["name"],
            user_dn=raw["user_dn"],
            status=raw["status"],
            submitted_at=raw["submitted_at"],
            recovered=raw["recovered"],
            trace_id=raw["trace_id"],
            outcome_bytes=raw["outcome_bytes"],
            files=dict(raw["files"]),
        )

    def forget(self, job_id: str) -> None:
        """Delete the record and release the file bodies it named."""
        record = self.get(job_id)
        if record is not None:
            with self._storage.batch():
                self._table.delete(job_id)
                self._blobs.release_files(record.files)

    def job_ids(self) -> list[str]:
        return self._table.keys()

    def __contains__(self, job_id: str) -> bool:
        return job_id in self._table

    def __len__(self) -> int:
        return len(self._table)
