"""Durable per-job outcome records: what survives when memory does not.

A finished job's observable surface — its status rollup, the encoded
outcome tree (stdout/stderr included), and the Uspace files the user may
still fetch — is written here, and the row's existence is what *makes*
the job finished: the journal keeps no "done" mark of its own (see
:mod:`repro.storage.journal`).  A finished job *is* its outcome row:
the NJS serves it from the record :meth:`OutcomeStore.put` returns, as a
:class:`~repro.server.njs.finished.FinishedRun`, from the moment it
finishes, and a cold-started NJS rebuilds the same views from one scan
of this table (:meth:`OutcomeStore.records`).  So completion survives a
full-site restart exactly as section 4.2's "single stateful tier"
demands, and disposal deletes the record just like it destroys the
Uspaces.

The record is metadata.  The encoded outcome tree goes to the backend's
blob store as raw bytes and the record keeps its digest; the Uspace is a
``{path: digest}`` manifest whose bodies live there too, shared with
every other record that names the same content.  Listing a finished job
reads its row and nothing else; a restored job fetches the outcome and
each file from the blob store when a client asks for it, and disposal
releases them unread.
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
    #: Blob digest of the encoded outcome tree; both it and ``files`` are
    #: filled in by :meth:`OutcomeStore.put` from the bytes it stores.
    outcome_digest: str = ""
    #: Uspace files still fetchable after restart: path -> blob digest.
    files: dict[str, str] = field(default_factory=dict)


class OutcomeStore:
    """Typed view over the backend table holding finished-job records."""

    def __init__(self, storage: StorageBackend, name: str) -> None:
        self._storage = storage
        self._table = storage.table(name)
        self._blobs = storage.blobs

    def put(
        self, record: OutcomeRecord, outcome_bytes: bytes,
        files: typing.Mapping[str, FileBody | bytes],
    ) -> OutcomeRecord:
        """Persist ``record`` with its encoded outcome and the Uspace
        content ``files``; returns the record as stored, naming the
        outcome and each file by its digest."""
        # Bodies and the record naming them are one durable unit.
        with self._storage.batch():
            digest = self._blobs.put(outcome_bytes)
            manifest = self._blobs.put_files(files)
            self._table.put(record.job_id, {
                "name": record.name,
                "user_dn": record.user_dn,
                "status": record.status,
                "submitted_at": record.submitted_at,
                "recovered": record.recovered,
                "outcome": digest,
                "files": manifest,
            })
        return dataclasses.replace(record, outcome_digest=digest, files=manifest)

    def records(
        self, order: typing.Callable[[str], typing.Any]
    ) -> list[OutcomeRecord]:
        """Every finished job from one table scan, sorted by ``order`` of
        the job id (the issuer's key for consignment order)."""
        rows = self._table.items()
        rows.sort(key=lambda row: order(row[0]))
        return [self._record(job_id, raw) for job_id, raw in rows]

    def _record(self, job_id: str, raw: typing.Any) -> OutcomeRecord:
        with self._table.shaped(job_id):
            record = OutcomeRecord(
                job_id=job_id,
                name=raw["name"],
                user_dn=raw["user_dn"],
                status=raw["status"],
                submitted_at=raw["submitted_at"],
                recovered=raw["recovered"],
                outcome_digest=raw["outcome"],
                files=dict(raw["files"]),
            )
        return record

    def forget(self, record: OutcomeRecord) -> None:
        """Delete ``record``'s row and release the outcome and file bodies
        it names, unread."""
        with self._storage.batch():
            self._table.delete(record.job_id)
            self._blobs.release(record.outcome_digest)
            self._blobs.release_files(record.files)

    def job_ids(self) -> list[str]:
        return self._table.keys()

    def __contains__(self, job_id: str) -> bool:
        return job_id in self._table

    def __len__(self) -> int:
        return len(self._table)
