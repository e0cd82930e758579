"""A finished job, served from its outcome row.

:meth:`RunTable.finish <repro.server.njs.runtable.RunTable.finish>`
persists a job's :class:`~repro.storage.outcomes.OutcomeRecord` and puts
a :class:`FinishedRun` over it in the table in place of the live
:class:`~repro.server.njs.jobrun.JobRun`; a restart builds the same
class from a scan of the outcome table.  One class serves every terminal
job, whether it finished in this life of the NJS or an earlier one.

A just-finished run is seeded with what the live run held (the AJO, the
outcome tree and its index, the persisted encoding, the file bodies),
so serving it reads and decodes nothing.  A restored one is lazy: the
AJO is read and decoded on the first status tree, the outcome blob read
on the first request for it and decoded only for a tree, and a file
body fetched from the blob store each time a client asks for it.
"""

from __future__ import annotations

from repro.ajo.job import AbstractJobObject
from repro.ajo.outcome import Outcome
from repro.ajo.serialize import decode_ajo, decode_outcome
from repro.ajo.status import ActionStatus
from repro.server.njs.jobrun import index_outcomes
from repro.storage.backend import BlobStore
from repro.storage.journal import JobJournal
from repro.storage.outcomes import OutcomeRecord
from repro.vfs.body import FileBody

__all__ = ["FinishedRun"]


class FinishedRun:
    """A terminal job: its outcome record, and what serving it needs."""

    __slots__ = ("record", "job_id", "user_dn", "name", "submitted_at", "recovered",
                 "_status", "_journal", "_blobs", "_root", "_outcomes", "_outcome_bytes", "_files")

    def __init__(
        self,
        record: OutcomeRecord,
        journal: JobJournal,
        blobs: BlobStore,
        *,
        root: AbstractJobObject | None = None,
        outcomes: dict[str, Outcome] | None = None,
        outcome_bytes: bytes | None = None,
        files: dict[str, FileBody] | None = None,
    ) -> None:
        self.record = record
        self.job_id = record.job_id
        self.user_dn = record.user_dn
        self.name = record.name
        self.submitted_at = record.submitted_at
        self.recovered = record.recovered
        self._status = ActionStatus(record.status)
        self._journal = journal
        self._blobs = blobs
        self._root = root
        self._outcomes = outcomes
        self._outcome_bytes = outcome_bytes
        self._files = files

    @property
    def root(self) -> AbstractJobObject:
        if self._root is None:
            self._root = decode_ajo(self._journal.ajo_bytes(self.job_id))
        return self._root

    @property
    def outcomes(self) -> dict[str, Outcome]:
        """Action id -> outcome, indexed from the outcome tree."""
        if self._outcomes is None:
            self._outcomes = index_outcomes(decode_outcome(self.encoded_outcome()), {})
        return self._outcomes

    def encoded_outcome(self) -> bytes:
        """The persisted encoding, served verbatim: no decode, no re-encode."""
        if self._outcome_bytes is None:
            self._outcome_bytes = self._blobs.get(self.record.outcome_digest)
        return self._outcome_bytes

    def status(self) -> ActionStatus:
        return self._status

    def file(self, path: str) -> FileBody | None:
        """The job's Uspace file ``path``, or None if it produced none."""
        if self._files is not None:
            return self._files.get(path)
        digest = self.record.files.get(path)
        return None if digest is None else self._blobs.body(digest)
