"""A finished job, served from its outcome row.

:meth:`RunTable.finish <repro.server.njs.runtable.RunTable.finish>`
persists a job's :class:`~repro.storage.outcomes.OutcomeRecord` and puts
a :class:`FinishedRun` over it in the table in place of the live
:class:`~repro.server.njs.jobrun.JobRun`; a restart builds the same
class from a scan of the outcome table.  One class serves every terminal
job, whether it finished in this life of the NJS or an earlier one.

A finished job keeps rows and bytes, not object graphs: its three
encoded status replies (``job``, ``groups``, ``tasks``) and the Usites
the job forwarded groups to.  A just-finished run is given those, rendered
from its live run, with the persisted outcome encoding and the file
bodies; a restored one builds them from its decoded AJO and outcome tree
on the first status request.  The AJO and the outcome tree
(:attr:`FinishedRun.root`, :attr:`FinishedRun.outcomes`) are decoded on
each read and kept by nobody.  The outcome blob is read on the first
request for it, and a restored file body is fetched from the blob store
each time a client asks for it.
"""

from __future__ import annotations

from repro.ajo.dag import JobPlan
from repro.ajo.job import AbstractJobObject
from repro.ajo.outcome import Outcome
from repro.ajo.serialize import decode_ajo, decode_outcome
from repro.ajo.status import ActionStatus
from repro.server.njs.jobrun import index_outcomes, status_replies
from repro.storage.backend import BlobStore
from repro.storage.journal import JobJournal
from repro.storage.outcomes import OutcomeRecord
from repro.vfs.body import FileBody

__all__ = ["FinishedRun"]


class FinishedRun:
    """A terminal job: its outcome record, and what serving it needs."""

    __slots__ = ("record", "job_id", "user_dn", "name", "submitted_at", "recovered",
                 "_status", "_journal", "_blobs", "_usite_name", "_replies",
                 "_usites", "_outcome_bytes", "_files")

    def __init__(
        self,
        record: OutcomeRecord,
        journal: JobJournal,
        blobs: BlobStore,
        usite_name: str,
        *,
        replies: dict[str, bytes] | None = None,
        usites: tuple[str, ...] | None = None,
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
        self._usite_name = usite_name
        self._replies = replies
        self._usites = usites
        self._outcome_bytes = outcome_bytes
        self._files = files

    @property
    def root(self) -> AbstractJobObject:
        """The AJO the job was consigned as, read and decoded anew."""
        return decode_ajo(self._journal.ajo_bytes(self.job_id))

    @property
    def outcomes(self) -> dict[str, Outcome]:
        """Action id -> outcome, indexed from a freshly decoded tree."""
        return index_outcomes(decode_outcome(self.encoded_outcome()), {})

    def status_reply(self, detail: str) -> bytes:
        """The QUERY reply at ``detail``.  A restored run renders all
        three from its decoded trees the first time it is asked."""
        if self._replies is None:
            root = self.root
            self._usites = JobPlan.of(root, self._usite_name).usites
            self._replies = status_replies(root, self.outcomes)
        return self._replies[detail]

    def forwarded_usites(self) -> tuple[str, ...]:
        """The Usites the job forwarded groups to.  A restored run that
        was never asked for its status decodes its AJO for them, and
        renders no reply."""
        if self._usites is not None:
            return self._usites
        return JobPlan.of(self.root, self._usite_name).usites

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
