"""Finished jobs resurrected from durable storage after a cold start.

A warm NJS :meth:`crash` keeps finished :class:`JobRun` objects alive in
memory, but a *full-site* restart (or a grid restored from a snapshot)
starts from a bare Python heap: everything it knows comes from the
storage backend.  :class:`RestoredRun` duck-types the slice of the
:class:`~repro.server.njs.jobrun.JobRun` surface the NJS services touch
for a terminal job — listings, status queries, outcome retrieval,
Uspace file fetches, disposal — backed by the persisted
:class:`~repro.storage.outcomes.OutcomeRecord`.

Everything else is lazy.  A restart builds these views from one scan of
the outcome table and touches nothing more: a listing needs only the
record's ``name`` and ``status``; the job's consign row is read from
the journal table, and its AJO decoded, the first time a client asks for
``root`` (a status tree, a disposal); the outcome tree is decoded when a
client asks for it; a file body is fetched from the blob store when a
client asks for that file.
"""

from __future__ import annotations

import typing

from repro.ajo import ActionStatus, decode_ajo, decode_outcome
from repro.ajo.outcome import Outcome
from repro.server.njs.jobrun import index_outcomes
from repro.storage.outcomes import OutcomeRecord

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.ajo import AbstractJobObject
    from repro.storage.backend import BlobStore
    from repro.vfs.body import FileBody

__all__ = ["RestoredRun"]


class _StoredFiles:
    """The Uspace-read surface over a persisted ``{path: digest}`` manifest."""

    def __init__(
        self, job_id: str, manifest: dict[str, str], blobs: "BlobStore"
    ) -> None:
        self.job_id = job_id
        self._manifest = manifest
        self._blobs = blobs

    def exists(self, path: str) -> bool:
        return path in self._manifest

    def body(self, path: str) -> "FileBody":
        return self._blobs.body(self._manifest[path])


class RestoredRun:
    """A terminal job served from storage instead of live supervision."""

    def __init__(
        self,
        record: OutcomeRecord,
        fetch_ajo: typing.Callable[[], bytes],
        blobs: "BlobStore",
    ) -> None:
        self.job_id = record.job_id
        self.user_dn = record.user_dn
        self.submitted_at = record.submitted_at
        self.recovered = record.recovered
        self.trace_id = record.trace_id
        self.cancelled = False
        self.held = False
        self.hold_released = None
        #: Nothing of this job is at a batch system any more.
        self.batch_jobs: dict[str, tuple[str, str]] = {}
        #: One pseudo-Uspace holding every persisted file, so
        #: ``fetch_uspace_file`` iterates it exactly like live Uspaces.
        self.uspaces = {
            "__restored__": _StoredFiles(record.job_id, record.files, blobs)
        }
        self._status = ActionStatus(record.status)
        self._fetch_ajo = fetch_ajo
        self._outcome_bytes = record.outcome_bytes
        self._name = record.name
        self._root: "AbstractJobObject | None" = None
        self._root_outcome: Outcome | None = None
        self._outcome_index: dict[str, Outcome] | None = None

    # -- lazy decoding -------------------------------------------------------
    @property
    def root(self) -> "AbstractJobObject":
        if self._root is None:
            self._root = decode_ajo(self._fetch_ajo())
        return self._root

    @property
    def root_outcome(self) -> Outcome:
        if self._root_outcome is None:
            self._root_outcome = decode_outcome(self._outcome_bytes)
        return self._root_outcome

    @property
    def outcomes(self) -> dict[str, Outcome]:
        """Action id -> outcome, indexed from the persisted tree."""
        if self._outcome_index is None:
            self._outcome_index = index_outcomes(self.root_outcome, {})
        return self._outcome_index

    # -- JobRun surface ------------------------------------------------------
    @property
    def name(self) -> str:
        return self._name

    def encoded_outcome(self) -> bytes:
        """The persisted encoding, verbatim: no decode, no re-encode."""
        return self._outcome_bytes

    def status(self) -> ActionStatus:
        return self._status
