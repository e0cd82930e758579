"""Indexed NJS run bookkeeping: O(1) lookups and delta status views.

Per-user quota checks at consign, ``list_jobs``, the broker
advertisement's terminal set and the reclaimable-job sweep must not scan
the whole run table (at production scale those scans dominate).  This
module holds the two structures that answer them:

:class:`RunIndex`
    Lookup tables keyed by state and user, maintained incrementally from
    job status-change notifications.  A crash loses the index with the
    rest of the heap; the restart fills a fresh one as restored and
    replayed runs re-enter the table (each fresh index is counted by the
    ``njs.index.rebuilds`` metric).

:class:`JobChangeLog`
    A monotonically versioned change-log of job listings, so the LIST
    service can answer "changes since seq N" instead of re-sending the
    full listing on every refresh.  The log is in-memory: a crash starts
    a new *epoch*, which tells delta clients their cursor is void and a
    full resync is needed.
"""

from __future__ import annotations

import typing
from bisect import bisect_right
from dataclasses import dataclass

from repro.protocol.views import JobListing, JobListingDelta

__all__ = ["RunIndex", "JobChangeLog", "ChangeRecord"]


class RunIndex:
    """State/user-keyed lookup tables over the NJS run table.

    The index is *notification-driven*: the
    :class:`~repro.server.njs.runtable.RunTable` (and nothing else) calls
    :meth:`add` when a run enters, :meth:`note_status` whenever its rollup
    status value changes, and :meth:`discard` at dispose.  ``active`` and ``terminal``
    partition the indexed job ids; ``active_count`` backs the consign
    quota check without touching run objects.
    """

    __slots__ = ("by_user", "active", "terminal", "active_by_user", "_status")

    def __init__(self) -> None:
        #: user DN -> set of job ids (all states).
        self.by_user: dict[str, set[str]] = {}
        #: job ids whose rollup status is not terminal.
        self.active: set[str] = set()
        #: job ids whose rollup status is terminal.
        self.terminal: set[str] = set()
        #: user DN -> count of active (non-terminal) jobs.
        self.active_by_user: dict[str, int] = {}
        #: job id -> last noted rollup status value.
        self._status: dict[str, str] = {}

    def __len__(self) -> int:
        return len(self._status)

    def add(self, job_id: str, user_dn: str, status_value: str, terminal: bool) -> None:
        """Index a newly consigned run."""
        self.by_user.setdefault(user_dn, set()).add(job_id)
        self._status[job_id] = status_value
        if terminal:
            self.terminal.add(job_id)
        else:
            self.active.add(job_id)
            self.active_by_user[user_dn] = self.active_by_user.get(user_dn, 0) + 1

    def note_status(
        self, job_id: str, user_dn: str, status_value: str, terminal: bool
    ) -> bool:
        """Record a status change; returns True when the value changed."""
        if self._status.get(job_id) == status_value:
            return False
        self._status[job_id] = status_value
        if terminal and job_id in self.active:
            self.active.discard(job_id)
            self.terminal.add(job_id)
            remaining = self.active_by_user.get(user_dn, 1) - 1
            if remaining > 0:
                self.active_by_user[user_dn] = remaining
            else:
                self.active_by_user.pop(user_dn, None)
        return True

    def discard(self, job_id: str, user_dn: str) -> None:
        """Drop a disposed run from every table."""
        if job_id not in self._status:
            return
        del self._status[job_id]
        if job_id in self.active:
            self.active.discard(job_id)
            remaining = self.active_by_user.get(user_dn, 1) - 1
            if remaining > 0:
                self.active_by_user[user_dn] = remaining
            else:
                self.active_by_user.pop(user_dn, None)
        self.terminal.discard(job_id)
        jobs = self.by_user.get(user_dn)
        if jobs is not None:
            jobs.discard(job_id)
            if not jobs:
                del self.by_user[user_dn]

    def active_count(self, user_dn: str) -> int:
        """Live (non-terminal) jobs of one user — the consign quota check."""
        return self.active_by_user.get(user_dn, 0)

    def jobs_for(self, user_dn: str) -> set[str]:
        """All indexed job ids of one user (any state)."""
        return self.by_user.get(user_dn, set())

    def status_value(self, job_id: str) -> str | None:
        return self._status.get(job_id)

    def verify(self, runs: typing.Mapping[str, typing.Any]) -> None:
        """Assert the tables agree with an index built from scratch over
        ``runs`` (test helper)."""
        expect = RunIndex()
        for job_id, run in runs.items():
            status = run.status()
            expect.add(job_id, run.user_dn, status.value, status.is_terminal)
        assert self._status == expect._status, (self._status, expect._status)
        assert self.active == expect.active, (self.active, expect.active)
        assert self.terminal == expect.terminal
        assert self.by_user == expect.by_user
        assert self.active_by_user == expect.active_by_user


@dataclass(frozen=True, slots=True)
class ChangeRecord:
    """One change-log entry: a listing snapshot, or a removal tombstone."""

    seq: int
    user_dn: str
    job_id: str
    #: ``None`` marks a removal (the job was disposed).
    listing: JobListing | None


class JobChangeLog:
    """Append-only, monotonically versioned log of job-listing changes.

    Every recorded change gets the next global ``seq``; per-user record
    lists make ``since`` a bisect plus a tail slice.  Sequence numbers
    are only meaningful within one ``epoch`` — a crash wipes the log, so
    the restarted NJS starts a fresh epoch and clients holding cursors
    from the old one must resync with a full listing.
    """

    __slots__ = ("epoch", "_seq", "_by_user")

    def __init__(self, epoch: int = 0) -> None:
        self.epoch = epoch
        self._seq = 0
        self._by_user: dict[str, list[ChangeRecord]] = {}

    @property
    def seq(self) -> int:
        """The latest assigned sequence number (0 = nothing recorded)."""
        return self._seq

    def record(self, listing: JobListing, user_dn: str) -> int:
        self._seq += 1
        self._by_user.setdefault(user_dn, []).append(
            ChangeRecord(self._seq, user_dn, listing.job_id, listing)
        )
        return self._seq

    def record_removed(self, job_id: str, user_dn: str) -> int:
        self._seq += 1
        self._by_user.setdefault(user_dn, []).append(
            ChangeRecord(self._seq, user_dn, job_id, None)
        )
        return self._seq

    def since(self, user_dn: str, since_seq: int) -> list[ChangeRecord]:
        """Records for ``user_dn`` with ``seq > since_seq``, in order."""
        records = self._by_user.get(user_dn, [])
        start = bisect_right(records, since_seq, key=lambda r: r.seq)
        return records[start:]

    def delta_for(self, user_dn: str, since_seq: int) -> JobListingDelta:
        """The wire answer for "changes since ``since_seq``".

        Later records for the same job supersede earlier ones, so the
        delta carries at most one listing (or one removal) per job.
        """
        latest: dict[str, JobListing | None] = {}
        for record in self.since(user_dn, since_seq):
            latest[record.job_id] = record.listing
        listings = tuple(
            sorted(
                (entry for entry in latest.values() if entry is not None),
                key=lambda entry: entry.job_id,
            )
        )
        removed = tuple(
            sorted(job_id for job_id, entry in latest.items() if entry is None)
        )
        return JobListingDelta(
            seq=self._seq,
            epoch=self.epoch,
            full=False,
            listings=listings,
            removed=removed,
        )

    def next_epoch(self) -> "JobChangeLog":
        """A fresh, empty log in the next epoch (crash recovery)."""
        return JobChangeLog(epoch=self.epoch + 1)
