"""The NJS job book: each job's latest listing, versioned, per user.

Per-user quota checks at consign, ``list_jobs`` (full or "changes since
seq N"), and the terminal set and reclaimable-job sweep of the capacity
report a broker pulls must not scan the run table or walk job trees (at production scale
those scans dominate).  :class:`RunIndex` answers all of them from two
containers fed by job status-change notifications:

* the *book*, ``user DN -> {job id: (seq, listing)}``: every job's
  latest :class:`~repro.protocol.views.JobListing`, stamped with the
  ``seq`` of its last visible change and kept in seq order, so a full
  LIST reads the listings and a delta LIST walks back from the newest
  entry to the client's cursor.  A disposed job leaves one ``None``
  tombstone, so delta clients learn of the removal;
* the *active* sets, ``user DN -> {job id}``: the jobs not yet terminal.

The index is in-memory: a crash loses it with the rest of the heap, and
the restart fills a fresh one in the next *epoch* as restored and
replayed runs re-enter the table (each fresh index is counted by the
``njs.index.rebuilds`` metric).  Sequence numbers mean something only
within one epoch, so a cursor from an older one gets a full listing.
"""

from __future__ import annotations

from repro.protocol.views import JobListing, JobListingDelta

__all__ = ["RunIndex"]


class RunIndex:
    """Each job's latest listing per user, versioned by ``(epoch, seq)``.

    The :class:`~repro.server.njs.runtable.RunTable` (and nothing else)
    calls :meth:`note` when a run enters and whenever its rollup status
    value changes, and :meth:`remove` at dispose.
    """

    __slots__ = ("epoch", "seq", "_book", "_active")

    def __init__(self, epoch: int = 0) -> None:
        self.epoch = epoch
        #: The latest assigned sequence number (0 = nothing noted).
        self.seq = 0
        #: user DN -> {job id: (seq, listing, or None once disposed)},
        #: oldest change first.
        self._book: dict[str, dict[str, tuple[int, JobListing | None]]] = {}
        #: user DN -> ids of the user's non-terminal jobs.
        self._active: dict[str, set[str]] = {}

    def _stamp(self, user_dn: str, job_id: str, listing: JobListing | None) -> None:
        jobs = self._book.setdefault(user_dn, {})
        jobs.pop(job_id, None)  # re-inserted last: the map stays in seq order
        self.seq += 1
        jobs[job_id] = (self.seq, listing)

    def note(self, listing: JobListing, user_dn: str, terminal: bool) -> bool:
        """Record a job's listing; False (and nothing moves) when its
        status value is the one already recorded."""
        _, held = self._book.get(user_dn, {}).get(listing.job_id, (0, None))
        if held is not None and held.status == listing.status:
            return False
        self._stamp(user_dn, listing.job_id, listing)
        active = self._active.setdefault(user_dn, set())
        if terminal:
            active.discard(listing.job_id)
        else:
            active.add(listing.job_id)
        return True

    def remove(self, job_id: str, user_dn: str) -> None:
        """A disposed job: its entry becomes a removal tombstone."""
        self._stamp(user_dn, job_id, None)
        self._active.get(user_dn, set()).discard(job_id)

    def active_count(self, user_dn: str) -> int:
        """Live (non-terminal) jobs of one user — the consign quota check."""
        return len(self._active.get(user_dn, ()))

    def active_ids(self) -> list[str]:
        return sorted(job_id for ids in self._active.values() for job_id in ids)

    def terminal_ids(self) -> tuple[str, ...]:
        return tuple(sorted(
            job_id
            for user_dn, jobs in self._book.items()
            for job_id, (_, listing) in jobs.items()
            if listing is not None and job_id not in self._active.get(user_dn, ())
        ))

    def listings(self, user_dn: str) -> list[JobListing]:
        """The user's jobs as the book holds them, sorted by job id."""
        return [
            listing
            for _, (_, listing) in sorted(self._book.get(user_dn, {}).items())
            if listing is not None
        ]

    def delta(self, user_dn: str, since_seq: int, epoch: int) -> JobListingDelta:
        """Changes since the cursor: each changed job's latest listing or
        removal.  A cursor from another epoch, or none at all
        (``since_seq < 0``), gets every listing with ``full`` set."""
        if epoch != self.epoch or since_seq < 0:
            return JobListingDelta(
                seq=self.seq, epoch=self.epoch, full=True,
                listings=tuple(self.listings(user_dn)),
            )
        listings: list[JobListing] = []
        removed: list[str] = []
        for job_id, (seq, listing) in reversed(self._book.get(user_dn, {}).items()):
            if seq <= since_seq:
                break
            if listing is None:
                removed.append(job_id)
            else:
                listings.append(listing)
        return JobListingDelta(
            seq=self.seq, epoch=self.epoch, full=False,
            listings=tuple(sorted(listings, key=lambda entry: entry.job_id)),
            removed=tuple(sorted(removed)),
        )

    def next_epoch(self) -> "RunIndex":
        """A fresh, empty index in the next epoch (crash recovery)."""
        return RunIndex(epoch=self.epoch + 1)
