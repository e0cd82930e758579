"""The NJS write-ahead journal: crash-recoverable job state.

Section 4.2 makes the NJS the single stateful component between the
user and the batch systems; losing its in-memory tables used to lose
every job in flight.  The journal fixes that with the classic recipe:
every consignment is recorded *before* supervision starts and every
batch delivery is recorded as it happens.  After a crash,
:meth:`NetworkJobSupervisor.restart` replays every incomplete entry —
same job id, same AJO bytes, same trace — so clients polling through the
outage simply see their job again (flagged ``recovered`` in listings).

The journal is a table of *live* rows in a
:class:`~repro.storage.backend.StorageBackend`, not a history:

* one **consign row** per job, keyed by the job id, written once and
  never rewritten;
* one small **delivery row** per delivered action, keyed
  ``job_id/action_id`` (job ids contain no ``/``).

There is no "done" row.  A job is finished exactly when its outcome row
exists (:class:`~repro.storage.outcomes.OutcomeStore`): the batch that
writes the outcome calls :meth:`JobJournal.finish`, which deletes the
job's delivery rows and drops its entry from memory.  The consign row
stays until :meth:`JobJournal.forget` (disposal) because status queries
on a finished job still want the AJO — :meth:`JobJournal.ajo_bytes`
reads it on demand — but a restart never reads it.

So :meth:`JobJournal.reload` costs what is in flight, whatever the
history: one key scan of the table, minus the finished job ids the
caller took from the outcome table, then one read per incomplete consign
row and per delivery row of such a job.  ``len(journal)`` is the number
of jobs in flight.

Rows are metadata only.  The consigned AJO and the files a consignment
carries (workstation imports, a forwarded group's staging) go to the
backend's blob store as raw bytes; the row keeps the AJO's digest and
the files' ``{path: digest}`` manifest.  A reload reads no byte string:
:meth:`JobJournal.ajo_bytes` and :meth:`JobJournal.arrival` fetch them
when a status query or a replay needs them, and :meth:`JobJournal.forget`
releases them unread.

What a consign row records is an :class:`Arrival`, the one value a job
enters the NJS as, whether a user's gateway, a peer NJS or a replay of
this journal hands it in.
"""

from __future__ import annotations

import typing
from dataclasses import dataclass, field

from repro.storage.backend import StorageBackend
from repro.storage.errors import StorageError
from repro.storage.memory import MemoryBackend
from repro.vfs.body import FileBody

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.observability.metrics import MetricsRegistry

__all__ = ["Arrival", "JournalEntry", "JobJournal", "Parent"]


@dataclass(frozen=True, slots=True)
class Parent:
    """The job a forwarded group serves: the parent site's job
    ``job_id``, the Usite ``usite`` that sent it and awaits its result,
    and the files ``owed`` back with that result."""

    job_id: str
    usite: str
    owed: tuple[str, ...] = ()


@dataclass(frozen=True, slots=True)
class Arrival:
    """A job as it enters an NJS: the AJO's encoding, the DN the sender
    authenticated, the files it brought, its trace, and for a forwarded
    group the job it serves."""

    ajo_bytes: bytes
    user_dn: str
    files: typing.Mapping[str, FileBody] = field(default_factory=dict)
    trace_id: str = ""
    parent: Parent | None = None


@dataclass(slots=True)
class JournalEntry:
    """Everything needed to re-supervise one consigned job."""

    job_id: str
    #: Blob digest of the AJO the job was consigned as.
    ajo_digest: str
    user_dn: str
    #: ``path -> blob digest`` of the files consigned with the job.
    workstation_files: dict[str, str] = field(default_factory=dict)
    trace_id: str = ""
    #: Set for forwarded groups (this NJS is the *child* site), so a
    #: replayed group can still send its GroupResult home.
    parent: Parent | None = None
    #: Batch jobs delivered so far, by this life of the NJS or an earlier
    #: one: ``action_id -> (vsite, local_id)``.  Replay cancels the
    #: survivors before resubmitting.
    delivered: dict[str, tuple[str, str]] = field(default_factory=dict)


class JobJournal:
    """The jobs in flight at one NJS, over durable backend storage."""

    def __init__(
        self,
        storage: StorageBackend | None = None,
        name: str = "njs.journal",
        metrics: "MetricsRegistry | None" = None,
    ) -> None:
        self.storage = storage if storage is not None else MemoryBackend()
        self.name = name
        self._table = self.storage.table(name)
        self._blobs = self.storage.blobs
        self._metrics = metrics
        #: In consignment order.  A journal opened over a backend with a
        #: previous life's rows is empty until :meth:`reload`.
        self._entries: dict[str, JournalEntry] = {}

    def _put(self, key: str, row: object) -> None:
        self._table.put(key, row)
        if self._metrics is not None:
            self._metrics.counter("njs.journal.records").inc()

    def _entry(self, job_id: str, row: typing.Any) -> JournalEntry:
        """The entry consign row ``row`` holds, or a StorageError."""
        with self._table.shaped(job_id):
            parent_job_id, meta = row["parent_job_id"], row["forward_meta"]
            entry = JournalEntry(
                job_id=job_id,
                ajo_digest=row["ajo"],
                user_dn=row["user_dn"],
                workstation_files=dict(row["workstation_files"]),
                trace_id=row["trace_id"],
                parent=(
                    None if meta is None
                    else Parent(parent_job_id, meta[0], tuple(meta[1]))
                ),
            )
        return entry

    # -- writes (called on the supervision hot path) ------------------------
    def record_consign(self, job_id: str, arrival: Arrival) -> JournalEntry:
        """Record the job ``job_id`` arrived as ``arrival``."""
        parent = arrival.parent
        # Bodies and the row naming them are one durable unit.
        with self.storage.batch():
            entry = JournalEntry(
                job_id=job_id,
                ajo_digest=self._blobs.put(arrival.ajo_bytes),
                user_dn=arrival.user_dn,
                workstation_files=self._blobs.put_files(arrival.files),
                trace_id=arrival.trace_id,
                parent=parent,
            )
            self._put(job_id, {
                "ajo": entry.ajo_digest,
                "user_dn": arrival.user_dn,
                "workstation_files": entry.workstation_files,
                "trace_id": arrival.trace_id,
                "parent_job_id": None if parent is None else parent.job_id,
                "forward_meta": (
                    None if parent is None else [parent.usite, list(parent.owed)]
                ),
            })
        self._entries[job_id] = entry
        return entry

    def record_delivery(
        self, job_id: str, action_id: str, vsite: str, local_id: str
    ) -> None:
        entry = self._entries.get(job_id)
        if entry is not None:
            entry.delivered[action_id] = (vsite, local_id)
            self._put(f"{job_id}/{action_id}", [vsite, local_id])

    def finish(self, job_id: str) -> None:
        """Retire a job from the journal; the caller writes its outcome
        row in the same batch, and that row is what marks it finished."""
        entry = self._entries.get(job_id)
        if entry is not None:
            for action_id in entry.delivered:
                self._table.delete(f"{job_id}/{action_id}")
            del self._entries[job_id]

    def forget(self, job_id: str) -> JournalEntry | None:
        """Drop a disposed job's rows and release the AJO and file bodies
        its consignment named, unread; returns the entry they held."""
        entry = self.lookup(job_id)
        if entry is None:
            return None
        with self.storage.batch():
            self.finish(job_id)
            self._table.delete(job_id)
            self._blobs.release(entry.ajo_digest)
            self._blobs.release_files(entry.workstation_files)
        return entry

    # -- reads ---------------------------------------------------------------
    def lookup(self, job_id: str) -> JournalEntry | None:
        """The entry in memory, else the one its consign row holds (a
        finished job's: row only, no blob read)."""
        entry = self._entries.get(job_id)
        if entry is None and (row := self._table.get(job_id)) is not None:
            entry = self._entry(job_id, row)
        return entry

    def ajo_bytes(self, job_id: str) -> bytes:
        """The AJO a job was consigned as, read from the blob store (and
        first its consign row, once the job is no longer in flight)."""
        entry = self.lookup(job_id)
        if entry is None:
            raise StorageError(f"no journal row for job {job_id!r}")
        return self._blobs.get(entry.ajo_digest)

    def arrival(self, entry: JournalEntry) -> Arrival:
        """What ``entry``'s job arrived as, its AJO and file bodies read
        from the blob store."""
        return Arrival(
            self._blobs.get(entry.ajo_digest),
            entry.user_dn,
            {
                path: self._blobs.body(digest)
                for path, digest in entry.workstation_files.items()
            },
            entry.trace_id,
            entry.parent,
        )

    # -- recovery ------------------------------------------------------------
    def reload(
        self,
        finished: typing.Collection[str],
        order: typing.Callable[[str], typing.Any],
    ) -> None:
        """Rebuild the entry table from storage (cold start).

        ``finished`` holds the job ids that have an outcome row; their
        rows are skipped by key, unread.  ``order`` is the sort key that
        puts job ids in consignment order — table keys come back sorted
        as text, and only the issuer of the ids knows how they count.
        """
        self._entries.clear()
        live: list[str] = []
        deliveries: list[tuple[str, str]] = []
        for key in self._table.keys():
            job_id, slash, action_id = key.partition("/")
            if job_id in finished:
                continue
            if slash:
                deliveries.append((job_id, action_id))
            else:
                live.append(job_id)
        for job_id in sorted(live, key=order):
            self._entries[job_id] = self._entry(job_id, self._table.get(job_id))
        for job_id, action_id in deliveries:
            entry = self._entries.get(job_id)
            if entry is not None:  # no consign row: nothing to replay
                key = f"{job_id}/{action_id}"
                with self._table.shaped(key):
                    vsite, local_id = typing.cast(
                        "list[str]", self._table.get(key)
                    )
                entry.delivered[action_id] = (vsite, local_id)

    def incomplete(self) -> list[JournalEntry]:
        """Entries to replay after a crash, in consignment order."""
        return list(self._entries.values())

    def entry(self, job_id: str) -> JournalEntry | None:
        """The entry of a job in flight; None once it has finished."""
        return self._entries.get(job_id)

    def __len__(self) -> int:
        return len(self._entries)
