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

Rows are metadata only.  The files a consignment carries (workstation
imports, a forwarded group's staging) go to the backend's blob store and
the row keeps their ``{path: digest}`` manifest, so a reload reads no
file body; :meth:`JobJournal.staged_files` fetches them when a replay
needs them, and :meth:`JobJournal.forget` releases them.
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

#: ``(corr_id, reply_usite, return_files)`` carried by forwarded groups.
ForwardMeta = tuple[str, str, tuple[str, ...]]

__all__ = ["JournalEntry", "JobJournal"]


@dataclass(slots=True)
class JournalEntry:
    """Everything needed to re-supervise one consigned job."""

    job_id: str
    ajo_bytes: bytes
    user_dn: str
    #: ``path -> blob digest`` of the files consigned with the job.
    workstation_files: dict[str, str] = field(default_factory=dict)
    trace_id: str = ""
    #: Set for forwarded groups (this NJS is the *child* site).
    parent_job_id: str | None = None
    #: ``(corr_id, reply_usite, return_files)`` for forwarded groups, so
    #: a replayed group can still send its GroupResult home.
    forward_meta: ForwardMeta | None = None
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

    def _row(self, job_id: str) -> dict[str, typing.Any] | None:
        return typing.cast(
            "dict[str, typing.Any] | None", self._table.get(job_id)
        )

    # -- writes (called on the supervision hot path) ------------------------
    def record_consign(
        self,
        job_id: str,
        ajo_bytes: bytes,
        user_dn: str,
        workstation_files: typing.Mapping[str, FileBody | bytes] | None = None,
        trace_id: str = "",
        parent_job_id: str | None = None,
        forward_meta: ForwardMeta | None = None,
    ) -> JournalEntry:
        # Bodies and the row naming them are one durable unit.
        with self.storage.batch():
            entry = JournalEntry(
                job_id=job_id,
                ajo_bytes=ajo_bytes,
                user_dn=user_dn,
                workstation_files=self._blobs.put_files(workstation_files or {}),
                trace_id=trace_id,
                parent_job_id=parent_job_id,
                forward_meta=forward_meta,
            )
            self._put(job_id, {
                "ajo_bytes": ajo_bytes,
                "user_dn": user_dn,
                "workstation_files": entry.workstation_files,
                "trace_id": trace_id,
                "parent_job_id": parent_job_id,
                "forward_meta": (
                    None if forward_meta is None else list(forward_meta)
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

    def forget(self, job_id: str) -> None:
        """Drop a disposed job's rows and release the file bodies its
        consignment named."""
        entry = self._entries.get(job_id)
        if entry is not None:
            manifest = entry.workstation_files
        elif (row := self._row(job_id)) is not None:
            manifest = row["workstation_files"]
        else:
            return
        with self.storage.batch():
            self.finish(job_id)
            self._table.delete(job_id)
            self._blobs.release_files(manifest)

    # -- reads ---------------------------------------------------------------
    def ajo_bytes(self, job_id: str) -> bytes:
        """The AJO a job was consigned as, read from its consign row."""
        row = self._row(job_id)
        if row is None:
            raise StorageError(f"no journal row for job {job_id!r}")
        return typing.cast(bytes, row["ajo_bytes"])

    def staged_files(self, entry: JournalEntry) -> dict[str, FileBody]:
        """The bodies of the files ``entry`` was consigned with."""
        return {
            path: self._blobs.body(digest)
            for path, digest in entry.workstation_files.items()
        }

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
            row = self._row(job_id)
            assert row is not None
            meta = row["forward_meta"]
            self._entries[job_id] = JournalEntry(
                job_id=job_id,
                ajo_bytes=row["ajo_bytes"],
                user_dn=row["user_dn"],
                workstation_files=dict(row["workstation_files"]),
                trace_id=row["trace_id"],
                parent_job_id=row["parent_job_id"],
                forward_meta=(
                    None if meta is None
                    else (meta[0], meta[1], tuple(meta[2]))
                ),
            )
        for job_id, action_id in deliveries:
            entry = self._entries.get(job_id)
            if entry is not None:  # no consign row: nothing to replay
                vsite, local_id = typing.cast(
                    "list[str]", self._table.get(f"{job_id}/{action_id}")
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
