"""The NJS write-ahead journal: crash-recoverable job state.

Section 4.2 makes the NJS the single stateful component between the
user and the batch systems; losing its in-memory tables used to lose
every job in flight.  The journal fixes that with the classic recipe:
every consignment is recorded *before* supervision starts, every batch
delivery is recorded as it happens, and completed jobs are marked done.
After a crash, :meth:`NetworkJobSupervisor.restart` replays every
incomplete entry — same job id, same AJO bytes, same trace — so clients
polling through the outage simply see their job again (flagged
``recovered`` in listings).

The journal is now a thin typed view over a
:class:`~repro.storage.backend.StorageBackend` append-only log.  The
in-memory ``JournalEntry`` table is a cache: :meth:`reload` rebuilds it
record by record from the backend, which is what lets a *cold-started*
NJS (new process, same SQLite file) recover jobs consigned by its
previous life — not just one that kept its Python heap across
:meth:`crash`.

Records are metadata only.  The files a consignment carries (workstation
imports, a forwarded group's staging) go to the backend's blob store and
the record keeps their ``{path: digest}`` manifest, so a reload reads no
file body; :meth:`JobJournal.staged_files` fetches them when a replay
needs them, and :meth:`JobJournal.forget` releases them.
"""

from __future__ import annotations

import typing
from dataclasses import dataclass, field

from repro.storage.backend import StorageBackend
from repro.storage.memory import MemoryBackend

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
    #: Batch jobs delivered before the crash: ``action_id -> (vsite,
    #: local_id)``.  Replay cancels the survivors before resubmitting.
    delivered: dict[str, tuple[str, str]] = field(default_factory=dict)
    done: bool = False


class JobJournal:
    """In-order journal of consigned jobs over durable backend storage."""

    def __init__(
        self,
        storage: StorageBackend | None = None,
        name: str = "njs.journal",
        metrics: "MetricsRegistry | None" = None,
    ) -> None:
        self.storage = storage if storage is not None else MemoryBackend()
        self.name = name
        self._log = self.storage.log(name)
        self._blobs = self.storage.blobs
        self._metrics = metrics
        self._entries: dict[str, JournalEntry] = {}
        if len(self._log):
            self.reload()

    def _append(self, record: dict[str, typing.Any]) -> None:
        self._log.append(record)
        if self._metrics is not None:
            self._metrics.counter("njs.journal.records").inc()

    # -- writes (called on the supervision hot path) ------------------------
    def record_consign(
        self,
        job_id: str,
        ajo_bytes: bytes,
        user_dn: str,
        workstation_files: dict[str, bytes] | None = None,
        trace_id: str = "",
        parent_job_id: str | None = None,
        forward_meta: ForwardMeta | None = None,
    ) -> JournalEntry:
        # Bodies and the record naming them are one durable unit.
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
            self._append({
                "kind": "consign",
                "job_id": job_id,
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
            self._append({
                "kind": "delivery",
                "job_id": job_id,
                "action_id": action_id,
                "vsite": vsite,
                "local_id": local_id,
            })

    def record_done(self, job_id: str) -> None:
        entry = self._entries.get(job_id)
        if entry is not None and not entry.done:
            entry.done = True
            self._append({"kind": "done", "job_id": job_id})

    def forget(self, job_id: str) -> None:
        """Drop a disposed job's entry entirely (a tombstone record) and
        release the file bodies it named."""
        entry = self._entries.get(job_id)
        if entry is not None:
            with self.storage.batch():
                self._append({"kind": "forget", "job_id": job_id})
                self._blobs.release_files(entry.workstation_files)
            del self._entries[job_id]

    def staged_files(self, entry: JournalEntry) -> dict[str, bytes]:
        """The bodies of the files ``entry`` was consigned with."""
        return self._blobs.get_files(entry.workstation_files)

    # -- recovery ------------------------------------------------------------
    def reload(self) -> None:
        """Rebuild the entry table from the durable log (cold start)."""
        self._entries.clear()
        for record in self._log.records():
            self._fold(typing.cast("dict[str, typing.Any]", record))

    def _fold(self, record: dict[str, typing.Any]) -> None:
        kind = record["kind"]
        job_id = record["job_id"]
        if kind == "consign":
            meta = record["forward_meta"]
            self._entries[job_id] = JournalEntry(
                job_id=job_id,
                ajo_bytes=record["ajo_bytes"],
                user_dn=record["user_dn"],
                workstation_files=dict(record["workstation_files"]),
                trace_id=record["trace_id"],
                parent_job_id=record["parent_job_id"],
                forward_meta=(
                    None if meta is None
                    else (meta[0], meta[1], tuple(meta[2]))
                ),
            )
        elif kind == "delivery":
            entry = self._entries.get(job_id)
            if entry is not None:
                entry.delivered[record["action_id"]] = (
                    record["vsite"], record["local_id"],
                )
        elif kind == "done":
            entry = self._entries.get(job_id)
            if entry is not None:
                entry.done = True
        elif kind == "forget":
            self._entries.pop(job_id, None)

    def incomplete(self) -> list[JournalEntry]:
        """Entries to replay after a crash, in consignment order."""
        return [e for e in self._entries.values() if not e.done]

    def entries(self) -> list[JournalEntry]:
        """Every live entry, in consignment order."""
        return list(self._entries.values())

    def entry(self, job_id: str) -> JournalEntry | None:
        return self._entries.get(job_id)

    def __len__(self) -> int:
        return len(self._entries)
