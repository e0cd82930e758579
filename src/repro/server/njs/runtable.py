"""The NJS run table: every job this site knows, live or finished.

One owner for the runs, the :class:`RunIndex` and :class:`JobChangeLog`
over them, the completion watchers, the write-ahead journal, the
outcome store and the job-id cursor: a run enters through
:meth:`RunTable.admit` (or :meth:`RunTable.restore`), changes through
the status hook it carries, and leaves through :meth:`RunTable.dispose`,
so index, change-log and table move together because nothing else can
move one of them.  To everyone else the table is a read-only mapping
``job id -> run`` plus a few indexed queries.
"""

from __future__ import annotations

import functools
import typing

from repro.ajo.job import AbstractJobObject
from repro.ajo.serialize import encode_ajo
from repro.observability import telemetry_for
from repro.protocol.views import JobListing, JobListingDelta
from repro.server.njs.jobrun import JobRun
from repro.server.njs.restored import RestoredRun
from repro.server.njs.runindex import JobChangeLog, RunIndex
from repro.simkernel import Event, Simulator
from repro.storage.backend import StorageBackend
from repro.storage.journal import ForwardMeta, JobJournal, JournalEntry
from repro.storage.outcomes import OutcomeRecord, OutcomeStore
from repro.vfs.body import FileBody

__all__ = ["RunTable"]


class RunTable(typing.Mapping[str, JobRun]):
    """The jobs of one NJS, over its durable backend storage."""

    def __init__(
        self, sim: Simulator, usite_name: str, storage: StorageBackend
    ) -> None:
        self._sim = sim
        self._usite_name = usite_name
        self._storage = storage
        metrics = telemetry_for(sim).metrics
        self._runs: dict[str, JobRun] = {}
        self._index = RunIndex()
        #: Versioned change-log backing delta LIST answers.
        self._changes = JobChangeLog()
        #: Completion watchers for subscription-style waits: job id ->
        #: events the gateway parks on.  Fired on terminal transition and
        #: (with the job still unfinished) on :meth:`lose_memory`, so
        #: nobody sleeps through a lost run.
        self._watchers: dict[str, list[Event]] = {}
        self._meta = storage.table(f"{usite_name}.meta")  # the job-id cursor
        #: Write-ahead journal over backend storage: survives a crash,
        #: drives the replay.
        self.journal = JobJournal(
            storage, name=f"{usite_name}.journal", metrics=metrics
        )
        #: Finished jobs as persisted records (status, outcome bytes,
        #: Uspace manifest) — what a cold start serves terminal queries
        #: from.  A job is finished exactly when its row exists here.
        self.outcomes = OutcomeStore(storage, f"{usite_name}.outcomes")

    # ------------------------------------------------------ read-only mapping
    def __getitem__(self, job_id: str) -> JobRun:
        return self._runs[job_id]

    def __iter__(self) -> typing.Iterator[str]:
        return iter(self._runs)

    def __len__(self) -> int:
        return len(self._runs)

    def owns(self, run: JobRun) -> bool:
        """False for a run a crash orphaned: its id is gone from the
        table, or belongs to the replayed run that took its place."""
        return self._runs.get(run.job_id) is run

    # -------------------------------------------------------- indexed queries
    def _index_hit(self) -> None:
        telemetry_for(self._sim).metrics.counter("njs.index.hits").inc()

    def active_count(self, user_dn: str) -> int:
        """Live (non-terminal) jobs of one user — the consign quota check."""
        self._index_hit()
        return self._index.active_count(user_dn)

    def active_ids(self) -> list[str]:
        """Non-terminal job ids, sorted, from the index: terminal runs
        (the bulk of a long-lived table) are never touched."""
        self._index_hit()
        return sorted(self._index.active)

    def terminal_ids(self) -> tuple[str, ...]:
        self._index_hit()
        return tuple(sorted(self._index.terminal))

    def listings(self, user_dn: str) -> list[JobListing]:
        """The user's jobs; touches only the user's own runs."""
        self._index_hit()
        return [
            self._listing(run, run.status().value)
            for job_id in sorted(self._index.jobs_for(user_dn))
            if (run := self._runs.get(job_id)) is not None
        ]

    def listings_delta(
        self, user_dn: str, since_seq: int, epoch: int
    ) -> JobListingDelta:
        """Changes since the cursor.  A cursor from another epoch (the
        change-log restarted after a crash), or no cursor at all, gets a
        full listing tagged with the current epoch so the client can
        resync and resume deltas."""
        if epoch != self._changes.epoch or since_seq < 0:
            return JobListingDelta(
                seq=self._changes.seq,
                epoch=self._changes.epoch,
                full=True,
                listings=tuple(self.listings(user_dn)),
            )
        self._index_hit()
        return self._changes.delta_for(user_dn, since_seq)

    def verify_index(self) -> None:
        """Assert the index agrees with a scan of the table (test helper)."""
        self._index.verify(self._runs)

    def watch(self, job_id: str) -> Event | None:
        """An event that fires when the job turns terminal; ``None`` when
        it already is.  Watcher events are owned by the *caller* (the
        gateway), never by the run: a crash fires them all (waking
        subscribers to observe the outage) without disturbing the run's
        own completion events."""
        if self._runs[job_id].status().is_terminal:
            return None
        ev = self._sim.event(name=f"watch:{job_id}")
        self._watchers.setdefault(job_id, []).append(ev)
        return ev

    # ------------------------------------------------------------- life cycle
    def _next_job_id(self) -> str:
        """Allocate the next job id from the durable cursor.

        Persisting the cursor keeps job ids stable across a cold restart
        (a restored site must not re-issue ``U00001`` over a recovered
        job of the same name).
        """
        seq = int(typing.cast(int, self._meta.get("job_seq", 0))) + 1
        self._meta.put("job_seq", seq)
        return f"U{seq:05d}@{self._usite_name}"

    @staticmethod
    def _job_seq(job_id: str) -> int:
        """The cursor value :meth:`_next_job_id` issued ``job_id`` at:
        the sort key for consignment order (``U100000`` sorts before
        ``U99999`` as text)."""
        return int(job_id[1:job_id.index("@")])

    @staticmethod
    def _listing(run: JobRun, status_value: str) -> JobListing:
        return JobListing(
            job_id=run.job_id,
            name=run.name,
            status=status_value,
            submitted_at=run.submitted_at,
            recovered=run.recovered,
        )

    def _enter(self, run: JobRun) -> None:
        self._runs[run.job_id] = run
        status = run.status()
        self._index.add(
            run.job_id, run.user_dn, status.value, status.is_terminal
        )
        self._changes.record(self._listing(run, status.value), run.user_dn)

    def admit(
        self,
        ajo: AbstractJobObject,
        user_dn: str,
        workstation_files: dict[str, FileBody],
        trace_id: str,
        *,
        job_id: str | None = None,
        ajo_bytes: bytes | None = None,
        parent_job_id: str | None = None,
        forward_meta: ForwardMeta | None = None,
    ) -> JobRun:
        """Take a job in (see :meth:`NetworkJobSupervisor.consign` for
        the arguments).  One durable unit: the job-id cursor advance and
        the journal's consign row land together or not at all; a replay
        (``job_id`` given) already has its row."""
        with self._storage.batch():
            replay = job_id is not None
            if job_id is None:
                job_id = self._next_job_id()
            run = JobRun.create(
                self._sim, job_id, ajo, user_dn,
                workstation_files=workstation_files,
            )
            run.trace_id = trace_id
            run.on_change = self._note_change
            self._enter(run)
            if not replay:
                self.journal.record_consign(
                    job_id,
                    encode_ajo(ajo) if ajo_bytes is None else ajo_bytes,
                    user_dn,
                    workstation_files=workstation_files,
                    trace_id=trace_id,
                    parent_job_id=parent_job_id,
                    forward_meta=forward_meta,
                )
        return run

    def _note_change(self, run: JobRun) -> None:
        """Status-change hook: keep index, change-log, watchers current.

        Fired by :meth:`JobRun.notify_change` after any action status
        change.  Only rollup-value changes append to the change-log, so
        the log stays proportional to *visible* transitions.
        """
        if not self.owns(run):
            return  # orphaned by a crash that raced supervision
        status = run.status()
        changed = self._index.note_status(
            run.job_id, run.user_dn, status.value, status.is_terminal
        )
        if not changed:
            return
        self._changes.record(self._listing(run, status.value), run.user_dn)
        if status.is_terminal:
            for watcher in self._watchers.pop(run.job_id, ()):
                if not watcher.triggered:
                    watcher.succeed(status)

    def note_delivery(
        self, run: JobRun, action_id: str, vsite: str, local_id: str
    ) -> None:
        """A task went to a batch system: remember where, durably, so a
        replay can cancel the survivor before resubmitting."""
        run.batch_jobs[action_id] = (vsite, local_id)
        self.journal.record_delivery(run.job_id, action_id, vsite, local_id)

    def finish(self, run: JobRun) -> None:
        """Retire a job whose supervision ended.

        The outcome row is what marks the job finished, and it lands in
        one durable unit with the journal retiring the job: after this
        batch, even a cold-started successor can serve the job's
        listing, outcome tree, and Uspace files.
        """
        with self._storage.batch():
            self.journal.finish(run.job_id)
            files: dict[str, FileBody] = {}
            for uspace in run.uspaces.values():
                for path in uspace.files():
                    files.setdefault(path, uspace.body(path))
            self.outcomes.put(OutcomeRecord(
                job_id=run.job_id,
                name=run.name,
                user_dn=run.user_dn,
                status=run.status().value,
                submitted_at=run.submitted_at,
                recovered=run.recovered,
                trace_id=run.trace_id,
                outcome_bytes=run.encoded_outcome(),
            ), files)

    def dispose(self, job_id: str) -> JobRun:
        """Forget a job everywhere: table, index, change-log, storage."""
        run = self._runs.pop(job_id)
        self._index.discard(job_id, run.user_dn)
        self._changes.record_removed(job_id, run.user_dn)
        with self._storage.batch():
            self.journal.forget(job_id)
            self.outcomes.forget(job_id)
        return run

    # ------------------------------------------------------- crash / recovery
    def lose_memory(self, cold: bool) -> None:
        """The NJS process died; durable storage is all that survives.

        Supervision of the jobs in flight — the ones the journal still
        holds — is interrupted (process events defused so the simulator
        does not treat orphan failures as crashes) and their runs
        forgotten.  A *warm* crash keeps finished runs' Python objects
        (their outcomes live in Uspaces on the site disk, so a crash
        after completion must not make the job unknowable to later
        queries); after a ``cold`` one :meth:`restore` rebuilds them.
        """
        finished: dict[str, JobRun] = {}
        for job_id, run in self._runs.items():
            if self.journal.entry(job_id) is None:
                finished[job_id] = run
                continue
            for proc in run.processes:
                if proc.is_alive and proc.target is not None:
                    proc.defuse()
                    proc.interrupt(cause="njs-crash")
        self._runs = {} if cold else finished
        # Wake every parked completion subscriber: the run it watched is
        # either finished (answer immediately) or gone (the client must
        # observe the outage and re-subscribe after the replay).
        for watchers in self._watchers.values():
            for watcher in watchers:
                if not watcher.triggered:
                    watcher.succeed(None)
        self._watchers.clear()
        # The in-memory index dies with the process; rebuild from the
        # surviving (finished) runs and start a fresh change-log epoch so
        # delta cursors from the old life are refused with a full resync.
        self._index.rebuild(self._runs)
        telemetry_for(self._sim).metrics.counter("njs.index.rebuilds").inc()
        self._changes = self._changes.next_epoch()
        for run in self._runs.values():
            self._changes.record(
                self._listing(run, run.status().value), run.user_dn
            )

    def restore(self) -> list[JournalEntry]:
        """Rebuild from storage; returns the jobs in flight, in
        consignment order, for the caller to replay.

        Reads the jobs in flight and one row per finished job: the
        journal rows of finished jobs are skipped by key.
        """
        finished = set(self.outcomes.job_ids())
        # A warm restart kept every finished run, a cold one none of them.
        if not finished <= self._runs.keys():
            self._restore_finished()
        self.journal.reload(finished, self._job_seq)
        return self.journal.incomplete()

    def _restore_finished(self) -> None:
        """Resurrect finished jobs that exist only in the outcome store."""
        metrics = telemetry_for(self._sim).metrics
        for record in self.outcomes.records(self._job_seq):
            if record.job_id in self._runs:
                continue
            self._enter(typing.cast(JobRun, RestoredRun(
                record,
                functools.partial(self.journal.ajo_bytes, record.job_id),
                self._storage.blobs,
            )))
            metrics.counter("njs.restored_runs").inc()
