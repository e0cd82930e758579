"""The NJS run table: every job this site knows, live or finished.

One owner for the runs, the :class:`RunIndex` over them (each job's
latest listing, versioned), the completion watchers, the write-ahead
journal, the outcome store and the job-id cursor: a :class:`JobRun`
enters through :meth:`RunTable.admit`, changes through the status hook
it carries, becomes its outcome row, a :class:`FinishedRun`, in
:meth:`RunTable.finish` (or :meth:`RunTable.restore`), and leaves
through :meth:`RunTable.dispose`, so index and table move together.
To everyone else the table is a read-only mapping ``job id -> run``
plus a few indexed queries.
"""

from __future__ import annotations

import typing

from repro.ajo.dag import JobPlan
from repro.observability import telemetry_for
from repro.protocol.views import JobListing, JobListingDelta
from repro.server.njs.finished import FinishedRun
from repro.server.njs.jobrun import JobRun, status_replies
from repro.server.njs.runindex import RunIndex
from repro.simkernel import Event, Simulator
from repro.storage.backend import StorageBackend
from repro.storage.journal import Arrival, JobJournal, JournalEntry
from repro.storage.outcomes import OutcomeRecord, OutcomeStore
from repro.vfs.body import FileBody

__all__ = ["Run", "RunTable"]

#: A job as the table holds it: under supervision, or finished.
Run = JobRun | FinishedRun


class RunTable(typing.Mapping[str, Run]):
    """The jobs of one NJS, over its durable backend storage."""

    def __init__(
        self, sim: Simulator, usite_name: str, storage: StorageBackend
    ) -> None:
        self._sim = sim
        self._usite_name = usite_name
        self._storage = storage
        metrics = telemetry_for(sim).metrics
        self._runs: dict[str, Run] = {}
        self._index = RunIndex()
        #: Completion watchers for subscription-style waits: job id ->
        #: events the gateway parks on.  Woken once the job's outcome row
        #: is written (:meth:`finish`), and fired with the job still
        #: unfinished on :meth:`lose_memory`, so nobody sleeps through a
        #: lost run.
        self._watchers: dict[str, list[Event]] = {}
        #: Parent job id -> the forwarded groups serving it here, by job
        #: id in consignment order; None until a restored table is asked.
        self._serving: dict[str, list[str]] | None = {}
        self._meta = storage.table(f"{usite_name}.meta")  # the job-id cursor
        #: Write-ahead journal over backend storage: survives a crash,
        #: drives the replay.
        self.journal = JobJournal(
            storage, name=f"{usite_name}.journal", metrics=metrics
        )
        #: Finished jobs as persisted records (status, outcome digest,
        #: Uspace manifest) — what a cold start serves terminal queries
        #: from.  A job is finished exactly when its row exists here.
        self.outcomes = OutcomeStore(storage, f"{usite_name}.outcomes")

    # ------------------------------------------------------ read-only mapping
    def __getitem__(self, job_id: str) -> Run:
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
        return self._index.active_ids()

    def terminal_ids(self) -> tuple[str, ...]:
        self._index_hit()
        return self._index.terminal_ids()

    def listings(self, user_dn: str) -> list[JobListing]:
        """The user's jobs, as the index holds them: no run is touched."""
        self._index_hit()
        return self._index.listings(user_dn)

    def listings_delta(
        self, user_dn: str, since_seq: int, epoch: int
    ) -> JobListingDelta:
        """Changes since the cursor.  A cursor from another epoch (the
        index restarted after a crash), or no cursor at all, gets a
        full listing tagged with the current epoch so the client can
        resync and resume deltas."""
        self._index_hit()
        return self._index.delta(user_dn, since_seq, epoch)

    def serving(self, parent_job: str) -> list[Run]:
        """The runs serving groups of the parent site's job
        ``parent_job``, live or finished, in consignment order.  Kept at
        admit and dispose; a restored table reads the consign rows for
        it once, when first asked."""
        if self._serving is None:
            self._serving = {}
            for job_id in sorted(self._runs, key=self._job_seq):
                entry = self.journal.lookup(job_id)
                if entry is not None and entry.parent is not None:
                    self._serving.setdefault(entry.parent.job_id, []).append(job_id)
        return [self._runs[job_id] for job_id in self._serving.get(parent_job, ())]

    def watch(self, job_id: str) -> Event | None:
        """An event woken once the job is finished (its outcome row
        written, in :meth:`finish`); ``None`` when it already is
        terminal.  Watcher events are owned by the *caller* (the
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

    def _note(self, run: Run) -> None:
        """Book the run's listing."""
        status = run.status()
        listing = JobListing(
            job_id=run.job_id,
            name=run.name,
            status=status.value,
            submitted_at=run.submitted_at,
            recovered=run.recovered,
        )
        self._index.note(listing, run.user_dn, status.is_terminal)

    def _enter(self, run: Run) -> None:
        self._runs[run.job_id] = run
        self._note(run)

    def admit(
        self, plan: JobPlan, arrival: Arrival, job_id: str | None = None
    ) -> JobRun:
        """Take in a job its arrival analysis planned (see
        :meth:`NetworkJobSupervisor.consign`).  One durable unit: the
        job-id cursor advance and the journal's consign row land together
        or not at all; a replay (``job_id`` given) already has its row."""
        with self._storage.batch():
            replay = job_id is not None
            if job_id is None:
                job_id = self._next_job_id()
            run = JobRun.create(
                self._sim, job_id, plan, arrival.user_dn,
                workstation_files=arrival.files,
            )
            run.trace_id = arrival.trace_id
            run.recovered = replay
            run.on_change = self._note_change
            self._enter(run)
            parent = arrival.parent
            if parent is not None and self._serving is not None:
                self._serving.setdefault(parent.job_id, []).append(job_id)
            if not replay:
                self.journal.record_consign(job_id, arrival)
        return run

    def _note_change(self, run: JobRun) -> None:
        """Status-change hook: keep the index current.

        Fired by :meth:`JobRun.notify_change` after any action status
        change.  Only rollup-value changes take a new seq, so versions
        stay proportional to *visible* transitions.
        """
        if self.owns(run):  # else orphaned by a crash that raced supervision
            self._note(run)

    def note_delivery(
        self, run: JobRun, action_id: str, vsite: str, local_id: str
    ) -> None:
        """A task went to a batch system: remember where, durably, so a
        replay can cancel the survivor before resubmitting."""
        run.batch_jobs[action_id] = (vsite, local_id)
        self.journal.record_delivery(run.job_id, action_id, vsite, local_id)

    def finish(self, run: JobRun) -> FinishedRun:
        """Retire a job whose supervision ended.

        The outcome row is what marks the job finished, and it lands in
        one durable unit with the journal retiring the job: after this
        batch, even a cold-started successor can serve the job's
        listing, outcome tree, and Uspace files.  The row takes the
        run's place in the table, with the run's status replies, the
        Usites it forwarded groups to, its outcome encoding and file
        bodies: not its AJO or outcome tree.
        """
        files: dict[str, FileBody] = {}
        for uspace in run.uspaces.values():
            for path in uspace.files():
                files.setdefault(path, uspace.body(path))
        outcome_bytes = run.encoded_outcome()
        status = run.status()
        with self._storage.batch():
            self.journal.finish(run.job_id)
            record = self.outcomes.put(OutcomeRecord(
                job_id=run.job_id,
                name=run.name,
                user_dn=run.user_dn,
                status=status.value,
                submitted_at=run.submitted_at,
                recovered=run.recovered,
            ), outcome_bytes, files)
        finished = FinishedRun(
            record, self.journal, self._storage.blobs, self._usite_name,
            replies=status_replies(run.root, run.outcomes),
            usites=run.plan.usites,
            outcome_bytes=outcome_bytes, files=files,
        )
        self._runs[run.job_id] = finished
        for watcher in self._watchers.pop(run.job_id, ()):
            if not watcher.triggered:
                watcher.wake(status)
        return finished

    def dispose(self, run: FinishedRun) -> None:
        """Forget a finished job everywhere: table, indexes, storage."""
        del self._runs[run.job_id]
        self._index.remove(run.job_id, run.user_dn)
        with self._storage.batch():
            entry = self.journal.forget(run.job_id)
            self.outcomes.forget(run.record)
        if self._serving is not None and entry is not None and entry.parent:
            jobs = self._serving[entry.parent.job_id]
            jobs.remove(run.job_id)
            if not jobs:
                del self._serving[entry.parent.job_id]

    # ------------------------------------------------------- crash / recovery
    def lose_memory(self) -> None:
        """The NJS process died: every run goes with its heap, and
        durable storage is all that survives.

        Supervision of the jobs in flight — the ones the journal still
        holds — is interrupted (process events defused so the simulator
        does not treat orphan failures as crashes).  Every parked
        completion subscriber wakes to observe the outage, and the index
        starts afresh: a new epoch answers delta cursors from the old life
        with a full resync.  :meth:`restore` brings the
        finished jobs back from the outcome store.
        """
        for run in self._runs.values():
            if isinstance(run, FinishedRun):
                continue  # its supervision is over
            for proc in run.processes:
                if proc.is_alive and proc.target is not None:
                    proc.defuse()
                    proc.interrupt(cause="njs-crash")
        self._runs = {}
        for watchers in self._watchers.values():
            for watcher in watchers:
                if not watcher.triggered:
                    watcher.succeed(None)
        self._watchers.clear()
        self._index = self._index.next_epoch()
        telemetry_for(self._sim).metrics.counter("njs.index.rebuilds").inc()

    def restore(self) -> list[JournalEntry]:
        """Rebuild from storage; returns the jobs in flight, in
        consignment order, for the caller to replay.

        Every finished job comes back from its one outcome row as a
        :class:`FinishedRun`; the journal reloads the jobs in flight and
        skips the rows of finished ones by key.
        """
        finished = set(self.outcomes.job_ids())
        self._serving = None
        metrics = telemetry_for(self._sim).metrics
        for record in self.outcomes.records(self._job_seq):
            self._enter(FinishedRun(
                record, self.journal, self._storage.blobs, self._usite_name
            ))
            metrics.counter("njs.restored_runs").inc()
        self.journal.reload(finished, self._job_seq)
        return self.journal.incomplete()
