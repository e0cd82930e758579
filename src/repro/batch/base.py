"""The batch-system engine: submission, scheduling, execution, collection.

A :class:`BatchSystem` simulates one execution host: named queues with
limits, a CPU pool, a pluggable space-sharing scheduler, and job
execution as one timer per running job.  Jobs carry *effects* — files they
create in their working space — so the data-flow of a UNICORE job (object
files, executables, results) really happens (every product of one size on
one host is the same zero-filled body), and stdout/stderr are produced for
the NJS to collect (section 5.5).

Site autonomy is enforced by this API: there is no priority parameter, no
reservation call, nothing a middleware could use to influence scheduling
— only ``submit``, ``cancel``, and ``query``, exactly the interface the
paper's NJS has to live with.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import count

from repro.batch.dialects import dialect_for
from repro.batch.errors import (
    BatchError,
    JobRejectedError,
    SystemOfflineError,
    UnknownJobError,
    UnknownQueueError,
)
from repro.batch.machines import MachineConfig
from repro.batch.scheduling import FCFSScheduler
from repro.observability import INERT_SPAN, Span, telemetry_for
from repro.resources.model import ResourceSet
from repro.simkernel import CallbackSlot, Event, Simulator
from repro.vfs.body import FileBody

__all__ = [
    "BatchState",
    "FileEffect",
    "QueueConfig",
    "BatchJobSpec",
    "BatchJobRecord",
    "BatchSystem",
]


class BatchState(enum.Enum):
    """Uniform job states (each dialect has local names for them)."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"

    @property
    def is_terminal(self) -> bool:
        return self in (BatchState.DONE, BatchState.FAILED, BatchState.CANCELLED)


@dataclass(frozen=True, slots=True)
class FileEffect:
    """A file the job creates in its working space on success."""

    path: str
    size_bytes: int = 0


@dataclass(frozen=True, slots=True)
class QueueConfig:
    """One batch queue with its submission limits."""

    name: str
    max_cpus: int
    max_time_s: float
    min_cpus: int = 1

    def admits(self, resources: ResourceSet) -> list[str]:
        """Limit violations (empty list = admitted)."""
        problems = []
        if resources.cpus < self.min_cpus:
            problems.append(
                f"queue {self.name}: {resources.cpus} cpus below minimum "
                f"{self.min_cpus}"
            )
        if resources.cpus > self.max_cpus:
            problems.append(
                f"queue {self.name}: {resources.cpus} cpus above maximum "
                f"{self.max_cpus}"
            )
        if resources.time_s > self.max_time_s:
            problems.append(
                f"queue {self.name}: {resources.time_s}s above time limit "
                f"{self.max_time_s}s"
            )
        return problems


@dataclass(slots=True)
class BatchJobSpec:
    """Everything a batch submission carries.

    ``wallclock_s`` is the job's *actual* runtime (the simulation
    ground-truth); the system enforces the *requested* limit
    ``resources.time_s`` and kills over-runners, as real systems do.
    ``origin`` tags local versus UNICORE-delivered jobs for experiment E8
    — the batch system itself never reads it.
    """

    name: str
    owner: str
    queue: str
    script: str
    resources: ResourceSet
    group: str = "users"
    wallclock_s: float | None = None
    exit_code: int = 0
    effects: tuple[FileEffect, ...] = ()
    stdout_text: str = ""
    stderr_text: str = ""
    workdir: object | None = None
    origin: str = "local"
    #: Trace context from the consigning NJS (empty = untraced).
    trace_id: str = ""
    parent_span_id: str = ""

    @property
    def actual_runtime(self) -> float:
        return self.resources.time_s if self.wallclock_s is None else self.wallclock_s


@dataclass(slots=True)
class BatchJobRecord:
    """The batch system's view of one submitted job."""

    job_id: str
    spec: BatchJobSpec
    state: BatchState = BatchState.QUEUED
    submit_time: float = 0.0
    start_time: float | None = None
    end_time: float | None = None
    exit_code: int | None = None
    reason: str = ""
    completion_event: Event | None = None
    #: While running: the timer whose firing is the end of the run.
    _run: CallbackSlot | None = None
    _wait_span: Span = INERT_SPAN
    _run_span: Span = INERT_SPAN

    @property
    def wait_time(self) -> float | None:
        if self.start_time is None:
            return None
        return self.start_time - self.submit_time

    @property
    def turnaround(self) -> float | None:
        if self.end_time is None:
            return None
        return self.end_time - self.submit_time


class BatchSystem:
    """One simulated execution host with its vendor batch system."""

    def __init__(
        self,
        sim: Simulator,
        machine: MachineConfig,
        queues: list[QueueConfig] | None = None,
        scheduler=None,
    ) -> None:
        self.sim = sim
        self.machine = machine
        self.dialect = dialect_for(machine.dialect)
        self.scheduler = scheduler or FCFSScheduler()
        qs = queues or [
            QueueConfig(name="batch", max_cpus=machine.cpus, max_time_s=86400.0)
        ]
        self.queues: dict[str, QueueConfig] = {}
        for q in qs:
            if q.name in self.queues:
                raise BatchError(f"duplicate queue {q.name!r}")
            if q.max_cpus > machine.cpus:
                raise BatchError(
                    f"queue {q.name!r} allows {q.max_cpus} cpus but machine "
                    f"{machine.name} has only {machine.cpus}"
                )
            self.queues[q.name] = q

        self.free_cpus = machine.cpus
        self._pending: list[BatchJobRecord] = []
        self._running: dict[str, BatchJobRecord] = {}
        self._records: dict[str, BatchJobRecord] = {}
        self._ids = count(1)
        #: True while the whole system is down (a simulated outage):
        #: submissions are refused, queued jobs wait, nothing starts.
        self.offline = False
        #: The one body this host's jobs leave per product size: content
        #: it made itself, so its digest and chunk CRCs are taken once.
        self._products: dict[int, FileBody] = {}

        # Utilization accounting: integral of busy CPUs over time.
        self._busy_integral = 0.0
        self._last_account = sim.now

    # -- public batch interface (submit / cancel / query only) -----------------
    def submit(self, spec: BatchJobSpec) -> str:
        """Submit a job script; returns the local job identifier.

        Raises :class:`JobRejectedError` on queue-limit violations and
        :class:`BatchError` if the script is not in this system's dialect.
        """
        if self.offline:
            raise SystemOfflineError(
                f"{self.machine.name} is offline; submission refused"
            )
        queue = self.queues.get(spec.queue)
        if queue is None:
            raise UnknownQueueError(
                f"{self.machine.name}: no queue {spec.queue!r} "
                f"(available: {sorted(self.queues)})"
            )
        problems = queue.admits(spec.resources)
        if spec.resources.cpus > self.machine.cpus:
            problems.append(
                f"{spec.resources.cpus} cpus exceed machine size "
                f"{self.machine.cpus}"
            )
        if spec.resources.memory_mb > self.machine.total_memory_mb:
            problems.append(
                f"{spec.resources.memory_mb}MB exceed machine memory "
                f"{self.machine.total_memory_mb}MB"
            )
        if problems:
            raise JobRejectedError("; ".join(problems))
        # A real batch system would fail on foreign syntax: verify dialect.
        self.dialect.parse_directives(spec.script)

        record = BatchJobRecord(
            job_id=f"{self.machine.name.lower()}.{next(self._ids)}",
            spec=spec,
            submit_time=self.sim.now,
            completion_event=self.sim.event(name=f"completion:{spec.name}"),
        )
        telemetry = telemetry_for(self.sim)
        telemetry.metrics.counter("batch.submitted").inc()
        record._wait_span = telemetry.tracer.start_span(
            "batch.wait",
            spec.trace_id,
            parent=spec.parent_span_id,
            tier="batch",
            job=spec.name,
            queue=spec.queue,
            machine=self.machine.name,
        )
        self._records[record.job_id] = record
        self._pending.append(record)
        self._schedule_pass()
        return record.job_id

    def cancel(self, job_id: str) -> None:
        """Cancel a queued or running job."""
        record = self.query(job_id)
        if record.state is BatchState.QUEUED:
            self._pending.remove(record)
            self._finish(record, BatchState.CANCELLED, reason="cancelled while queued")
        elif record.state is BatchState.RUNNING:
            self._kill(record, BatchState.CANCELLED, None, "cancelled by operator")
        elif record.state.is_terminal:
            raise BatchError(f"job {job_id} already terminal ({record.state.value})")

    def query(self, job_id: str) -> BatchJobRecord:
        try:
            return self._records[job_id]
        except KeyError:
            raise UnknownJobError(
                f"{self.machine.name}: unknown job {job_id!r}"
            ) from None

    # -- simulated hardware faults (driven by repro.faults) ----------------
    def fail_job(self, job_id: str, reason: str = "node failure") -> None:
        """Kill one *running* job as a hardware fault (exit code 139).

        Unlike :meth:`cancel` this marks the job FAILED, so the NJS's
        task-retry loop can tell an operator's kill (final) from a dead
        node (worth resubmitting).
        """
        record = self.query(job_id)
        if record.state is not BatchState.RUNNING:
            raise BatchError(
                f"job {job_id} is {record.state.value}; only running jobs "
                "can suffer a node failure"
            )
        telemetry_for(self.sim).metrics.counter("batch.node_failures").inc()
        # The node died under the job: a genuine failure, not an operator
        # decision — exit as a killed process would.
        self._kill(record, BatchState.FAILED, 139, reason)

    def set_offline(self, offline: bool) -> None:
        """Take the whole system down (or bring it back).

        Going down node-fails every running job; queued jobs survive the
        outage and are scheduled again once the system returns.
        """
        if offline == self.offline:
            return
        self.offline = offline
        telemetry = telemetry_for(self.sim)
        if offline:
            telemetry.metrics.counter("batch.outages").inc()
            for job_id in sorted(self._running):
                self.fail_job(job_id, reason="node failure (system outage)")
        else:
            self._schedule_pass()

    def running_job_ids(self) -> list[str]:
        """Identifiers of currently running jobs (fault-target picking)."""
        return sorted(self._running)

    def local_state_name(self, job_id: str) -> str:
        """The job's state in the vendor's own nomenclature."""
        record = self.query(job_id)
        phase = {
            BatchState.QUEUED: "queued",
            BatchState.RUNNING: "running",
            BatchState.DONE: "done",
            BatchState.FAILED: "failed",
            BatchState.CANCELLED: "failed",
        }[record.state]
        return self.dialect.local_state(phase)

    # -- introspection ------------------------------------------------------------
    @property
    def pending_count(self) -> int:
        return len(self._pending)

    @property
    def running_count(self) -> int:
        return len(self._running)

    def all_records(self) -> list[BatchJobRecord]:
        return list(self._records.values())

    def backlog_cpu_s(self) -> float:
        """Work still ahead of a new arrival, as an outsider can see it:
        cpus x remaining limit over queued and running records (the
        classic backlog heuristic; divide by the machine's CPUs for a
        wait estimate)."""
        backlog = 0.0
        now = self.sim.now
        for record in self._records.values():
            resources = record.spec.resources
            if record.state is BatchState.QUEUED:
                backlog += resources.cpus * resources.time_s
            elif record.state is BatchState.RUNNING:
                elapsed = now - (record.start_time or now)
                backlog += resources.cpus * max(0.0, resources.time_s - elapsed)
        return backlog

    def utilization(self) -> float:
        """Mean fraction of CPUs busy since t=0."""
        self._account()
        elapsed = self.sim.now
        if elapsed <= 0:
            return 0.0
        return self._busy_integral / (elapsed * self.machine.cpus)

    # -- internals -------------------------------------------------------------------
    def _account(self) -> None:
        busy = self.machine.cpus - self.free_cpus
        self._busy_integral += busy * (self.sim.now - self._last_account)
        self._last_account = self.sim.now

    def _schedule_pass(self) -> None:
        if self.offline:
            return
        startable = self.scheduler.select(
            self._pending, self.free_cpus, self.sim.now, list(self._running.values())
        )
        for record in startable:
            self._start(record)

    def _start(self, record: BatchJobRecord) -> None:
        self._account()
        self._pending.remove(record)
        need = record.spec.resources.cpus
        assert need <= self.free_cpus, "scheduler overcommitted the machine"
        self.free_cpus -= need
        record.state = BatchState.RUNNING
        record.start_time = self.sim.now
        telemetry = telemetry_for(self.sim)
        telemetry.metrics.histogram("batch.wait_seconds").observe(
            record.wait_time or 0.0
        )
        telemetry.tracer.end_span(record._wait_span)
        record._run_span = telemetry.tracer.start_span(
            "batch.execute",
            record.spec.trace_id,
            parent=record.spec.parent_span_id,
            tier="batch",
            job=record.spec.name,
            machine=self.machine.name,
            cpus=record.spec.resources.cpus,
        )
        self._running[record.job_id] = record
        record._run = self.sim.schedule_callback(
            min(record.spec.actual_runtime, record.spec.resources.time_s),
            self._run_ended, record,
        )

    def _kill(
        self, record: BatchJobRecord, state: BatchState,
        exit_code: int | None, reason: str,
    ) -> None:
        """End a running job before its time.  The kill is its own queue
        entry at this instant: whoever ordered it returns first."""
        assert record._run is not None
        record._run.cancel()
        self.sim.schedule_callback(
            0.0, self._end_run, record, state, exit_code, reason
        )

    def _run_ended(self, record: BatchJobRecord) -> None:
        spec = record.spec
        limit = spec.resources.time_s
        if spec.actual_runtime > limit:
            self._end_run(
                record, BatchState.FAILED, 137,
                f"wallclock limit {limit}s exceeded",
            )
        elif spec.exit_code != 0:
            self._collect_output(record)
            self._end_run(
                record, BatchState.FAILED, spec.exit_code,
                f"exit code {spec.exit_code}",
            )
        else:
            self._apply_effects(record)
            self._collect_output(record)
            self._end_run(record, BatchState.DONE, 0, "")

    def _end_run(
        self, record: BatchJobRecord, state: BatchState,
        exit_code: int | None, reason: str,
    ) -> None:
        self._release(record)
        self._finish(record, state, exit_code=exit_code, reason=reason)
        self._schedule_pass()

    def _release(self, record: BatchJobRecord) -> None:
        self._account()
        self.free_cpus += record.spec.resources.cpus
        del self._running[record.job_id]

    def _apply_effects(self, record: BatchJobRecord) -> None:
        workdir = record.spec.workdir
        if workdir is None:
            return
        for effect in record.spec.effects:
            size = effect.size_bytes
            if size not in self._products:
                self._products[size] = FileBody(bytes(size))
            workdir.write(effect.path, self._products[size])

    def _collect_output(self, record: BatchJobRecord) -> None:
        workdir = record.spec.workdir
        if workdir is None:
            return
        seq = record.job_id.rsplit(".", 1)[-1]
        stdout = record.spec.stdout_text or f"{record.spec.name}: ok\n"
        workdir.write(f"{record.spec.name}.o{seq}", stdout.encode())
        if record.spec.stderr_text:
            workdir.write(f"{record.spec.name}.e{seq}", record.spec.stderr_text.encode())

    def _finish(
        self,
        record: BatchJobRecord,
        state: BatchState,
        exit_code: int | None = None,
        reason: str = "",
    ) -> None:
        record.state = state
        record.end_time = self.sim.now
        record.exit_code = exit_code
        record.reason = reason
        record._run = None
        telemetry = telemetry_for(self.sim)
        if record.start_time is not None:
            telemetry.metrics.histogram("batch.execute_seconds").observe(
                record.end_time - record.start_time
            )
        failure = None if state is BatchState.DONE else (reason or state.value)
        if not record._wait_span.finished:
            # Cancelled while queued: the wait span is all there was.
            telemetry.tracer.end_span(record._wait_span, error=failure)
        telemetry.tracer.end_span(
            record._run_span.set(state=state.value), error=failure
        )
        assert record.completion_event is not None
        record.completion_event.succeed(record)
