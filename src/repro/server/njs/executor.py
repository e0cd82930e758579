"""The NJS job engine: sequencing, incarnation, delivery, data movement.

Section 5.5's task list, as the processes that supervise one job:

* create a UNICORE job directory (Uspace) per job group with tasks;
* sequence dependent parts — delivery only, never influencing the local
  scheduling of destination systems (site autonomy);
* incarnate abstract tasks via the Vsites' translation tables and submit
  them to the vendor batch systems;
* guarantee dependency-annotated files are available to successors;
* perform imports/exports as local copies (Uspace-to-Uspace transfers and
  groups for other Usites go through :mod:`repro.server.njs.forwarding`);
* collect standard output/error and aggregate Outcomes.
"""

from __future__ import annotations

import typing

from repro.ajo.job import AbstractJobObject
from repro.ajo.outcome import AJOOutcome, TaskOutcome
from repro.ajo.status import ActionStatus
from repro.ajo.tasks import (
    ExecuteTask,
    ExportTask,
    FileSpace,
    ImportTask,
    TransferTask,
)
from repro.batch.base import BatchState, FileEffect
from repro.batch.errors import BatchError, SystemOfflineError
from repro.observability import telemetry_for
from repro.security.errors import MappingError
from repro.security.uudb import UUDB
from repro.server.errors import ConsignError
from repro.server.njs.codine_layer import CodineJobControl
from repro.server.njs.forwarding import LOCAL_DISK_BANDWIDTH_BPS, Forwarding
from repro.server.njs.incarnation import (
    RESULT_FILE_BYTES,
    IncarnationCache,
    incarnate_task,
)
from repro.server.njs.jobrun import JobRun
from repro.server.njs.peerlink import CancelGroup, PeerLink
from repro.server.njs.runtable import RunTable
from repro.server.vsite import Vsite
from repro.simkernel import Simulator
from repro.storage.journal import JournalEntry
from repro.vfs.body import FileBody
from repro.vfs.errors import VFSError
from repro.vfs.spaces import Xspace

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.ext.accounting import AccountingLog

__all__ = ["Executor"]

#: CPU cost of incarnating one task (table lookups + templating).
INCARNATION_CPU_S = 0.005

#: Bounded resubmission of tasks whose *node* failed (as opposed to the
#: task itself): delays grow linearly so a whole-Vsite outage of up to
#: ~3 simulated minutes is ridden out.
TASK_RETRIES = 4
TASK_RETRY_DELAY_S = 45.0


class Executor:
    """Supervises the jobs of one NJS on the Vsites of its Usite."""

    def __init__(
        self,
        sim: Simulator,
        usite_name: str,
        vsites: dict[str, Vsite],
        uudb: UUDB,
        xspace: Xspace,
        accounting: AccountingLog,
        runs: RunTable,
        peers: PeerLink,
        forwarding: Forwarding,
    ) -> None:
        self._sim = sim
        self._usite_name = usite_name
        self._vsites = vsites
        self._uudb = uudb
        self._xspace = xspace
        #: Every completed UNICORE batch record is charged here (section
        #: 6's "accounting functions").
        self._accounting = accounting
        self._runs = runs
        self._peers = peers
        self._forwarding = forwarding
        #: The Codine-based internal job control of section 5.1/5.5:
        #: every incarnated job passes through the Codine internal format.
        self.codine = CodineJobControl()
        #: Incarnation translation cache keyed by (task shape, dialect).
        self._incarnation_cache = IncarnationCache()

    def forget_caches(self) -> None:
        """Process memory is gone entirely (a cold crash)."""
        self._incarnation_cache = IncarnationCache()

    def supervise(self, run: JobRun) -> None:
        """Start supervising a run the table just admitted."""
        self.spawn(run, self._run_job(run), f"job:{run.job_id}")

    def spawn(self, run: JobRun, body, name: str) -> None:
        """Start a process on behalf of ``run``.  A crash interrupts what
        is listed on the run, so a replay never races orphaned supervisors."""
        run.processes.append(self._sim.process(body, name=name))

    # ------------------------------------------------------------- control
    def hold(self, run: JobRun) -> None:
        """Stop delivering further parts of the job (already-submitted
        batch jobs keep running — UNICORE cannot influence them)."""
        if run.status().is_terminal:
            raise ConsignError(f"job {run.job_id} already terminal; cannot hold")
        run.held = True

    def resume(self, run: JobRun) -> None:
        """Release a held job's delivery."""
        run.held = False
        if run.hold_released is not None and not run.hold_released.triggered:
            run.hold_released.succeed()

    def cancel(self, run: JobRun) -> None:
        """Cancel a job: kill batch jobs, propagate to forwarded groups."""
        if run.cancelled:
            return
        run.cancelled = True
        # A held job's waiters must wake up to observe the cancellation.
        if run.held:
            self.resume(run)
        for vsite_name, local_id in run.batch_jobs.values():
            self._cancel_delivery(vsite_name, local_id)
        for sub in run.root.sub_jobs():
            if sub.usite != self._usite_name and sub.usite in self._peers.routes:
                # Fire-and-forget: cancellation is best-effort.
                self._sim.process(self._peers.try_send(sub.usite, CancelGroup(
                    corr_id=self._peers.next_corr_id(), parent_job_id=run.job_id
                )))

    def _cancel_delivery(self, vsite_name: str, local_id: str) -> None:
        batch = self._vsites[vsite_name].batch
        if not batch.query(local_id).state.is_terminal:
            batch.cancel(local_id)

    def clear_leftovers(self, entry: JournalEntry) -> None:
        """Before a journaled job is replayed: remove what its previous
        life left on the Vsites."""
        # Orphaned batch jobs: cancel the survivors (their supervisor is
        # gone; the replay resubmits from scratch).
        for vsite_name, local_id in entry.delivered.values():
            if vsite_name in self._vsites:
                try:
                    self._cancel_delivery(vsite_name, local_id)
                except BatchError:
                    pass  # the batch system forgot the job: nothing survives
        # Stale job directories would collide with the replay's creates.
        prefix = f"{entry.job_id}."
        for vsite in self._vsites.values():
            for name in list(vsite.uspaces.active_jobs):
                if name.startswith(prefix):
                    vsite.uspaces.destroy(name)

    def destroy_uspaces(self, run: JobRun) -> None:
        """The cleanup matching "create a UNICORE job directory"."""
        for uspace in run.uspaces.values():
            for vsite in self._vsites.values():
                if uspace.job_id in vsite.uspaces.active_jobs:
                    vsite.uspaces.destroy(uspace.job_id)

    # ------------------------------------------------------- job processes
    def _run_job(self, run: JobRun):
        if not self._runs.owns(run):
            return  # orphaned by a crash that raced the spawn
        yield from self._run_group(run, run.root)
        status = run.status()
        run.tracer.end_span(
            run.job_span.set(status=status.value),
            error=None if status is ActionStatus.SUCCESSFUL else status.value,
        )
        self._runs.finish(run)
        assert run.done_event is not None
        if not run.done_event.triggered:
            run.done_event.succeed(run.status())

    def _run_group(self, run: JobRun, group: AbstractJobObject):
        if group.tasks() or group.id == run.root.id:
            # Arrival analysis refused a group whose tasks name no Vsite
            # of this site; a taskless root may name none.
            vsite = self._vsites.get(group.vsite)
            if vsite is not None:
                uspace = vsite.uspaces.create(f"{run.job_id}.{group.id}")
                run.uspaces[group.id] = uspace
                # Early-arrived transfer files and forwarded staging.
                for path, content in self._forwarding.unstash(run.job_id).items():
                    uspace.write(path, content)

        for child in group.children:
            self.spawn(
                run, self._run_child(run, group, child), f"child:{child.id}"
            )
        for child in group.children:
            yield run.events[child.id]
        # Every child is terminal now, so the roll-up is the verdict.
        verdict = typing.cast(AJOOutcome, run.outcomes[group.id]).rollup_status()
        run.finish_action(
            group.id, verdict if group.children else ActionStatus.SUCCESSFUL
        )

    def _run_child(self, run: JobRun, group: AbstractJobObject, child):
        if not self._runs.owns(run):
            return  # orphaned by a crash that raced the spawn
        # 1. Wait for predecessors (the "predefined sequence").
        deps = [d for d in group.dependencies if d.successor_id == child.id]
        failed_pred = None
        for dep in deps:
            status = yield run.events[dep.predecessor_id]
            if status is not ActionStatus.SUCCESSFUL and failed_pred is None:
                failed_pred = (dep.predecessor_id, status)
        if failed_pred is not None:
            run.finish_action(
                child.id, ActionStatus.NOT_ATTEMPTED,
                reason=f"predecessor {failed_pred[0]} "
                       f"{failed_pred[1].value}",
            )
            return
        # A held job delivers nothing further until resumed (or cancelled).
        while run.held and not run.cancelled:
            if run.hold_released is None or run.hold_released.triggered:
                run.hold_released = self._sim.event(name=f"resume:{run.job_id}")
            yield run.hold_released
        if run.cancelled:
            run.finish_action(child.id, ActionStatus.KILLED, reason="job cancelled")
            return

        # 2. Guarantee dependency-annotated files (section 5.7).
        staged: dict[str, FileBody] = {}
        for dep in deps:
            for path in dep.files:
                content = self._locate_dependency_file(run, group, dep.predecessor_id, path)
                if content is None:
                    run.finish_action(
                        child.id, ActionStatus.FAILED,
                        reason=f"dependency file {path!r} from "
                               f"{dep.predecessor_id} not found",
                    )
                    return
                staged[path] = content
        if staged:
            # Local staging copy at disk bandwidth.
            total = sum(len(v) for v in staged.values())
            stage_span = run.span("njs.stage", files=len(staged), bytes=total)
            yield self._sim.timeout(total / LOCAL_DISK_BANDWIDTH_BPS)
            run.tracer.end_span(stage_span)

        # 3. Dispatch by action type.
        if isinstance(child, AbstractJobObject):
            # Files that parent-level edges expect this group to produce.
            run.group_expected[child.id] = tuple(
                f
                for dep in group.dependencies
                if dep.predecessor_id == child.id
                for f in dep.files
            )
            if child.usite and child.usite != self._usite_name:
                yield from self._forwarding.forward(run, group, child, staged)
            else:
                # The subgroup's Uspace does not exist yet: _run_group
                # takes the files out of the stash when it creates it.
                self._forwarding.stash(run.job_id, staged)
                yield from self._run_group(run, child)
        elif isinstance(child, ExecuteTask):
            yield from self._run_execute(run, group, child, staged)
        elif isinstance(child, (ImportTask, ExportTask)):
            yield from self._run_copy(run, group, child)
        elif isinstance(child, TransferTask):
            yield from self._forwarding.transfer(run, group, child)
        else:  # pragma: no cover - validated at add()
            run.finish_action(
                child.id, ActionStatus.FAILED,
                reason=f"unsupported action {type(child).__name__}",
            )

    @staticmethod
    def _locate_dependency_file(
        run: JobRun, group: AbstractJobObject, pred_id: str, path: str
    ) -> FileBody | None:
        """Find a predecessor-produced file (section 5.7's guarantee)."""
        # Files produced by forwarded groups came back in the GroupResult.
        if pred_id in run.remote_files and path in run.remote_files[pred_id]:
            return run.remote_files[pred_id][path]
        # A local subgroup's uspace.
        if pred_id in run.uspaces and run.uspaces[pred_id].exists(path):
            return run.uspaces[pred_id].body(path)
        # A sibling task: same group uspace.
        uspace = run.uspaces.get(group.id)
        if uspace is not None and uspace.exists(path):
            return uspace.body(path)
        return None

    # ------------------------------------------------------------- task kinds
    def _run_execute(self, run, group, task, staged: dict[str, FileBody]):
        vsite = self._vsites[group.vsite]
        uspace = run.uspaces[group.id]
        outcome = typing.cast(TaskOutcome, run.outcomes[task.id])
        for path, content in staged.items():
            uspace.write(path, content)
        try:
            mapping = self._uudb.map_dn(run.user_dn, vsite=vsite.name)
        except MappingError as err:
            run.finish_action(task.id, ActionStatus.FAILED, reason=str(err))
            return

        # Incarnation (the JTS role).
        telemetry = telemetry_for(self._sim)
        incarnate_span = run.span("njs.incarnate", task=task.name)
        yield self._sim.timeout(INCARNATION_CPU_S)
        telemetry.metrics.counter("njs.incarnations").inc()
        successors = [d for d in group.dependencies if d.predecessor_id == task.id]
        produces = [f for dep in successors for f in dep.files]
        # Files a later export names with this task as implicit producer.
        produces += [
            t.source_path
            for t in group.tasks()
            if isinstance(t, (ExportTask, TransferTask))
            and any(d.successor_id == t.id for d in successors)
        ]
        if not successors:
            # Sink tasks materialize what the *group* owes its own
            # successors (parent-level dependency edges, or a forwarding
            # parent's return_files request).
            produces += run.group_expected.get(group.id, ())
        spec = incarnate_task(
            task, vsite, mapping, uspace,
            extra_outputs=tuple(
                FileEffect(path=f, size_bytes=RESULT_FILE_BYTES) for f in produces
            ),
            metrics=telemetry.metrics,
            cache=self._incarnation_cache,
        )
        spec.trace_id = run.trace_id
        spec.parent_span_id = run.job_span.span_id
        run.tracer.end_span(
            incarnate_span.set(queue=spec.queue, script_bytes=len(spec.script))
        )
        # "Transform the abstract job into a Codine internal format"
        # (section 5.5) before delivery to the destination system.
        self.codine.register(run.job_id, task.id, vsite.name, spec, self._sim.now)
        record = None
        for attempt in range(1, TASK_RETRIES + 2):
            try:
                local_id = vsite.batch.submit(spec)
            except BatchError as err:
                if (
                    isinstance(err, SystemOfflineError)
                    and attempt <= TASK_RETRIES
                    and not run.cancelled
                ):
                    # Transient: the Vsite is down right now; wait it out.
                    telemetry.metrics.counter("njs.task_retry_waits").inc()
                    yield self._sim.timeout(TASK_RETRY_DELAY_S * attempt)
                    continue
                self.codine.transition(task.id, BatchState.FAILED, self._sim.now)
                run.finish_action(task.id, ActionStatus.FAILED, reason=str(err))
                return
            self.codine.bind_vendor_job(task.id, local_id)
            self._runs.note_delivery(run, task.id, vsite.name, local_id)
            outcome.submitted_at = self._sim.now
            if not outcome.status.is_terminal:
                outcome.mark(ActionStatus.QUEUED)
                run.notify_change()

            record = yield vsite.batch.query(local_id).completion_event
            if (
                record.state is BatchState.FAILED
                and record.reason.startswith("node failure")
                and attempt <= TASK_RETRIES
                and not run.cancelled
            ):
                # The *node* died, not the job: resubmit (bounded),
                # leaving a recovery mark in the per-job trace.
                telemetry.metrics.counter("njs.task_resubmissions").inc()
                run.tracer.end_span(run.span(
                    "njs.resubmit", task=task.name, attempt=attempt,
                    reason=record.reason,
                ))
                yield self._sim.timeout(TASK_RETRY_DELAY_S * attempt)
                continue
            break
        assert record is not None
        self.codine.transition(task.id, record.state, self._sim.now)
        outcome.completed_at = self._sim.now
        outcome.exit_code = record.exit_code
        self._accounting.charge(vsite.name, record)
        if record.state is BatchState.DONE:
            outcome.stdout = record.spec.stdout_text
            run.finish_action(task.id, ActionStatus.SUCCESSFUL)
        elif record.state is BatchState.CANCELLED:
            run.finish_action(task.id, ActionStatus.KILLED, reason=record.reason)
        else:
            outcome.stdout = record.spec.stdout_text
            outcome.stderr = record.spec.stderr_text
            run.finish_action(task.id, ActionStatus.FAILED, reason=record.reason)

    def _copy_source(
        self, run: JobRun, uspace, task: ImportTask | ExportTask
    ) -> tuple[FileBody | None, str]:
        """The body a copy task moves, or None and why there is none."""
        if isinstance(task, ExportTask):
            if uspace.exists(task.source_path):
                return uspace.body(task.source_path), ""
            return None, f"uspace file {task.source_path!r} does not exist"
        if task.source_space == FileSpace.WORKSTATION:
            return run.workstation_files.get(task.source_path), (
                f"workstation file {task.source_path!r} was not "
                "included in the consignment"
            )
        try:
            return self._xspace.fs.body(task.source_path), ""
        except VFSError as err:
            return None, str(err)

    def _run_copy(self, run, group, task: ImportTask | ExportTask):
        """An import (workstation or Xspace -> Uspace) or an export
        (Uspace -> Xspace): one local copy at disk bandwidth."""
        uspace = run.uspaces[group.id]
        outcome = run.outcomes[task.id]
        outcome.submitted_at = self._sim.now
        content, problem = self._copy_source(run, uspace, task)
        if content is None:
            run.finish_action(task.id, ActionStatus.FAILED, reason=problem)
            return
        attrs = {
            "task": task.name, "path": task.destination_path,
            "bytes": len(content),
        }
        if isinstance(task, ImportTask):
            copy_span = run.span("njs.import", **attrs)
            destination = uspace
        else:
            copy_span = run.span("njs.export", **attrs)
            destination = self._xspace.fs
        yield self._sim.timeout(len(content) / LOCAL_DISK_BANDWIDTH_BPS)
        try:
            destination.write(task.destination_path, content)
        except VFSError as err:
            run.tracer.end_span(copy_span, error=err)
            run.finish_action(task.id, ActionStatus.FAILED, reason=str(err))
            return
        run.tracer.end_span(copy_span)
        outcome.bytes_moved = len(content)
        outcome.completed_at = self._sim.now
        run.finish_action(task.id, ActionStatus.SUCCESSFUL)
