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

from repro.ajo.dag import JobPlan
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
from repro.server.errors import IncarnationError
from repro.server.njs.forwarding import LOCAL_DISK_BANDWIDTH_BPS, Forwarding
from repro.server.njs.incarnation import (
    RESULT_FILE_BYTES,
    IncarnationCache,
    incarnate_task,
)
from repro.server.njs.jobrun import JobRun
from repro.server.njs.peerlink import CancelGroup, PeerLink
from repro.server.njs.runtable import Run, RunTable
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
        #: Incarnation translation cache keyed by (task shape, dialect).
        self._incarnation_cache = IncarnationCache()

    def forget_caches(self) -> None:
        """The NJS process died, and its caches with it."""
        self._incarnation_cache = IncarnationCache()

    def supervise(self, run: JobRun, staged: dict[str, FileBody]) -> None:
        """Start supervising a run the table just admitted, its root
        Uspace starting with ``staged``."""
        self.spawn(run, self._run_job(run, staged), f"job:{run.job_id}")

    def spawn(self, run: JobRun, body, name: str) -> None:
        """Start a process on behalf of ``run``.  A crash interrupts what
        is listed on the run, so a replay never races orphaned supervisors."""
        run.processes.append(self._sim.process(body, name=name))

    # ------------------------------------------------------------- control
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
        self.tell_forwarded(run)

    def tell_forwarded(self, run: Run, *, dispose: bool = False) -> None:
        """Send one :class:`CancelGroup` to each peer that took in a group
        of ``run``'s job.  It cancels every such group, or with ``dispose``
        disposes each one that has finished.  Fire-and-forget: like the
        cancel and dispose it follows, it is best effort.  A site without
        peers forwarded nothing, and does not read a restored job's AJO to
        learn so."""
        if not self._peers.routes:
            return
        for usite in run.forwarded_usites():
            if usite in self._peers.routes:
                self._sim.process(self._peers.try_send(
                    usite, CancelGroup(run.job_id, dispose=dispose)
                ))

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
        self.destroy_uspaces(entry.job_id)

    def destroy_uspaces(self, job_id: str) -> None:
        """The cleanup matching "create a UNICORE job directory": remove
        every directory of the job (``<job id>.<group id>``) from the
        Vsites, whether a live run, an earlier life or nobody in memory
        created it."""
        prefix = f"{job_id}."
        for vsite in self._vsites.values():
            for name in vsite.uspaces.active_jobs:
                if name.startswith(prefix):
                    vsite.uspaces.destroy(name)

    # ------------------------------------------------------- job processes
    def _run_job(self, run: JobRun, staged: dict[str, FileBody]):
        # A forwarded root owes its parent files, and has files from there.
        yield from self._run_group(run, run.plan, staged)
        status = run.status()
        run.tracer.end_span(
            run.job_span.set(status=status.value),
            error=None if status is ActionStatus.SUCCESSFUL else status.value,
        )
        run.done_event.wake(self._runs.finish(run))

    def _run_group(self, run: JobRun, plan: JobPlan, staged: dict[str, FileBody]):
        """Run ``plan``'s group, whose Uspace starts with ``staged`` and
        whose sinks leave what it owes.  A group with no tasks has no
        Uspace, and what is handed to it stays nowhere."""
        group = plan.group
        if group.tasks() or group.id == run.root.id:
            # Arrival analysis refused a group whose tasks name no Vsite
            # of this site; a taskless root may name none.
            vsite = self._vsites.get(group.vsite)
            if vsite is not None:
                uspace = vsite.uspaces.create(f"{run.job_id}.{group.id}")
                run.uspaces[group.id] = uspace
                for path, content in staged.items():
                    uspace.write(path, content)

        for child in group.children:
            self.spawn(
                run, self._run_child(run, plan, child), f"child:{child.id}"
            )
        for child in group.children:
            yield run.events[child.id]
        # Every child is terminal now, so the kept roll-up is the verdict.
        verdict = typing.cast(AJOOutcome, run.outcomes[group.id]).rollup_status()
        run.finish_action(
            group.id, verdict if group.children else ActionStatus.SUCCESSFUL
        )

    def _run_child(self, run: JobRun, plan: JobPlan, child):
        """Sequence, stage and dispatch ``child`` of ``plan``'s group."""
        group = plan.group
        # 0. Incarnate an execute task now, beside its predecessors: the
        # sequence the NJS keeps is one of delivery, not of translation.
        spec = None
        if isinstance(child, ExecuteTask):
            spec = yield from self._incarnate(run, group, child, plan.promised[child.id])
        # 1. Wait for predecessors (the "predefined sequence").
        deps = plan.inbound[child.id]
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

        # 2. Guarantee dependency-annotated files (section 5.7).  A task
        # runs in its group's Uspace: a file a sibling task left there is
        # already in place, so it is checked, not copied.  A file from a
        # sub-group's Uspace or a forwarded group's result, and every file
        # headed for a local sub-group, is copied once at disk bandwidth:
        # into the task's Uspace here, or handed to the sub-group below.
        # A file headed for a forwarded group is not copied: its stream
        # reads the body, and the peer writes it as it arrives.
        is_task = not isinstance(child, AbstractJobObject)
        forwarded = not is_task and child.usite not in ("", self._usite_name)
        staged: dict[str, FileBody] = {}
        for dep in deps:
            for path in dep.files:
                content, in_place = self._locate_dependency_file(
                    run, group, dep.predecessor_id, path
                )
                if content is None:
                    run.finish_action(
                        child.id, ActionStatus.FAILED,
                        reason=f"dependency file {path!r} from "
                               f"{dep.predecessor_id} not found",
                    )
                    return
                if not (in_place and is_task):
                    staged[path] = content
        if staged and not forwarded:
            total = sum(len(v) for v in staged.values())
            stage_span = run.span("njs.stage", files=len(staged), bytes=total)
            yield self._sim.timeout(total / LOCAL_DISK_BANDWIDTH_BPS)
            run.tracer.end_span(stage_span)
            if is_task:
                uspace = run.uspaces[group.id]
                for path, content in staged.items():
                    uspace.write(path, content)

        # 3. Dispatch by action type.
        if forwarded:
            yield from self._forwarding.forward(run, plan, child, staged)
        elif not is_task:
            yield from self._run_group(run, plan.subs[child.id], staged)
        elif isinstance(child, ExecuteTask):
            yield from self._run_execute(run, group, child, spec)
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
    ) -> tuple[FileBody | None, bool]:
        """Find a predecessor-produced file (section 5.7's guarantee), and
        whether it was found in ``group``'s own Uspace."""
        # Files produced by forwarded groups came back in the GroupResult.
        if pred_id in run.remote_files and path in run.remote_files[pred_id]:
            return run.remote_files[pred_id][path], False
        # A local subgroup's uspace.
        if pred_id in run.uspaces and run.uspaces[pred_id].exists(path):
            return run.uspaces[pred_id].body(path), False
        # A sibling task: same group uspace.
        uspace = run.uspaces.get(group.id)
        if uspace is not None and uspace.exists(path):
            return uspace.body(path), True
        return None, False

    # ------------------------------------------------------------- task kinds
    def _incarnate(self, run, group, task, promised: tuple[str, ...]):
        """Translate ``task`` into its vendor batch job (the JTS role),
        bound to no account: delivery binds it; its products include the
        ``promised`` files.  Returns the spec, or the
        :class:`IncarnationError` that refused the task, which fails it
        only if it is delivered."""
        vsite = self._vsites[group.vsite]
        telemetry = telemetry_for(self._sim)
        incarnate_span = run.span("njs.incarnate", task=task.name)
        yield self._sim.timeout(INCARNATION_CPU_S)
        telemetry.metrics.counter("njs.incarnations").inc()
        try:
            spec = incarnate_task(
                task, vsite, None, run.uspaces[group.id],
                extra_outputs=tuple(
                    FileEffect(path=f, size_bytes=RESULT_FILE_BYTES)
                    for f in promised
                ),
                metrics=telemetry.metrics,
                cache=self._incarnation_cache,
            )
        except IncarnationError as err:
            run.tracer.end_span(incarnate_span, error=str(err))
            return err
        spec.trace_id = run.trace_id
        spec.parent_span_id = run.job_span.span_id
        run.tracer.end_span(
            incarnate_span.set(queue=spec.queue, script_bytes=len(spec.script))
        )
        return spec

    def _run_execute(self, run, group, task, spec):
        """Deliver ``task`` and supervise it to its end: section 5.5's
        job control.  The one record of the delivery is the run's
        ``batch_jobs`` entry, journaled; its state is the batch system's."""
        vsite = self._vsites[group.vsite]
        outcome = typing.cast(TaskOutcome, run.outcomes[task.id])
        # The account is bound at delivery: one disabled since the task
        # was incarnated delivers nothing under its old login.
        try:
            mapping = self._uudb.map_dn(run.user_dn, vsite=vsite.name)
        except MappingError as err:
            run.finish_action(task.id, ActionStatus.FAILED, reason=str(err))
            return
        if isinstance(spec, IncarnationError):
            run.finish_action(task.id, ActionStatus.FAILED, reason=str(spec))
            return
        spec.owner, spec.group = mapping.login, mapping.gid
        telemetry = telemetry_for(self._sim)
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
                run.finish_action(task.id, ActionStatus.FAILED, reason=str(err))
                return
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
        (Uspace -> Xspace): one local copy at disk bandwidth.  An export
        reads the Uspace, where :meth:`_run_child` put the files its
        dependency edges promised."""
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
