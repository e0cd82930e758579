"""Job groups and files crossing between NJSs (sections 4.3, 5.6).

Outbound, :meth:`Forwarding.forward` hands a job group destined for
another Usite to that site's NJS and splices what comes back into the
parent job, and :meth:`Forwarding.transfer` sends one Uspace file to a
peer ("NJS - NJS communication via the gateway").  Inbound,
:meth:`Forwarding.take_in` consigns such a group here (the consign starts
its :meth:`Forwarding.report_home`), and :meth:`Forwarding.returned`
takes a group's result.
A group that comes again (its parent site replayed the job) is answered
by the run already serving it (``RunTable.serving``), never run twice.

A group and its result carry their files as one manifest
(:mod:`repro.protocol.datapath`): small files inline, large ones as the
entries of streams sent ahead on the same FIFO route.  The data-plane
endpoint stores a Uspace-to-Uspace transfer on arrival and parks every
other stream until the message that names it claims it.

The part owns what only exists because jobs cross sites: the one stash
for files that arrive before their Uspace does.
"""

from __future__ import annotations

import copy
import typing

from repro.ajo.dag import JobPlan
from repro.ajo.errors import UnsafePathError
from repro.ajo.job import AbstractJobObject
from repro.ajo.outcome import AJOOutcome
from repro.ajo.serialize import decode_outcome, encode_ajo
from repro.ajo.status import ActionStatus
from repro.ajo.tasks import TransferTask
from repro.faults.errors import ServiceUnavailable
from repro.net.errors import ConnectionLost, FrameError
from repro.observability import telemetry_for
from repro.protocol.consignment import validate_manifest_paths
from repro.protocol.datapath import DataPlaneEndpoint, FileEntry, Manifest, claim, ship
from repro.server.njs.finished import FinishedRun
from repro.server.njs.jobrun import JobRun, index_outcomes
from repro.server.njs.peerlink import (
    ForwardGroup,
    GroupResult,
    PeerLink,
    TransferAck,
)
from repro.server.njs.runtable import RunTable
from repro.simkernel import Simulator
from repro.storage.journal import Arrival, Parent
from repro.vfs.body import FileBody

__all__ = ["Forwarding", "LOCAL_DISK_BANDWIDTH_BPS"]

#: Local disk bandwidth for Xspace<->Uspace copies (section 5.6: "a copy
#: process available at the Vsite"), and for staging a dependency file
#: into a Uspace it is not already in.
LOCAL_DISK_BANDWIDTH_BPS = 50e6

#: ``path -> body``.  A body stays inside the site that built it.
Files = dict[str, FileBody]


class Forwarding:
    """One NJS's dealings with job groups consigned across sites."""

    def __init__(
        self,
        sim: Simulator,
        usite_name: str,
        peers: PeerLink,
        runs: RunTable,
        consign: typing.Callable[..., JobRun],
    ) -> None:
        self._sim = sim
        self._usite_name = usite_name
        self._peers = peers
        self._runs = runs
        #: The NJS's own front door: a forwarded group is consigned like
        #: any other job.
        self._consign = consign
        #: Files a transfer of a parent job brought before its group, by
        #: parent job id, for :meth:`staging`.
        self._early_files: dict[str, Files] = {}
        #: Data-plane receiving endpoint: peer streams reassemble here;
        #: transfers are stored, the rest parked for their message
        #: (:meth:`_on_stream_complete`).
        self.datapath = DataPlaneEndpoint(
            sim, metrics=telemetry_for(sim).metrics,
            on_complete=self._on_stream_complete,
        )
        #: Instrumentation.
        self.forwarded_groups = 0
        self.transfers_bytes = 0

    def _count(self, name: str, amount: int = 1) -> None:
        telemetry_for(self._sim).metrics.counter(name).inc(amount)

    # ------------------------------------------------------ who holds what
    def stashes(self) -> dict[str, dict]:
        """A copy of everything held for an owner that has not arrived:
        ``early`` files by parent job id."""
        return copy.deepcopy({"early": self._early_files})

    def reset(self) -> None:
        """The process died: every stash and in-flight stream with it."""
        self._early_files.clear()
        self.datapath.clear()

    # ------------------------------------------------------------- shipping
    def _ship(self, usite: str, files: Files, kind: str):
        """The manifest of ``files`` for a message to ``usite``
        (``yield from``): large files stream ahead on the same FIFO
        route, labelled ``kind``, so the peer has them before the
        message that names them."""
        return ship(files, lambda path, body: self._peers.stream(
            usite, body, {"kind": kind, "path": path}
        ))

    # ------------------------------------------------------------- outbound
    def forward(self, run: JobRun, plan: JobPlan, sub: AbstractJobObject, staged: Files):
        """Run ``sub``, a child of ``plan``'s group, at its own Usite and
        merge the result into ``run``."""
        self.forwarded_groups += 1
        self._count("njs.forwarded_groups")
        forward_span = run.span("njs.forward", usite=sub.usite, group=sub.name)
        # Ship the workstation files the subtree imports.
        needed_ws = set(plan.subs[sub.id].imports)
        ws_files = {p: c for p, c in run.workstation_files.items() if p in needed_ws}
        ws_files.update(staged)
        key = (run.job_id, sub.id)
        reply_ev = self._peers.expect(key, "group-result")
        try:
            files = yield from self._ship(sub.usite, ws_files, "forward-stage")
            yield from self._peers.send(sub.usite, ForwardGroup(
                # What the group owes its parent group: its promised files.
                parent=Parent(run.job_id, self._usite_name, plan.promised[sub.id]),
                group_id=sub.id,
                user_dn=run.user_dn,
                ajo_bytes=encode_ajo(sub),
                files=files,
                trace_id=run.trace_id,
                parent_span_id=forward_span.span_id,
            ))
        except ConnectionLost as err:
            self._peers.abandon(key)
            run.tracer.end_span(forward_span, error=err)
            run.finish_action(
                sub.id, ActionStatus.FAILED,
                reason=f"job group lost in transit after retries: {err}",
            )
            return
        result = yield reply_ev
        run.tracer.end_span(forward_span, error=None if result.ok else result.error)
        if not result.ok:
            # The whole group was rejected remotely: none of its children
            # were attempted.
            for action in sub.walk():
                if action.id != sub.id:
                    outcome = run.outcomes[action.id]
                    if not outcome.status.is_terminal:
                        outcome.mark(
                            ActionStatus.NOT_ATTEMPTED,
                            reason="group rejected by remote NJS",
                        )
            run.finish_action(sub.id, ActionStatus.FAILED, reason=result.error)
            return
        try:  # the files the group produced streamed ahead of its result
            returned = claim(self.datapath, result.files)
        except (ServiceUnavailable, FrameError) as err:
            run.finish_action(sub.id, ActionStatus.FAILED, reason=str(err))
            return
        # The group's returned tree takes the place of its outcome; the
        # terminal events the sequencing waits on stay.
        sub_outcome = typing.cast(AJOOutcome, decode_outcome(result.outcome_bytes))
        sub_outcome.action_id = sub.id
        typing.cast(AJOOutcome, run.outcomes[plan.group.id]).add_child(sub_outcome)
        index_outcomes(sub_outcome, run.outcomes)
        if returned:
            run.remote_files[sub.id] = returned
        status = sub_outcome.rollup_status()
        if not status.is_terminal:
            status = ActionStatus.FAILED
        run.finish_action(sub.id, status)

    def transfer(self, run: JobRun, group, task: TransferTask):
        """Send one Uspace file to a peer Usite (a TransferTask)."""
        uspace = run.uspaces[group.id]
        outcome = run.outcomes[task.id]
        outcome.submitted_at = self._sim.now
        if not uspace.exists(task.source_path):
            run.finish_action(
                task.id, ActionStatus.FAILED,
                reason=f"uspace file {task.source_path!r} does not exist",
            )
            return
        if task.destination_usite not in self._peers.routes:
            run.finish_action(
                task.id, ActionStatus.FAILED,
                reason=f"no route to Usite {task.destination_usite!r}",
            )
            return
        content = uspace.body(task.source_path)
        key = (run.job_id, task.id)
        reply_ev = self._peers.expect(key, "transfer-ack")
        # The file travels on the data plane: chunked frames whose
        # context tells the peer where the bytes belong.  The receiver
        # acks the whole transfer, by job and task, once it is
        # reassembled and stored.
        context = {
            "kind": "uspace-file",
            "job": run.job_id,
            "task": task.id,
            "path": task.destination_path,
            "reply": self._usite_name,
        }
        started = self._sim.now
        transfer_span = run.span(
            "njs.transfer", task=task.name, usite=task.destination_usite,
            bytes=len(content),
        )
        try:
            yield from self._peers.stream(
                task.destination_usite, content, context
            )
        except ConnectionLost as err:
            self._peers.abandon(key)
            run.tracer.end_span(transfer_span, error=err)
            run.finish_action(
                task.id, ActionStatus.FAILED,
                reason=f"transfer lost after retries: {err}",
            )
            return
        ack = yield reply_ev
        elapsed = self._sim.now - started
        run.tracer.end_span(transfer_span, error=None if ack.ok else ack.error)
        if ack.ok:
            outcome.bytes_moved = len(content)
            outcome.effective_bandwidth = (
                len(content) / elapsed if elapsed > 0 else float("inf")
            )
            outcome.completed_at = self._sim.now
            self.transfers_bytes += len(content)
            self._count("njs.transfer_bytes", len(content))
            run.finish_action(task.id, ActionStatus.SUCCESSFUL)
        else:
            run.finish_action(task.id, ActionStatus.FAILED, reason=ack.error)

    # -------------------------------------------------------------- inbound
    def take_in(self, message: ForwardGroup):
        """Consign a group a peer forwarded (the consign starts its report
        home).  A group already served here is answered by its run, at
        once if it has finished, else by its own report; the copy's
        streams go."""
        parent = message.parent
        served = next((  # a finished run decodes its AJO for its root
            run for run in self._runs.serving(parent.job_id)
            if run.root.id == message.group_id
        ), None)
        if served is not None:
            self._drop(message.files)
            if isinstance(served, FinishedRun):
                yield from self.answer(served, parent, message.group_id)
            return
        try:
            # Large staging files streamed ahead of the group on the same
            # FIFO route: they are reassembled here already.
            staged = claim(self.datapath, message.files)
            validate_manifest_paths(staged, what="forwarded staging")
            self._consign(
                Arrival(
                    message.ajo_bytes, message.user_dn, staged,
                    message.trace_id, parent,
                ),
                parent_span_id=message.parent_span_id,
            )
        except Exception as err:  # noqa: BLE001 - reported back to the peer
            yield from self._peers.try_send(parent.usite, GroupResult(
                (parent.job_id, message.group_id), ok=False, error=str(err)
            ))

    def staging(self, run: JobRun, parent: Parent) -> Files:
        """What a just-admitted forwarded ``run``'s root Uspace starts
        with: its staging, then what transfers of the parent job left
        here before the group existed."""
        return {**run.workstation_files, **self._early_files.pop(parent.job_id, {})}

    def report_home(self, run: JobRun, parent: Parent, group_id: str):
        """Await ``run``, the group ``group_id`` of ``parent``'s job, and
        :meth:`answer` for it (a process body the consign starts)."""
        finished = yield run.done_event
        yield from self.answer(finished, parent, group_id)

    def answer(self, finished: FinishedRun, parent: Parent, group_id: str):
        """Send a finished group's outcome, as it was persisted, and the
        files its parent is owed, as the result named ``(parent job id,
        group_id)``."""
        produced: Files = {}
        for path in parent.owed:
            body = finished.file(path)
            if body is not None:
                produced[path] = body
        try:
            files = yield from self._ship(parent.usite, produced, "group-return")
            yield from self._peers.send(parent.usite, GroupResult(
                (parent.job_id, group_id), ok=True,
                outcome_bytes=finished.encoded_outcome(), files=files,
            ))
        except ConnectionLost:
            pass  # the parent NJS asks again when it replays the job

    def returned(self, result: GroupResult) -> None:
        """A forwarded group's result came home: hand it to the forward
        that awaits it.  Nobody does once that forward was given up, a
        restart forgot it or a copy answered it; then the result is
        dropped with the streams it names, lest they stay parked."""
        if self._peers.resolve(result):
            return
        self._drop(result.files)
        self._count("njs.dropped_peer_messages")

    def _drop(self, files: Manifest) -> None:
        """Release the parked streams a dropped message names."""
        for item in files.values():
            if isinstance(item, FileEntry):
                self.datapath.take(item.stream_id)

    # ------------------------------------------------------ data-plane intake
    def _on_stream_complete(self, context: dict, data: FileBody) -> bool:
        """Store a Uspace-to-Uspace transfer and ack it (its own process,
        because storing charges disk time and the ack travels back).
        Every other stream stays parked for the message that names it."""
        if context.get("kind") != "uspace-file":
            return False
        self._sim.process(
            self._complete_transfer(context, str(context.get("path", "")), data),
            name=f"transfer-in:{context.get('task', '')}",
        )
        return True

    def _complete_transfer(self, context: dict, path: str, data: FileBody):
        """Store one streamed transfer and acknowledge it."""
        reply_usite = str(context.get("reply", ""))
        parent_job_id = str(context.get("job", ""))
        key = (parent_job_id, str(context.get("task", "")))
        try:
            # Strict policy: this path is written into a Uspace, so
            # absolute paths are refused along with traversal segments.
            validate_manifest_paths(
                [path], uspace_destination=True, what="transfer destination"
            )
        except UnsafePathError as err:
            self._count("njs.rejected_paths")
            yield from self._peers.try_send(
                reply_usite, TransferAck(key, ok=False, error=str(err))
            )
            return
        # The latest group of the parent job here is where it lands.
        runs = self._runs.serving(parent_job_id)
        run = runs[-1] if runs else None
        uspaces = list(run.uspaces.values()) if isinstance(run, JobRun) else []
        if uspaces:
            uspaces[0].write(path, data)
        else:  # the group is not here yet: its staging takes the file
            self._early_files.setdefault(parent_job_id, {})[path] = data
        yield self._sim.timeout(len(data) / LOCAL_DISK_BANDWIDTH_BPS)
        # If this is lost the sender's retries are exhausted too; it
        # reports the failure.
        yield from self._peers.try_send(reply_usite, TransferAck(key, ok=True))
