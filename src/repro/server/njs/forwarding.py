"""Job groups and files crossing between NJSs (sections 4.3, 5.6).

Outbound, :meth:`Forwarding.forward` hands a job group destined for
another Usite to that site's NJS and splices what comes back into the
parent job, and :meth:`Forwarding.transfer` sends one Uspace file to a
peer ("NJS - NJS communication via the gateway").  Inbound, :meth:`Forwarding.take_in` consigns such a group
here and reports home when it is done, and the data-plane endpoint
receives the streams peers send: Uspace-to-Uspace transfers, staging
that precedes a group, result files that precede a group's report.

The part owns what only exists because jobs cross sites: which local run
serves which parent job, and the three stashes for things that arrive
before their owner does.
"""

from __future__ import annotations

import copy
import typing

from repro.ajo.errors import UnsafePathError
from repro.ajo.job import AbstractJobObject
from repro.ajo.outcome import AJOOutcome
from repro.ajo.serialize import decode_ajo, decode_outcome, encode_ajo, encode_outcome
from repro.ajo.status import ActionStatus
from repro.ajo.tasks import FileSpace, ImportTask, TransferTask
from repro.net.errors import ConnectionLost
from repro.observability import telemetry_for
from repro.protocol.consignment import validate_manifest_paths
from repro.protocol.datapath import INLINE_FILE_MAX, DataPlaneEndpoint
from repro.server.njs.jobrun import JobRun, index_outcomes
from repro.server.njs.peerlink import (
    ForwardGroup,
    GroupResult,
    PeerLink,
    TransferAck,
)
from repro.simkernel import Simulator
from repro.storage.journal import ForwardMeta
from repro.vfs.body import FileBody

__all__ = ["Forwarding", "LOCAL_DISK_BANDWIDTH_BPS"]

#: Local disk bandwidth for Xspace<->Uspace copies (section 5.6: "a copy
#: process available at the Vsite").
LOCAL_DISK_BANDWIDTH_BPS = 50e6

#: ``path -> body``.  A body stays inside the site that built it.
Files = dict[str, FileBody]


def _inline(files: Files) -> dict[str, bytes]:
    """The files small enough to ride inside a control message, as the
    bare bytes a message carries: the peer builds its own bodies."""
    return {
        p: c.data for p, c in files.items() if len(c) <= INLINE_FILE_MAX
    }


class Forwarding:
    """One NJS's dealings with job groups consigned across sites."""

    def __init__(
        self,
        sim: Simulator,
        usite_name: str,
        peers: PeerLink,
        consign: typing.Callable[..., JobRun],
    ) -> None:
        self._sim = sim
        self._usite_name = usite_name
        self._peers = peers
        #: The NJS's own front door: a forwarded group is consigned like
        #: any other job.
        self._consign = consign
        #: Forwarded groups indexed by the *parent's* job id, for transfers
        #: and cancellation arriving from the parent site.
        self._foreign_runs: dict[str, JobRun] = {}
        #: Files for a job group that arrived before its Uspace existed.
        self._early_files: dict[str, Files] = {}
        #: Streamed return files of forwarded groups, corr_id -> files.
        self._returned_files: dict[int, Files] = {}
        #: Streamed staging files that precede their ForwardGroup,
        #: keyed by the parent job id the group will carry.
        self._pending_forward_files: dict[str, Files] = {}
        #: Data-plane receiving endpoint: peer streams reassemble here
        #: and dispatch by context kind (:meth:`_on_stream_complete`).
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
    def foreign_run(self, parent_job_id: str) -> JobRun | None:
        """The local run serving a group of the parent site's job."""
        return self._foreign_runs.get(parent_job_id)

    def release(self, run: JobRun) -> None:
        """``run`` was disposed: it serves no parent job any more."""
        for parent_id, foreign in list(self._foreign_runs.items()):
            if foreign is run:
                del self._foreign_runs[parent_id]

    def stash(self, key: str, files: Files) -> None:
        """Keep files for a Uspace that does not exist yet.

        ``key`` is the job id of the run whose next group Uspace takes
        them, or — for a transfer that beat its group here — the parent
        job id every ForwardGroup of that job carries, under which
        :meth:`adopt` claims them for the group.
        """
        if files:
            self._early_files.setdefault(key, {}).update(files)

    def unstash(self, key: str) -> Files:
        return self._early_files.pop(key, {})

    def stashes(self) -> dict[str, dict]:
        """A copy of everything held for an owner that has not arrived:
        ``early`` files by job id (:meth:`stash`), ``staged`` files by
        parent job id, ``returned`` files by correlation id."""
        return copy.deepcopy({
            "early": self._early_files,
            "staged": self._pending_forward_files,
            "returned": self._returned_files,
        })

    def reset(self) -> None:
        """The process died: every stash and in-flight stream with it."""
        self._foreign_runs.clear()
        self._early_files.clear()
        self.datapath.clear()
        self._returned_files.clear()
        self._pending_forward_files.clear()

    # ------------------------------------------------------------- shipping
    def _ship(self, usite: str, message, files: Files, context: dict):
        """Send ``message`` and ``files`` to a peer.

        Control/data-plane split: small files ride inside the message
        (it was built with :func:`_inline` of ``files``); large ones
        stream ahead of it on the same FIFO route, labelled ``context``,
        so they are reassembled at the peer before the message arrives.
        """
        for path, body in sorted(files.items()):
            if len(body) > INLINE_FILE_MAX:
                yield from self._peers.stream(
                    usite, body, {**context, "path": path}
                )
        yield from self._peers.send(usite, message)

    # ------------------------------------------------------------- outbound
    def forward(self, run: JobRun, group, sub: AbstractJobObject, staged: Files):
        """Run ``sub`` at its own Usite and merge the result into ``run``."""
        self.forwarded_groups += 1
        self._count("njs.forwarded_groups")
        forward_span = run.span("njs.forward", usite=sub.usite, group=sub.name)
        # Ship the workstation files the subtree imports.
        needed_ws = {
            a.source_path
            for a in sub.walk()
            if isinstance(a, ImportTask)
            and a.source_space == FileSpace.WORKSTATION
        }
        ws_files = {
            p: c for p, c in run.workstation_files.items() if p in needed_ws
        }
        ws_files.update(staged)
        corr_id, reply_ev = self._peers.expect("group-result")
        message = ForwardGroup(
            corr_id=corr_id,
            reply_usite=self._usite_name,
            parent_job_id=run.job_id,
            user_dn=run.user_dn,
            ajo_bytes=encode_ajo(sub),
            staged_files=_inline(ws_files),
            # What parent-level edges expect this group to produce.
            return_files=run.group_expected[sub.id],
            trace_id=run.trace_id,
            parent_span_id=forward_span.span_id,
        )
        try:
            yield from self._ship(
                sub.usite, message, ws_files,
                {"kind": "forward-stage", "job": run.job_id},
            )
        except ConnectionLost as err:
            self._peers.abandon(corr_id)
            run.tracer.end_span(forward_span, error=err)
            run.finish_action(
                sub.id, ActionStatus.FAILED,
                reason=f"job group lost in transit after retries: {err}",
            )
            return
        result = yield reply_ev
        returned_files = self._returned_files.pop(corr_id, {})
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
        sub_outcome = typing.cast(AJOOutcome, decode_outcome(result.outcome_bytes))
        self._merge_outcome(run, group, sub, sub_outcome)
        if result.produced_files or returned_files:
            # Small return files ride inside the GroupResult; large ones
            # streamed ahead and were collected under this corr_id.
            returned_files.update(
                (p, FileBody(c)) for p, c in result.produced_files.items()
            )
            run.remote_files[sub.id] = returned_files
        status = sub_outcome.rollup_status()
        if not status.is_terminal:
            status = ActionStatus.FAILED
        run.finish_action(sub.id, status)

    @staticmethod
    def _merge_outcome(
        run: JobRun, parent_group, sub: AbstractJobObject, sub_outcome: AJOOutcome
    ) -> None:
        """Splice a remote group's outcome tree into the job's tree."""
        sub_outcome.action_id = sub.id
        parent_outcome = typing.cast(AJOOutcome, run.outcomes[parent_group.id])
        parent_outcome.children[sub.id] = sub_outcome
        # Only the outcome objects are replaced; run.events keeps the
        # terminal events the sequencing waits on.
        index_outcomes(sub_outcome, run.outcomes)

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
        corr_id, reply_ev = self._peers.expect("transfer-ack")
        # The file travels on the data plane: chunked frames whose
        # context tells the peer where the bytes belong.  The receiver
        # acks the whole transfer once it is reassembled and stored.
        context = {
            "kind": "uspace-file",
            "job": run.job_id,
            "path": task.destination_path,
            "reply": self._usite_name,
            "corr": corr_id,
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
            self._peers.abandon(corr_id)
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
        """Consign a group a peer forwarded, and report home when done."""
        # Large staging files streamed ahead of the group on the same
        # FIFO route; they are already reassembled under the parent id.
        staged_files: dict[str, FileBody | bytes] = dict(message.staged_files)
        staged_files.update(
            self._pending_forward_files.pop(message.parent_job_id, {})
        )
        forward_meta = (
            message.corr_id, message.reply_usite, tuple(message.return_files)
        )
        try:
            validate_manifest_paths(staged_files, what="forwarded staging")
            run = self._consign(
                decode_ajo(message.ajo_bytes),
                user_dn=message.user_dn,
                workstation_files=staged_files,
                parent_job_id=message.parent_job_id,
                trace_id=message.trace_id,
                parent_span_id=message.parent_span_id,
                forward_meta=forward_meta,
                ajo_bytes=message.ajo_bytes,
            )
        except Exception as err:  # noqa: BLE001 - reported back to the peer
            yield from self._peers.try_send(message.reply_usite, GroupResult(
                corr_id=message.corr_id, ok=False, error=str(err)
            ))
            return
        yield from self.adopt(run, message.parent_job_id, forward_meta)

    def adopt(
        self, run: JobRun, parent_job_id: str, forward_meta: ForwardMeta
    ):
        """Bind a just-consigned (or just-replayed) ``run`` to the parent
        job it serves; returns the process body that awaits it and sends
        its GroupResult home."""
        corr_id, reply_usite, return_files = forward_meta
        self._foreign_runs[parent_job_id] = run
        # When it is created, the group Uspace takes the staging the group
        # was consigned with, then what transfers of the parent job left
        # here before the group existed.
        self.stash(run.job_id, run.workstation_files)
        self.stash(run.job_id, self.unstash(parent_job_id))
        # The parent expects these files back: the group's sink tasks
        # must produce them.
        run.group_expected[run.root.id] = tuple(return_files)
        return self._report_home(run, corr_id, reply_usite, return_files)

    def _report_home(
        self, run: JobRun, corr_id: int, reply_usite: str,
        return_files: typing.Iterable[str],
    ):
        yield run.done_event
        produced: Files = {}
        for path in return_files:
            for uspace in run.uspaces.values():
                if uspace.exists(path):
                    produced[path] = uspace.body(path)
                    break
        reply = GroupResult(
            corr_id=corr_id,
            ok=True,
            outcome_bytes=encode_outcome(run.root_outcome),
            produced_files=_inline(produced),
        )
        try:
            yield from self._ship(
                reply_usite, reply, produced,
                {"kind": "group-return", "corr": corr_id},
            )
        except ConnectionLost:
            pass  # the parent NJS will surface the missing result

    # ------------------------------------------------------ data-plane intake
    def _on_stream_complete(self, context: dict, data: FileBody) -> bool:
        """Route a reassembled peer stream by its context kind."""
        kind = context.get("kind")
        path = str(context.get("path", ""))
        if kind == "uspace-file":
            # A Uspace-to-Uspace transfer: store + ack (its own process,
            # because storing charges disk time and the ack travels back).
            self._sim.process(
                self._complete_transfer(context, path, data),
                name=f"transfer-in:{context.get('corr', 0)}",
            )
        elif kind == "forward-stage":
            # Staging for a ForwardGroup still in flight behind us.
            try:
                validate_manifest_paths([path], what="forwarded staging")
            except UnsafePathError:
                self._count("njs.rejected_paths")
                return True
            self._pending_forward_files.setdefault(
                str(context.get("job", "")), {}
            )[path] = data
        elif kind == "group-return":
            corr_id = int(context.get("corr", 0))
            if self._peers.expecting(corr_id):
                self._returned_files.setdefault(corr_id, {})[path] = data
            else:
                # Its forward was given up, or a restart re-forwarded the
                # group under a new id: nobody will ever collect this.
                self._count("njs.dropped_peer_messages")
        else:
            return False
        return True

    def _complete_transfer(self, context: dict, path: str, data: FileBody):
        """Store one streamed transfer and acknowledge it."""
        corr_id = int(context.get("corr", 0))
        reply_usite = str(context.get("reply", ""))
        parent_job_id = str(context.get("job", ""))
        try:
            # Strict policy: this path is written into a Uspace, so
            # absolute paths are refused along with traversal segments.
            validate_manifest_paths(
                [path], uspace_destination=True, what="transfer destination"
            )
        except UnsafePathError as err:
            self._count("njs.rejected_paths")
            yield from self._peers.try_send(
                reply_usite, TransferAck(corr_id=corr_id, ok=False, error=str(err))
            )
            return
        run = self.foreign_run(parent_job_id)
        uspaces = [] if run is None else list(run.uspaces.values())
        if uspaces:
            uspaces[0].write(path, data)
        else:
            # Group not consigned here (yet): stash for its arrival.
            self.stash(parent_job_id, {path: data})
        yield self._sim.timeout(len(data) / LOCAL_DISK_BANDWIDTH_BPS)
        # If this is lost the sender's retries are exhausted too; it
        # reports the failure.
        yield from self._peers.try_send(
            reply_usite, TransferAck(corr_id=corr_id, ok=True)
        )
