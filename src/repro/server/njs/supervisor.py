"""The Network Job Supervisor (NJS).

Paper section 4.2: "the network job supervisor (NJS) which does the job
management.  The NJS translates the AJO into one or more batch jobs for
the destination system(s), submits the batch jobs, and controls them.
In addition, it transparently transfers data to and from the destination
system for the job and makes sure that the dependent parts of the
UNICORE job are scheduled in the predefined sequence."

Responsibilities implemented here (section 5.5's task list):

* split a consigned AJO into job groups, forwarding those destined for
  other Usites to the peer NJS via the gateways (https route);
* create a UNICORE job directory (Uspace) per job group with tasks;
* sequence dependent parts — delivery only, never influencing the local
  scheduling of destination systems (site autonomy);
* incarnate abstract tasks via the Vsites' translation tables and submit
  them to the vendor batch systems;
* guarantee dependency-annotated files are available to successors;
* perform imports/exports as local copies and Uspace-to-Uspace transfers
  as NJS-to-NJS https traffic;
* collect standard output/error and aggregate Outcomes.
"""

from __future__ import annotations

import functools
import typing
from dataclasses import dataclass, field
from itertools import count

from repro.ajo.errors import UnsafePathError

from repro.ajo.job import AbstractJobObject
from repro.ajo.outcome import AJOOutcome, TaskOutcome
from repro.ajo.serialize import decode_ajo, decode_outcome, encode_ajo, encode_outcome
from repro.ajo.status import ActionStatus
from repro.ajo.tasks import (
    ExecuteTask,
    ExportTask,
    FileSpace,
    ImportTask,
    TransferTask,
)
from repro.analysis import AnalysisContext, analyze_ajo
from repro.batch.base import BatchState, FileEffect
from repro.batch.errors import BatchError, SystemOfflineError, UnknownJobError
from repro.broker.advertise import (
    BROKER_PEER,
    AdvertiseCapacity,
    CapacityAdvertisement,
    ReclaimAck,
    ReclaimJob,
)
from repro.broker.errors import BrokerQuotaError
from repro.faults.errors import ServiceUnavailable
from repro.net.errors import ConnectionLost
from repro.net.sim_transport import Host, Network
from repro.net.stream import StreamSender
from repro.observability import telemetry_for
from repro.protocol.consignment import validate_manifest_paths
from repro.protocol.datapath import (
    DEFAULT_CHUNK_BYTES,
    INLINE_FILE_MAX,
    DataPlaneEndpoint,
    StreamIdAllocator,
    send_stream,
)
from repro.protocol.views import JobListing, JobListingDelta, JobStatusView
from repro.resources.check import check_request
from repro.security.errors import MappingError
from repro.security.ssl import HANDSHAKE_ROUND_TRIPS, SSLSession
from repro.security.uudb import UUDB
from repro.server.errors import ConsignError, UnknownUnicoreJobError
from repro.server.njs.codine_layer import CodineJobControl
from repro.server.njs.incarnation import IncarnationCache, incarnate_task
from repro.server.njs.jobrun import JobRun
from repro.server.njs.restored import RestoredRun
from repro.storage.backend import StorageBackend, resolve_storage
from repro.storage.journal import JobJournal, JournalEntry
from repro.storage.outcomes import OutcomeRecord, OutcomeStore
from repro.server.njs.runindex import JobChangeLog, RunIndex
from repro.server.vsite import Vsite
from repro.simkernel import Event, Simulator
from repro.vfs.errors import VFSError
from repro.vfs.spaces import Xspace

__all__ = [
    "NetworkJobSupervisor",
    "ForwardGroup",
    "GroupResult",
    "PeerFrame",
    "TransferAck",
    "CancelGroup",
]

#: Local disk bandwidth for Xspace<->Uspace copies (section 5.6: "a copy
#: process available at the Vsite").
LOCAL_DISK_BANDWIDTH_BPS = 50e6

#: CPU cost of incarnating one task (table lookups + templating).
INCARNATION_CPU_S = 0.005

#: Default size of a dependency-annotated result file when the producing
#: task does not specify otherwise.
RESULT_FILE_BYTES = 1 << 20

#: Handshake flight size on NJS-NJS routes.
_HS_BYTES = 1500


# --------------------------------------------------------- NJS-NJS messages
@dataclass(slots=True)
class ForwardGroup:
    """A job group consigned to a peer NJS (section 4.3: servers exchange
    '(parts of) UNICORE jobs')."""

    corr_id: int
    reply_usite: str
    parent_job_id: str
    user_dn: str
    ajo_bytes: bytes
    #: Workstation + staged dependency files the group needs, path->bytes.
    staged_files: dict[str, bytes] = field(default_factory=dict)
    #: Files the parent needs back when the group completes.
    return_files: tuple[str, ...] = ()
    #: Trace context so the peer NJS extends the same per-job trace.
    trace_id: str = ""
    parent_span_id: str = ""

    @property
    def wire_payload(self) -> int:
        return (
            len(self.ajo_bytes)
            + sum(len(v) for v in self.staged_files.values())
            + 512
        )


@dataclass(slots=True)
class GroupResult:
    """Completion report for a forwarded group."""

    corr_id: int
    ok: bool
    outcome_bytes: bytes = b""
    produced_files: dict[str, bytes] = field(default_factory=dict)
    error: str = ""

    @property
    def wire_payload(self) -> int:
        return (
            len(self.outcome_bytes)
            + sum(len(v) for v in self.produced_files.values())
            + 512
        )


@dataclass(slots=True)
class PeerFrame:
    """One data-plane frame tunnelled on an NJS-NJS https route.

    Bulk bytes (Uspace transfers, forwarded staging, group returns) no
    longer ride whole inside control messages: they travel as chunked
    :mod:`repro.net.stream` frames so control traffic interleaves and a
    lost chunk resumes alone.
    """

    raw: bytes

    @property
    def wire_payload(self) -> int:
        return len(self.raw)


@dataclass(slots=True)
class TransferAck:
    corr_id: int
    ok: bool
    error: str = ""

    @property
    def wire_payload(self) -> int:
        return 128 + len(self.error)


@dataclass(slots=True)
class CancelGroup:
    """Cancellation propagated to a peer holding a forwarded group."""

    corr_id: int
    parent_job_id: str

    @property
    def wire_payload(self) -> int:
        return 128


class NetworkJobSupervisor:
    """One NJS, serving all Vsites of its Usite."""

    def __init__(
        self,
        sim: Simulator,
        usite_name: str,
        host: Host,
        network: Network,
        uudb: UUDB,
        xspace: Xspace,
        vsites: dict[str, Vsite],
        local_disk_bandwidth_Bps: float = LOCAL_DISK_BANDWIDTH_BPS,
        incarnation_cpu_s: float = INCARNATION_CPU_S,
        per_record_cpu_s: float = 0.002,
        own_inbox: bool = True,
        accounting=None,
        max_active_per_user: int | None = None,
        storage: StorageBackend | None = None,
    ) -> None:
        self.sim = sim
        self.usite_name = usite_name
        self.host = host
        self.network = network
        self.uudb = uudb
        self.xspace = xspace
        self.vsites = dict(vsites)
        self.local_disk_bandwidth_Bps = local_disk_bandwidth_Bps
        self.incarnation_cpu_s = incarnation_cpu_s
        self.per_record_cpu_s = per_record_cpu_s
        #: Optional :class:`repro.ext.accounting.AccountingLog`; every
        #: completed UNICORE batch record is charged to it (section 6's
        #: "accounting functions").
        self.accounting = accounting
        #: The Codine-based internal job control of section 5.1/5.5:
        #: every incarnated job passes through the Codine internal format.
        self.codine = CodineJobControl()

        self._runs: dict[str, JobRun] = {}
        #: State/user-keyed lookup tables over ``_runs`` (quota checks,
        #: listings, advertisements) — maintained by :meth:`_note_change`.
        self._index = RunIndex()
        #: Versioned change-log backing delta LIST answers.
        self._changes = JobChangeLog()
        #: Completion watchers for subscription-style waits: job id ->
        #: events the gateway parks on.  Fired on terminal transition and
        #: (with the job still unfinished) on :meth:`crash`, so nobody
        #: sleeps through a lost run.
        self._watchers: dict[str, list[Event]] = {}
        #: Incarnation translation cache keyed by (task shape, dialect).
        self.incarnation_cache = IncarnationCache()
        #: forwarded groups indexed by the *parent's* job id, for transfers
        #: and cancellation arriving from the parent site.
        self._foreign_runs: dict[str, JobRun] = {}
        #: files for a foreign job that arrived before its group did.
        self._early_files: dict[str, dict[str, bytes]] = {}
        #: dependency files produced by forwarded groups, pred id -> files.
        self._corr_seq = count(1)
        self._pending: dict[int, object] = {}  # corr_id -> Event
        #: Data-plane receiving endpoint: peer streams reassemble here
        #: and dispatch by context kind (:meth:`_on_stream_complete`).
        self.datapath = DataPlaneEndpoint(
            sim, metrics=telemetry_for(sim).metrics,
            on_complete=self._on_stream_complete,
        )
        self._stream_ids = StreamIdAllocator(f"njs:{usite_name}")
        #: Streamed return files of forwarded groups, corr_id -> files.
        self._returned_files: dict[int, dict[str, bytes]] = {}
        #: Streamed staging files that precede their ForwardGroup,
        #: keyed by the parent job id the group will carry.
        self._pending_forward_files: dict[str, dict[str, bytes]] = {}
        #: peer Usite -> (route hops, handshake_done flag).
        self._peer_routes: dict[str, list[tuple[str, str]]] = {}
        self._peer_sessions: set[str] = set()
        #: Site-local concurrency cap: a consignment from a user who
        #: already has this many live jobs here is refused with the
        #: wire-carried ``broker.quota_exceeded`` code (fair use,
        #: enforced at the site edge — defense in depth under brokering).
        self.max_active_per_user = max_active_per_user
        #: Route to the federation broker hub, when one is attached.
        self._broker_route: list[tuple[str, str]] | None = None
        self._advertising = False
        #: Durable site-local persistence: the write-ahead journal, the
        #: finished-job outcome store, and the job-id cursor all live in
        #: one pluggable backend (``REPRO_STORAGE`` selects the default).
        self.storage = storage if storage is not None else resolve_storage(None)
        self.storage.bind_metrics(telemetry_for(sim).metrics)
        self._meta = self.storage.table(f"{usite_name}.meta")
        #: Write-ahead journal over backend storage: survives
        #: :meth:`crash`, drives :meth:`restart`'s replay.
        self.journal = JobJournal(
            self.storage,
            name=f"{usite_name}.journal",
            metrics=telemetry_for(sim).metrics,
        )
        #: Finished jobs as persisted records (status, outcome bytes,
        #: Uspace manifest) — what a cold start serves terminal queries
        #: from.  A job is finished exactly when its row exists here.
        self.outcomes = OutcomeStore(self.storage, f"{usite_name}.outcomes")
        #: True between :meth:`crash` and :meth:`restart`: in-memory
        #: state is gone, every service raises ServiceUnavailable.
        self.crashed = False
        #: Instrumentation.
        self.incarnations = 0
        self.forwarded_groups = 0
        self.transfers_bytes = 0
        self.crashes = 0
        self.replays = 0

        # When the NJS shares the gateway's host (no firewall split), the
        # gateway owns the inbox and forwards peer traffic to
        # :meth:`dispatch_peer_message` instead.
        if own_inbox:
            sim.process(self._server_loop(), name=f"njs:{usite_name}")

    # ------------------------------------------------------------ wiring
    def register_peer(self, usite: str, route: list[tuple[str, str]]) -> None:
        """Register the https route (host hops) to a peer Usite's NJS."""
        self._peer_routes[usite] = list(route)

    def register_broker_route(self, route: list[tuple[str, str]]) -> None:
        """Register the https route to the federation broker hub.

        Kept out of :attr:`_peer_routes` so the pseudo-peer never passes
        AJO destination validation as a consignable Usite.
        """
        self._broker_route = list(route)

    # ------------------------------------------------------------ consign
    def _next_job_id(self) -> str:
        """Allocate the next job id from the durable cursor.

        Persisting the cursor keeps job ids stable across a cold restart
        (a restored site must not re-issue ``U00001`` over a recovered
        job of the same name).
        """
        seq = int(typing.cast(int, self._meta.get("job_seq", 0))) + 1
        self._meta.put("job_seq", seq)
        return f"U{seq:05d}@{self.usite_name}"

    @staticmethod
    def _job_seq(job_id: str) -> int:
        """The cursor value :meth:`_next_job_id` issued ``job_id`` at:
        the sort key for consignment order (``U100000`` sorts before
        ``U99999`` as text)."""
        return int(job_id[1:job_id.index("@")])

    def consign(
        self,
        ajo: AbstractJobObject,
        user_dn: str | None = None,
        workstation_files: dict[str, bytes] | None = None,
        parent_job_id: str | None = None,
        trace_id: str = "",
        parent_span_id: str = "",
        forward_meta: tuple | None = None,
        job_id: str | None = None,
        ajo_bytes: bytes | None = None,
    ) -> JobRun:
        """Accept a job (or a forwarded job group); starts supervision.

        Raises :class:`ConsignError` on validation, mapping, or resource
        failures — the gateway reports these to the client synchronously.

        ``ajo_bytes`` is the encoded form ``ajo`` was decoded from; a
        caller that received the job over the wire passes it, and the
        journal keeps those bytes instead of encoding the tree again.

        ``job_id`` is only passed by journal replay: the recovered run
        keeps its original identifier so clients polling through the
        outage keep seeing their job.  ``forward_meta`` rides into the
        journal so a replayed *forwarded* group can still report home.
        """
        if self.crashed:
            raise ServiceUnavailable(
                f"NJS at {self.usite_name} is down; consign refused"
            )
        is_replay = job_id is not None
        tracer = telemetry_for(self.sim).tracer
        consign_span = None
        if trace_id:
            consign_span = tracer.start_span(
                "njs.consign",
                trace_id,
                parent=parent_span_id or None,
                tier="server",
                usite=self.usite_name,
                job=ajo.name,
            )
        try:
            dn = user_dn or ajo.user_dn
            if not dn:
                raise ConsignError("consignment carries no user identity")
            if (
                self.max_active_per_user is not None
                and not is_replay
                and parent_job_id is None
            ):
                active = self._index.active_count(dn)
                telemetry_for(self.sim).metrics.counter("njs.index.hits").inc()
                if active >= self.max_active_per_user:
                    telemetry_for(self.sim).metrics.counter(
                        "broker.rejections"
                    ).inc()
                    raise BrokerQuotaError(
                        f"{self.usite_name}: user {dn!r} already has "
                        f"{active} live jobs (cap {self.max_active_per_user})"
                    )
            self._analyze_arrival(
                ajo,
                is_forward=parent_job_id is not None,
                workstation_files=workstation_files,
                trace_id=trace_id,
                parent_span=consign_span,
            )
            self._check_destinations(ajo, dn)
        except (ConsignError, BrokerQuotaError) as err:
            if consign_span is not None:
                tracer.end_span(consign_span, error=err)
            raise

        # One durable unit: the job-id cursor advance and the journal's
        # consign record land together or not at all.
        with self.storage.batch():
            if job_id is None:
                job_id = self._next_job_id()
            run = JobRun.create(
                self.sim, job_id, ajo, dn, workstation_files=workstation_files
            )
            run.trace_id = trace_id
            self._runs[job_id] = run
            run.on_change = self._note_change
            status = run.status()
            self._index.add(job_id, dn, status.value, status.is_terminal)
            self._changes.record(self._listing_for(run, status.value), dn)
            if parent_job_id is not None:
                self._foreign_runs[parent_job_id] = run
            if not is_replay:
                self.journal.record_consign(
                    job_id,
                    encode_ajo(ajo) if ajo_bytes is None else ajo_bytes,
                    dn,
                    workstation_files=workstation_files,
                    trace_id=trace_id,
                    parent_job_id=parent_job_id,
                    forward_meta=forward_meta,
                )
        if consign_span is not None:
            # The job span outlives the consign acknowledgement: it closes
            # in _run_job once supervision finishes.
            run.job_span = tracer.start_span(
                "njs.job", trace_id, parent=consign_span, tier="server",
                job_id=job_id,
            )
            tracer.end_span(consign_span.set(job_id=job_id))
        run.processes.append(
            self.sim.process(self._run_job(run), name=f"job:{job_id}")
        )
        return run

    def _analyze_arrival(
        self,
        ajo: AbstractJobObject,
        *,
        is_forward: bool,
        workstation_files: dict[str, bytes] | None,
        trace_id: str,
        parent_span,
    ) -> None:
        """Re-run the static analyzer on an arriving AJO (never trust the
        client): errors reject the consignment with the primary diagnostic
        code carried over the wire; warnings only count in the metrics.

        Forwarded groups (``is_forward``) arrive with their staged
        dependency files, which the analyzer treats as prestaged Uspace
        content, and without a user DN of their own.
        """
        telemetry = telemetry_for(self.sim)
        context = AnalysisContext.for_njs(
            self,
            prestaged=workstation_files if is_forward else None,
        )
        analyze_span = None
        if trace_id:
            analyze_span = telemetry.tracer.start_span(
                "njs.analyze", trace_id, parent=parent_span,
                tier="server", usite=self.usite_name, job=ajo.name,
            )
        report = analyze_ajo(ajo, context, require_user=not is_forward)
        telemetry.metrics.counter("analysis.errors").inc(len(report.errors))
        telemetry.metrics.counter("analysis.warnings").inc(len(report.warnings))
        if analyze_span is not None:
            analyze_span.set(
                errors=len(report.errors), warnings=len(report.warnings)
            )
        if not report.ok:
            telemetry.metrics.counter("analysis.jobs_rejected").inc()
            err = ConsignError(f"invalid AJO: {report.summary()}")
            # Instance attribute: the gateway reports this stable
            # diagnostic code in Reply.error_code.
            err.code = report.errors[0].code
            if analyze_span is not None:
                telemetry.tracer.end_span(analyze_span, error=err)
            raise err
        if analyze_span is not None:
            telemetry.tracer.end_span(analyze_span)

    def _check_destinations(self, group: AbstractJobObject, dn: str) -> None:
        """Validate vsites, user mapping, and resources for local groups."""
        if group.usite in ("", self.usite_name):
            if group.tasks():
                vsite = self.vsites.get(group.vsite)
                if vsite is None:
                    raise ConsignError(
                        f"{self.usite_name}: unknown Vsite {group.vsite!r} "
                        f"(available: {sorted(self.vsites)})"
                    )
                try:
                    self.uudb.map_dn(dn, vsite=vsite.name)
                except MappingError as err:
                    raise ConsignError(str(err)) from err
                for task in group.tasks():
                    result = check_request(
                        vsite.resource_page,
                        task.resources,
                        task.required_software(),
                    )
                    if not result.ok:
                        raise ConsignError(
                            f"task {task.name!r}: {result.summary()}"
                        )
            for sub in group.sub_jobs():
                self._check_destinations(sub, dn)
        else:
            if group.usite not in self._peer_routes:
                raise ConsignError(
                    f"{self.usite_name}: no route to Usite {group.usite!r}"
                )

    # ------------------------------------------------------- job processes
    def _run_job(self, run: JobRun):
        if self._runs.get(run.job_id) is not run:
            return  # orphaned by a crash that raced the spawn
        yield from self._run_group(run, run.root)
        if run.job_span is not None:
            status = run.status()
            telemetry_for(self.sim).tracer.end_span(
                run.job_span.set(status=status.value),
                error=None if status is ActionStatus.SUCCESSFUL else status.value,
            )
        # The outcome row is what marks the job finished, and it lands
        # in one durable unit with the journal retiring the job: after
        # this batch, even a cold-started successor can serve the job's
        # listing, outcome tree, and Uspace files.
        with self.storage.batch():
            self.journal.finish(run.job_id)
            self._persist_outcome(run)
        assert run.done_event is not None
        if not run.done_event.triggered:
            run.done_event.succeed(run.status())

    def _persist_outcome(self, run: JobRun) -> None:
        """Write the finished job's durable record (outcome + files)."""
        files: dict[str, bytes] = {}
        for uspace in run.uspaces.values():
            for path in uspace.files():
                files.setdefault(path, uspace.read(path))
        status = run.status()
        self.outcomes.put(OutcomeRecord(
            job_id=run.job_id,
            name=run.name,
            user_dn=run.user_dn,
            status=status.value,
            submitted_at=run.submitted_at,
            recovered=run.recovered,
            trace_id=run.trace_id,
            outcome_bytes=run.encoded_outcome(),
        ), files)

    def _run_group(self, run: JobRun, group: AbstractJobObject):
        if group.tasks() or group.id == run.root.id:
            vsite = self.vsites.get(group.vsite) if group.vsite else None
            if vsite is None and group.tasks():
                # Validated at consign; only reachable for forwarded jobs
                # racing a site reconfiguration.
                run.finish_action(
                    group.id, ActionStatus.FAILED,
                    reason=f"no Vsite {group.vsite!r}",
                )
                return
            if vsite is not None:
                uspace = vsite.uspaces.create(f"{run.job_id}.{group.id}")
                run.uspaces[group.id] = uspace
                # Early-arrived transfer files and forwarded staging.
                for path, content in self._early_files.pop(run.job_id, {}).items():
                    uspace.write(path, content)

        for child in group.children:
            run.processes.append(
                self.sim.process(
                    self._run_child(run, group, child),
                    name=f"child:{child.id}",
                )
            )
        for child in group.children:
            yield run.events[child.id]
        run.finish_action(group.id, self._group_status(run, group))

    def _group_status(self, run: JobRun, group: AbstractJobObject) -> ActionStatus:
        statuses = {run.outcomes[c.id].status for c in group.children}
        if not statuses:
            return ActionStatus.SUCCESSFUL
        if ActionStatus.FAILED in statuses:
            return ActionStatus.FAILED
        if ActionStatus.KILLED in statuses:
            return ActionStatus.KILLED
        if statuses == {ActionStatus.NOT_ATTEMPTED}:
            return ActionStatus.NOT_ATTEMPTED
        return ActionStatus.SUCCESSFUL

    def _run_child(self, run: JobRun, group: AbstractJobObject, child):
        if self._runs.get(run.job_id) is not run:
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
        if run.cancelled:
            run.finish_action(child.id, ActionStatus.KILLED, reason="job cancelled")
            return
        # A held job delivers nothing further until resumed (or cancelled).
        while run.held:
            if run.hold_released is None or run.hold_released.triggered:
                run.hold_released = self.sim.event(name=f"resume:{run.job_id}")
            yield run.hold_released
            if run.cancelled:
                run.finish_action(
                    child.id, ActionStatus.KILLED, reason="job cancelled"
                )
                return

        # 2. Guarantee dependency-annotated files (section 5.7).
        staged: dict[str, bytes] = {}
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
            stage_span = None
            if run.trace_id:
                stage_span = telemetry_for(self.sim).tracer.start_span(
                    "njs.stage", run.trace_id, parent=run.job_span,
                    tier="server", files=len(staged), bytes=total,
                )
            yield self.sim.timeout(total / self.local_disk_bandwidth_Bps)
            if stage_span is not None:
                telemetry_for(self.sim).tracer.end_span(stage_span)

        # 3. Dispatch by action type.
        if isinstance(child, AbstractJobObject):
            # Files that parent-level edges expect this group to produce.
            run.group_expected[child.id] = tuple(
                f
                for dep in group.dependencies
                if dep.predecessor_id == child.id
                for f in dep.files
            )
            if child.usite and child.usite != self.usite_name:
                yield from self._forward_group(run, group, child, staged)
            else:
                self._pre_stage(run, child, staged)
                yield from self._run_group(run, child)
        elif isinstance(child, ExecuteTask):
            yield from self._run_execute(run, group, child, staged)
        elif isinstance(child, ImportTask):
            yield from self._run_import(run, group, child)
        elif isinstance(child, ExportTask):
            yield from self._run_export(run, group, child)
        elif isinstance(child, TransferTask):
            yield from self._run_transfer(run, group, child)
        else:  # pragma: no cover - validated at add()
            run.finish_action(
                child.id, ActionStatus.FAILED,
                reason=f"unsupported action {type(child).__name__}",
            )

    def _pre_stage(
        self, run: JobRun, child_group: AbstractJobObject, staged: dict[str, bytes]
    ) -> None:
        """Queue files to be written into a subgroup's uspace at creation.

        The subgroup's uspace does not exist yet; route through the
        early-files stash (keyed by the run id) that ``_run_group``
        consumes when it creates the uspace.
        """
        if staged:
            self._early_files.setdefault(run.job_id, {}).update(staged)

    def _locate_dependency_file(
        self, run: JobRun, group: AbstractJobObject, pred_id: str, path: str
    ) -> bytes | None:
        """Find a predecessor-produced file (section 5.7's guarantee)."""
        # Files produced by forwarded groups came back in the GroupResult.
        if pred_id in run.remote_files and path in run.remote_files[pred_id]:
            return run.remote_files[pred_id][path]
        # A local subgroup's uspace.
        if pred_id in run.uspaces and run.uspaces[pred_id].exists(path):
            return run.uspaces[pred_id].read(path)
        # A sibling task: same group uspace.
        uspace = run.uspaces.get(group.id)
        if uspace is not None and uspace.exists(path):
            return uspace.read(path)
        return None

    # ------------------------------------------------------------- executors
    #: Bounded resubmission of tasks whose *node* failed (as opposed to
    #: the task itself): delays grow linearly so a whole-Vsite outage of
    #: up to ~3 simulated minutes is ridden out.
    TASK_RETRIES = 4
    TASK_RETRY_DELAY_S = 45.0

    def _run_execute(self, run, group, task, staged: dict[str, bytes]):
        vsite = self.vsites[group.vsite]
        uspace = run.uspaces[group.id]
        outcome = typing.cast(TaskOutcome, run.outcomes[task.id])
        for path, content in staged.items():
            uspace.write(path, content)
        try:
            mapping = self.uudb.map_dn(run.user_dn, vsite=vsite.name)
        except MappingError as err:
            run.finish_action(task.id, ActionStatus.FAILED, reason=str(err))
            return

        # Incarnation (the JTS role).
        telemetry = telemetry_for(self.sim)
        incarnate_span = None
        if run.trace_id:
            incarnate_span = telemetry.tracer.start_span(
                "njs.incarnate", run.trace_id, parent=run.job_span,
                tier="server", task=task.name,
            )
        yield self.sim.timeout(self.incarnation_cpu_s)
        self.incarnations += 1
        telemetry.metrics.counter("njs.incarnations").inc()
        out_files = tuple(
            FileEffect(path=f, size_bytes=RESULT_FILE_BYTES)
            for dep in group.dependencies
            if dep.predecessor_id == task.id
            for f in dep.files
        )
        # Files a later export names with this task as implicit producer.
        export_sources = tuple(
            FileEffect(path=t.source_path, size_bytes=RESULT_FILE_BYTES)
            for t in group.tasks()
            if isinstance(t, (ExportTask, TransferTask))
            and any(
                d.predecessor_id == task.id and d.successor_id == t.id
                for d in group.dependencies
            )
        )
        # Sink tasks materialize what the *group* owes its own successors
        # (parent-level dependency edges, or a forwarding parent's
        # return_files request).
        group_owes: tuple[FileEffect, ...] = ()
        has_successor = any(
            d.predecessor_id == task.id for d in group.dependencies
        )
        if not has_successor:
            group_owes = tuple(
                FileEffect(path=f, size_bytes=RESULT_FILE_BYTES)
                for f in run.group_expected.get(group.id, ())
            )
        spec = incarnate_task(
            task, vsite, mapping, uspace,
            extra_outputs=out_files + export_sources + group_owes,
            metrics=telemetry.metrics,
            cache=self.incarnation_cache,
        )
        spec.trace_id = run.trace_id
        spec.parent_span_id = run.job_span.span_id if run.job_span else ""
        if incarnate_span is not None:
            telemetry.tracer.end_span(
                incarnate_span.set(queue=spec.queue, script_bytes=len(spec.script))
            )
        # "Transform the abstract job into a Codine internal format"
        # (section 5.5) before delivery to the destination system.
        self.codine.register(run.job_id, task.id, vsite.name, spec, self.sim.now)
        record = None
        for attempt in range(1, self.TASK_RETRIES + 2):
            try:
                local_id = vsite.batch.submit(spec)
            except SystemOfflineError as err:
                # Transient: the Vsite is down right now; wait it out.
                if attempt <= self.TASK_RETRIES and not run.cancelled:
                    telemetry.metrics.counter("njs.task_retry_waits").inc()
                    yield self.sim.timeout(self.TASK_RETRY_DELAY_S * attempt)
                    continue
                self.codine.transition(task.id, BatchState.FAILED, self.sim.now)
                run.finish_action(task.id, ActionStatus.FAILED, reason=str(err))
                return
            except BatchError as err:
                self.codine.transition(task.id, BatchState.FAILED, self.sim.now)
                run.finish_action(task.id, ActionStatus.FAILED, reason=str(err))
                return
            self.codine.bind_vendor_job(task.id, local_id)
            run.batch_jobs[task.id] = (vsite.name, local_id)
            self.journal.record_delivery(
                run.job_id, task.id, vsite.name, local_id
            )
            outcome.submitted_at = self.sim.now
            if not outcome.status.is_terminal:
                outcome.mark(ActionStatus.QUEUED)
                run.notify_change()

            record = yield vsite.batch.query(local_id).completion_event
            if (
                record.state is BatchState.FAILED
                and record.reason.startswith("node failure")
                and attempt <= self.TASK_RETRIES
                and not run.cancelled
            ):
                # The *node* died, not the job: resubmit (bounded),
                # leaving a recovery mark in the per-job trace.
                telemetry.metrics.counter("njs.task_resubmissions").inc()
                if run.trace_id:
                    telemetry.tracer.end_span(
                        telemetry.tracer.start_span(
                            "njs.resubmit", run.trace_id,
                            parent=run.job_span, tier="server",
                            task=task.name, attempt=attempt,
                            reason=record.reason,
                        )
                    )
                yield self.sim.timeout(self.TASK_RETRY_DELAY_S * attempt)
                continue
            break
        assert record is not None
        self.codine.transition(task.id, record.state, self.sim.now)
        outcome.completed_at = self.sim.now
        outcome.exit_code = record.exit_code
        if self.accounting is not None:
            self.accounting.charge(vsite.name, record)
        if record.state is BatchState.DONE:
            outcome.stdout = record.spec.stdout_text
            run.finish_action(task.id, ActionStatus.SUCCESSFUL)
        elif record.state is BatchState.CANCELLED:
            run.finish_action(task.id, ActionStatus.KILLED, reason=record.reason)
        else:
            outcome.stdout = record.spec.stdout_text
            outcome.stderr = record.spec.stderr_text
            run.finish_action(task.id, ActionStatus.FAILED, reason=record.reason)

    def _run_import(self, run, group, task: ImportTask):
        uspace = run.uspaces[group.id]
        outcome = run.outcomes[task.id]
        outcome.submitted_at = self.sim.now
        if task.source_space == FileSpace.WORKSTATION:
            content = run.workstation_files.get(task.source_path)
            if content is None:
                run.finish_action(
                    task.id, ActionStatus.FAILED,
                    reason=f"workstation file {task.source_path!r} was not "
                           "included in the consignment",
                )
                return
        else:
            try:
                content = self.xspace.fs.read(task.source_path)
            except VFSError as err:
                run.finish_action(task.id, ActionStatus.FAILED, reason=str(err))
                return
        telemetry = telemetry_for(self.sim)
        import_span = None
        if run.trace_id:
            import_span = telemetry.tracer.start_span(
                "njs.import", run.trace_id, parent=run.job_span,
                tier="server", path=task.destination_path, bytes=len(content),
            )
        yield self.sim.timeout(len(content) / self.local_disk_bandwidth_Bps)
        try:
            uspace.write(task.destination_path, content)
        except VFSError as err:
            if import_span is not None:
                telemetry.tracer.end_span(import_span, error=err)
            run.finish_action(task.id, ActionStatus.FAILED, reason=str(err))
            return
        if import_span is not None:
            telemetry.tracer.end_span(import_span)
        outcome.bytes_moved = len(content)
        outcome.completed_at = self.sim.now
        run.finish_action(task.id, ActionStatus.SUCCESSFUL)

    def _run_export(self, run, group, task: ExportTask):
        uspace = run.uspaces[group.id]
        outcome = run.outcomes[task.id]
        outcome.submitted_at = self.sim.now
        if not uspace.exists(task.source_path):
            run.finish_action(
                task.id, ActionStatus.FAILED,
                reason=f"uspace file {task.source_path!r} does not exist",
            )
            return
        content = uspace.read(task.source_path)
        telemetry = telemetry_for(self.sim)
        export_span = None
        if run.trace_id:
            export_span = telemetry.tracer.start_span(
                "njs.export", run.trace_id, parent=run.job_span,
                tier="server", path=task.destination_path, bytes=len(content),
            )
        yield self.sim.timeout(len(content) / self.local_disk_bandwidth_Bps)
        try:
            self.xspace.fs.write(task.destination_path, content)
        except VFSError as err:
            if export_span is not None:
                telemetry.tracer.end_span(export_span, error=err)
            run.finish_action(task.id, ActionStatus.FAILED, reason=str(err))
            return
        if export_span is not None:
            telemetry.tracer.end_span(export_span)
        outcome.bytes_moved = len(content)
        outcome.completed_at = self.sim.now
        run.finish_action(task.id, ActionStatus.SUCCESSFUL)

    def _run_transfer(self, run, group, task: TransferTask):
        uspace = run.uspaces[group.id]
        outcome = run.outcomes[task.id]
        outcome.submitted_at = self.sim.now
        if not uspace.exists(task.source_path):
            run.finish_action(
                task.id, ActionStatus.FAILED,
                reason=f"uspace file {task.source_path!r} does not exist",
            )
            return
        if task.destination_usite not in self._peer_routes:
            run.finish_action(
                task.id, ActionStatus.FAILED,
                reason=f"no route to Usite {task.destination_usite!r}",
            )
            return
        content = uspace.read(task.source_path)
        corr_id = next(self._corr_seq)
        # The file travels on the data plane: chunked frames whose
        # context tells the peer where the bytes belong.  The receiver
        # acks the whole transfer once it is reassembled and stored.
        context = {
            "kind": "uspace-file",
            "job": run.job_id,
            "path": task.destination_path,
            "reply": self.usite_name,
            "corr": corr_id,
        }
        started = self.sim.now
        reply_ev = self.sim.event(name=f"transfer-ack:{corr_id}")
        self._pending[corr_id] = reply_ev
        telemetry = telemetry_for(self.sim)
        transfer_span = None
        if run.trace_id:
            transfer_span = telemetry.tracer.start_span(
                "njs.transfer", run.trace_id, parent=run.job_span,
                tier="server", usite=task.destination_usite,
                bytes=len(content),
            )
        try:
            yield from self._stream_to_peer(
                task.destination_usite, content, context
            )
        except ConnectionLost as err:
            self._pending.pop(corr_id, None)
            if transfer_span is not None:
                telemetry.tracer.end_span(transfer_span, error=err)
            run.finish_action(
                task.id, ActionStatus.FAILED,
                reason=f"transfer lost after retries: {err}",
            )
            return
        ack = yield reply_ev
        elapsed = self.sim.now - started
        if transfer_span is not None:
            telemetry.tracer.end_span(
                transfer_span, error=None if ack.ok else ack.error
            )
        if ack.ok:
            outcome.bytes_moved = len(content)
            outcome.effective_bandwidth = (
                len(content) / elapsed if elapsed > 0 else float("inf")
            )
            outcome.completed_at = self.sim.now
            self.transfers_bytes += len(content)
            telemetry.metrics.counter("njs.transfer_bytes").inc(len(content))
            run.finish_action(task.id, ActionStatus.SUCCESSFUL)
        else:
            run.finish_action(task.id, ActionStatus.FAILED, reason=ack.error)

    # --------------------------------------------------------- peer traffic
    def _forward_group(self, run, group, sub: AbstractJobObject, staged):
        self.forwarded_groups += 1
        telemetry = telemetry_for(self.sim)
        telemetry.metrics.counter("njs.forwarded_groups").inc()
        forward_span = None
        if run.trace_id:
            forward_span = telemetry.tracer.start_span(
                "njs.forward", run.trace_id, parent=run.job_span,
                tier="server", usite=sub.usite, group=sub.name,
            )
        return_files = tuple(
            f
            for dep in group.dependencies
            if dep.predecessor_id == sub.id
            for f in dep.files
        )
        # Ship the workstation files the subtree imports.
        needed_ws = {
            t.source_path
            for a in sub.walk()
            if isinstance(a, ImportTask)
            and a.source_space == FileSpace.WORKSTATION
            for t in [a]
        }
        ws_files = {
            p: c for p, c in run.workstation_files.items() if p in needed_ws
        }
        ws_files.update(staged)
        corr_id = next(self._corr_seq)
        # Control/data-plane split: small staging files ride inside the
        # ForwardGroup; large ones stream ahead of it on the same FIFO
        # route, so they are reassembled at the peer before the group
        # message arrives.
        inline_files = {
            p: c for p, c in ws_files.items() if len(c) <= INLINE_FILE_MAX
        }
        streamed_files = {
            p: c for p, c in ws_files.items() if len(c) > INLINE_FILE_MAX
        }
        message = ForwardGroup(
            corr_id=corr_id,
            reply_usite=self.usite_name,
            parent_job_id=run.job_id,
            user_dn=run.user_dn,
            ajo_bytes=encode_ajo(sub),
            staged_files=inline_files,
            return_files=return_files,
            trace_id=run.trace_id,
            parent_span_id=forward_span.span_id if forward_span else "",
        )
        reply_ev = self.sim.event(name=f"group-result:{corr_id}")
        self._pending[corr_id] = reply_ev
        try:
            for path, blob in sorted(streamed_files.items()):
                yield from self._stream_to_peer(
                    sub.usite, blob,
                    {"kind": "forward-stage", "job": run.job_id, "path": path},
                )
            yield from self._send_via_route(
                sub.usite, message, message.wire_payload
            )
        except ConnectionLost as err:
            self._pending.pop(corr_id, None)
            if forward_span is not None:
                telemetry.tracer.end_span(forward_span, error=err)
            run.finish_action(
                sub.id, ActionStatus.FAILED,
                reason=f"job group lost in transit after retries: {err}",
            )
            return
        result = yield reply_ev
        returned_files = self._returned_files.pop(corr_id, {})
        if forward_span is not None:
            telemetry.tracer.end_span(
                forward_span, error=None if result.ok else result.error
            )
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
            merged = dict(returned_files)
            merged.update(result.produced_files)
            run.remote_files[sub.id] = merged
        status = sub_outcome.rollup_status()
        if not status.is_terminal:
            status = ActionStatus.FAILED
        run.finish_action(sub.id, status)

    def _merge_outcome(
        self, run, parent_group, sub: AbstractJobObject, sub_outcome: AJOOutcome
    ) -> None:
        """Splice a remote group's outcome tree into the job's tree."""
        sub_outcome.action_id = sub.id
        parent_outcome = typing.cast(AJOOutcome, run.outcomes[parent_group.id])
        parent_outcome.children[sub.id] = sub_outcome
        # Refresh the flat index for the whole subtree.
        def _index(outcome) -> None:
            run.outcomes[outcome.action_id] = outcome
            if isinstance(outcome, AJOOutcome):
                for child in outcome.children.values():
                    _index(child)
        # Keep the run's terminal-event object for sub.id; only the
        # OUTCOME objects are replaced.
        old_event = run.events.get(sub.id)
        _index(sub_outcome)
        if old_event is not None:
            run.events[sub.id] = old_event

    #: Bounded resend attempts for NJS-NJS messages on unreliable links
    #: (the same asynchronous-protocol philosophy as the client tier).
    PEER_RETRIES = 6
    PEER_RETRY_DELAY_S = 5.0

    def _stream_to_peer(self, usite: str, data: bytes, context: dict,
                        chunk_bytes: int = DEFAULT_CHUNK_BYTES):
        """Stream a bulk payload to a peer NJS, one chunked frame at a time.

        Each chunk travels as its own :class:`PeerFrame` hop sequence, so
        control messages sharing the route's links wait for at most one
        chunk's serialization.  A chunk lost mid-route is retransmitted
        *alone* — the stream resumes from the last acknowledged chunk
        (``stream.resumes``) instead of restarting, which is what makes
        WAN-drop faults survivable for multi-megabyte transfers.
        """
        sender = StreamSender(
            self._stream_ids.next(), data, chunk_bytes, context
        )

        def send_frame(raw: bytes):
            # retries=0: a loss surfaces in send_stream (per-chunk
            # resume) instead of being hidden inside the hop machinery.
            return self._send_via_route(
                usite, PeerFrame(raw), len(raw), retries=0
            )

        yield from send_stream(
            self.sim, sender, send_frame,
            metrics=telemetry_for(self.sim).metrics,
        )

    def _send_via_route(
        self, usite: str, payload, payload_size: int,
        retries: int | None = None,
    ):
        """Send via the https route (NJS -> gateway -> peer gateway -> NJS).

        First use of a route pays the SSL handshake round trips end to
        end.  Every hop carries the record-framed byte count; endpoint
        seal/open CPU is charged once.  Lost messages are resent up to
        :data:`PEER_RETRIES` times (``retries`` overrides the budget);
        after that :class:`ConnectionLost` propagates to the caller,
        which fails the affected action.
        """
        if usite == BROKER_PEER:
            assert self._broker_route is not None, "no broker route registered"
            route = self._broker_route
        else:
            route = self._peer_routes[usite]
        if usite not in self._peer_sessions:
            for _ in range(HANDSHAKE_ROUND_TRIPS):
                for src, dst in route:
                    yield from self._reliable_hop(
                        src, dst, ("hs",), _HS_BYTES, "njs-handshake", False
                    )
                for src, dst in [(b, a) for a, b in reversed(route)]:
                    yield from self._reliable_hop(
                        src, dst, ("hs-ack",), _HS_BYTES, "njs-handshake", False
                    )
            self._peer_sessions.add(usite)
        records = SSLSession.record_count(payload_size)
        wire = SSLSession.wire_bytes(payload_size)
        yield self.sim.timeout(records * self.per_record_cpu_s)  # seal
        last = len(route) - 1
        for i, (src, dst) in enumerate(route):
            yield from self._reliable_hop(
                src, dst, payload, wire, "njs-njs", i == last,
                retries=retries,
            )
        yield self.sim.timeout(records * self.per_record_cpu_s)  # open

    def _reliable_hop(
        self, src: str, dst: str, payload, wire: int, channel: str,
        deliver: bool, retries: int | None = None,
    ):
        """One hop with bounded retransmission."""
        budget = self.PEER_RETRIES if retries is None else retries
        last_error: Exception | None = None
        for attempt in range(1 + budget):
            try:
                yield self.network.send(
                    src, dst, payload, wire, channel=channel, deliver=deliver
                )
                return
            except ConnectionLost as err:
                last_error = err
                if attempt < budget:
                    yield self.sim.timeout(self.PEER_RETRY_DELAY_S)
        assert last_error is not None
        raise last_error

    # ------------------------------------------------------------ server loop
    def _server_loop(self):
        while True:
            message = yield self.host.receive()
            self.dispatch_peer_message(message.payload)

    def dispatch_peer_message(self, payload: object) -> bool:
        """Handle one NJS-to-NJS message; returns True if it was ours."""
        if self.crashed and isinstance(
            payload, (ForwardGroup, GroupResult, TransferAck, CancelGroup,
                      PeerFrame, ReclaimJob)
        ):
            # A dead process reads nothing: the message is simply lost
            # (senders retry or fail their action, as with a lost frame).
            telemetry_for(self.sim).metrics.counter(
                "njs.dropped_peer_messages"
            ).inc()
            return True
        if isinstance(payload, PeerFrame):
            self.datapath.feed(payload.raw)
            return True
        if isinstance(payload, ForwardGroup):
            self.sim.process(self._handle_forward(payload))
        elif isinstance(payload, CancelGroup):
            self._handle_cancel_group(payload)
        elif isinstance(payload, ReclaimJob):
            self.sim.process(self._handle_reclaim(payload))
        elif isinstance(payload, (GroupResult, TransferAck)):
            waiter = self._pending.pop(payload.corr_id, None)
            if waiter is not None:
                waiter.succeed(payload)
        else:
            return False
        return True

    def _handle_forward(self, message: ForwardGroup):
        # Large staging files streamed ahead of the group on the same
        # FIFO route; they are already reassembled under the parent id.
        staged_files = dict(message.staged_files)
        staged_files.update(
            self._pending_forward_files.pop(message.parent_job_id, {})
        )
        try:
            validate_manifest_paths(staged_files, what="forwarded staging")
            sub = decode_ajo(message.ajo_bytes)
            run = self.consign(
                sub,
                user_dn=message.user_dn,
                workstation_files=staged_files,
                parent_job_id=message.parent_job_id,
                trace_id=message.trace_id,
                parent_span_id=message.parent_span_id,
                forward_meta=(
                    message.corr_id,
                    message.reply_usite,
                    tuple(message.return_files),
                ),
                ajo_bytes=message.ajo_bytes,
            )
        except Exception as err:  # noqa: BLE001 - reported back to the peer
            reply = GroupResult(
                corr_id=message.corr_id, ok=False, error=str(err)
            )
            try:
                yield from self._send_via_route(
                    message.reply_usite, reply, reply.wire_payload
                )
            except ConnectionLost:
                pass
            return
        # Also stash staged files into the group uspace on creation
        # (handled by _early_files in _run_group).
        self._early_files.setdefault(run.job_id, {}).update(staged_files)
        # The parent expects these files back: the group's sink tasks
        # must produce them.
        run.group_expected[run.root.id] = tuple(message.return_files)
        yield from self._finish_forward(
            run, message.corr_id, message.reply_usite, message.return_files
        )

    def _finish_forward(
        self,
        run: JobRun,
        corr_id: int,
        reply_usite: str,
        return_files: typing.Iterable[str],
    ):
        """Await a forwarded group and report home (also used by replay)."""
        yield run.done_event
        produced: dict[str, bytes] = {}
        for path in return_files:
            for uspace in run.uspaces.values():
                if uspace.exists(path):
                    produced[path] = uspace.read(path)
                    break
        # Big result files stream home on the data plane, keyed by this
        # correlation id; small ones ride inside the GroupResult.
        inline_produced = {
            p: c for p, c in produced.items() if len(c) <= INLINE_FILE_MAX
        }
        streamed_produced = {
            p: c for p, c in produced.items() if len(c) > INLINE_FILE_MAX
        }
        reply = GroupResult(
            corr_id=corr_id,
            ok=True,
            outcome_bytes=encode_outcome(run.root_outcome),
            produced_files=inline_produced,
        )
        try:
            for path, blob in sorted(streamed_produced.items()):
                yield from self._stream_to_peer(
                    reply_usite, blob,
                    {"kind": "group-return", "corr": corr_id, "path": path},
                )
            yield from self._send_via_route(
                reply_usite, reply, reply.wire_payload
            )
        except ConnectionLost:
            pass  # the parent NJS will surface the missing result

    # ------------------------------------------------------ data-plane intake
    def _on_stream_complete(self, context: dict, data: bytes) -> bool:
        """Route a reassembled peer stream by its context kind."""
        kind = context.get("kind")
        if kind == "uspace-file":
            # A Uspace-to-Uspace transfer: store + ack (its own process,
            # because storing charges disk time and the ack travels back).
            self.sim.process(
                self._complete_transfer(context, data),
                name=f"transfer-in:{context.get('corr', 0)}",
            )
            return True
        if kind == "forward-stage":
            # Staging for a ForwardGroup still in flight behind us.
            path = str(context.get("path", ""))
            try:
                validate_manifest_paths([path], what="forwarded staging")
            except UnsafePathError:
                telemetry_for(self.sim).metrics.counter(
                    "njs.rejected_paths"
                ).inc()
                return True
            self._pending_forward_files.setdefault(
                str(context.get("job", "")), {}
            )[path] = data
            return True
        if kind == "group-return":
            self._returned_files.setdefault(
                int(context.get("corr", 0)), {}
            )[str(context.get("path", ""))] = data
            return True
        return False

    def _complete_transfer(self, context: dict, data: bytes):
        """Store one streamed transfer and acknowledge it."""
        corr_id = int(context.get("corr", 0))
        reply_usite = str(context.get("reply", ""))
        parent_job_id = str(context.get("job", ""))
        path = str(context.get("path", ""))
        try:
            # Strict policy: this path is written into a Uspace, so
            # absolute paths are refused along with traversal segments.
            validate_manifest_paths(
                [path], uspace_destination=True, what="transfer destination"
            )
        except UnsafePathError as err:
            telemetry_for(self.sim).metrics.counter("njs.rejected_paths").inc()
            nack = TransferAck(corr_id=corr_id, ok=False, error=str(err))
            try:
                yield from self._send_via_route(
                    reply_usite, nack, nack.wire_payload
                )
            except ConnectionLost:
                pass
            return
        run = self._foreign_runs.get(parent_job_id) or self._runs.get(
            parent_job_id
        )
        stored = False
        if run is not None:
            for uspace in run.uspaces.values():
                uspace.write(path, data)
                stored = True
                break
        if not stored:
            # Group not consigned here (yet): stash for arrival, keyed by
            # the parent job id every ForwardGroup of this job carries.
            self._early_files.setdefault(parent_job_id, {})[path] = data
            stored = True
        yield self.sim.timeout(len(data) / self.local_disk_bandwidth_Bps)
        ack = TransferAck(corr_id=corr_id, ok=stored)
        try:
            yield from self._send_via_route(
                reply_usite, ack, ack.wire_payload
            )
        except ConnectionLost:
            pass  # sender retries are exhausted; it reports the failure

    def _handle_cancel_group(self, message: CancelGroup) -> None:
        run = self._foreign_runs.get(message.parent_job_id)
        if run is not None:
            self.cancel(run.job_id)

    # ------------------------------------------------------- crash / recovery
    def crash(self, cold: bool = False) -> None:
        """Kill the NJS process: all in-memory state is gone.

        Supervision processes are interrupted (their process events
        defused so the simulator does not treat orphan failures as
        crashes), run tables and peer correlation state are wiped, and
        every service raises :class:`ServiceUnavailable` until
        :meth:`restart`.  The journal and outcome store — durable
        backend storage — survive.  A *warm* crash additionally keeps
        finished runs' Python objects (their outcomes live in Uspaces on
        the site disk, so a crash after completion must not make the job
        unknowable to later queries); ``cold=True`` models a full site
        power loss where even those objects are gone and :meth:`restart`
        must rebuild them from the storage backend.
        """
        if self.crashed:
            return
        self.crashed = True
        self.crashes += 1
        telemetry_for(self.sim).metrics.counter("njs.crashes").inc()
        finished = {} if cold else {
            job_id: run
            for job_id, run in self._runs.items()
            if self.journal.entry(job_id) is None
        }
        for run in list(self._runs.values()):
            if run.job_id in finished:
                continue
            for proc in run.processes:
                if proc.is_alive and proc.target is not None:
                    proc.defuse()
                    proc.interrupt(cause="njs-crash")
        self._runs.clear()
        self._runs.update(finished)
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
        telemetry_for(self.sim).metrics.counter("njs.index.rebuilds").inc()
        self._changes = self._changes.next_epoch()
        for run in self._runs.values():
            self._changes.record(
                self._listing_for(run, run.status().value), run.user_dn
            )
        self._foreign_runs.clear()
        self._early_files.clear()
        self._pending.clear()
        # In-flight stream reassembly dies with the process.
        self.datapath.clear()
        self._returned_files.clear()
        self._pending_forward_files.clear()
        # SSL sessions to peers died with the process: re-handshake.
        self._peer_sessions.clear()
        if cold:
            # Process memory is gone entirely: caches included.
            self.incarnation_cache = IncarnationCache()

    def restart(self) -> None:
        """Come back up from durable storage and resume every job.

        Jobs that finished before the outage are resurrected from the
        outcome store, and every job the journal still holds is replayed.
        """
        if not self.crashed:
            return
        self.crashed = False
        telemetry_for(self.sim).metrics.counter("njs.restarts").inc()
        self.recover()

    def recover(self) -> None:
        """Rebuild run state from storage (shared by restart and grid
        restore, where the NJS instance itself is brand new).

        Reads the jobs in flight and one row per finished job: the
        journal rows of finished jobs are skipped by key.
        """
        finished = set(self.outcomes.job_ids())
        # A warm restart kept every finished run, a cold one none of them.
        if not finished <= self._runs.keys():
            self._restore_finished()
        self.journal.reload(finished, self._job_seq)
        for entry in self.journal.incomplete():
            self._replay(entry)

    def _restore_finished(self) -> None:
        """Resurrect finished jobs that exist only in the outcome store."""
        telemetry = telemetry_for(self.sim)
        for record in self.outcomes.records(self._job_seq):
            job_id = record.job_id
            if job_id in self._runs:
                continue
            run = typing.cast(JobRun, RestoredRun(
                record,
                functools.partial(self.journal.ajo_bytes, job_id),
                self.storage.blobs,
            ))
            self._runs[job_id] = run
            status = run.status()
            self._index.add(
                job_id, run.user_dn, status.value, status.is_terminal
            )
            self._changes.record(
                self._listing_for(run, status.value), run.user_dn
            )
            telemetry.metrics.counter("njs.restored_runs").inc()

    def _replay(self, entry: JournalEntry) -> None:
        """Re-supervise one journaled job under its original id."""
        telemetry = telemetry_for(self.sim)
        # Orphaned batch jobs of the previous life: cancel the survivors
        # (their supervisor is gone; the replay resubmits from scratch).
        for vsite_name, local_id in entry.delivered.values():
            vsite = self.vsites.get(vsite_name)
            if vsite is None:
                continue
            try:
                record = vsite.batch.query(local_id)
                if not record.state.is_terminal:
                    vsite.batch.cancel(local_id)
            except (BatchError, UnknownJobError):
                pass
        # Stale job directories would collide with the replay's creates.
        prefix = f"{entry.job_id}."
        for vsite in self.vsites.values():
            for name in list(vsite.uspaces.active_jobs):
                if name.startswith(prefix):
                    vsite.uspaces.destroy(name)
        try:
            # The one place recovery reads file bodies: a replayed job
            # re-imports what it was consigned with.
            staged_files = self.journal.staged_files(entry)
            run = self.consign(
                decode_ajo(entry.ajo_bytes),
                user_dn=entry.user_dn,
                workstation_files=staged_files,
                parent_job_id=entry.parent_job_id,
                trace_id=entry.trace_id,
                job_id=entry.job_id,
            )
        except Exception as err:  # noqa: BLE001 - a replay must not kill restart
            telemetry.metrics.counter("njs.replay_failures").inc()
            telemetry.metrics.counter("njs.journal_replays").inc()
            if entry.trace_id:
                telemetry.tracer.end_span(
                    telemetry.tracer.start_span(
                        "njs.replay", entry.trace_id, tier="server",
                        job_id=entry.job_id, usite=self.usite_name,
                    ),
                    error=err,
                )
            return
        run.recovered = True
        self.replays += 1
        telemetry.metrics.counter("njs.journal_replays").inc()
        if run.trace_id:
            # A visible recovery marker in the per-job trace.
            telemetry.tracer.end_span(
                telemetry.tracer.start_span(
                    "njs.replay", run.trace_id, tier="server",
                    job_id=run.job_id, usite=self.usite_name,
                )
            )
        if entry.forward_meta is not None:
            # A forwarded group must still report to its parent site.
            corr_id, reply_usite, return_files = entry.forward_meta
            self._early_files.setdefault(run.job_id, {}).update(staged_files)
            run.group_expected[run.root.id] = tuple(return_files)
            run.processes.append(
                self.sim.process(
                    self._finish_forward(run, corr_id, reply_usite, return_files),
                    name=f"replay-forward:{run.job_id}",
                )
            )

    # ------------------------------------------------- index & change-log
    def _listing_for(self, run: JobRun, status_value: str) -> JobListing:
        return JobListing(
            job_id=run.job_id,
            name=run.name,
            status=status_value,
            submitted_at=run.submitted_at,
            recovered=run.recovered,
        )

    def _note_change(self, run: JobRun) -> None:
        """Status-change hook: keep index, change-log, watchers current.

        Fired by :meth:`JobRun.notify_change` after any action status
        change.  Only rollup-value changes append to the change-log, so
        the log stays proportional to *visible* transitions.
        """
        if self._runs.get(run.job_id) is not run:
            return  # orphaned by a crash that raced supervision
        status = run.status()
        changed = self._index.note_status(
            run.job_id, run.user_dn, status.value, status.is_terminal
        )
        if not changed:
            return
        self._changes.record(self._listing_for(run, status.value), run.user_dn)
        if status.is_terminal:
            for watcher in self._watchers.pop(run.job_id, ()):
                if not watcher.triggered:
                    watcher.succeed(status)

    def watch_completion(self, job_id: str) -> Event | None:
        """An event that fires when the job turns terminal (subscription).

        Returns ``None`` when the job is already terminal — the caller
        should answer immediately.  Watcher events are owned by the
        *caller* (the gateway), never by the run: a crash fires them all
        (waking subscribers to observe the outage) without disturbing
        the run's own completion events.
        """
        run = self.get_run(job_id)
        if run.status().is_terminal:
            return None
        ev = self.sim.event(name=f"watch:{job_id}")
        self._watchers.setdefault(job_id, []).append(ev)
        return ev

    # ---------------------------------------------------------------- services
    def get_run(self, job_id: str) -> JobRun:
        if self.crashed:
            raise ServiceUnavailable(
                f"NJS at {self.usite_name} is down"
            )
        try:
            return self._runs[job_id]
        except KeyError:
            raise UnknownUnicoreJobError(
                f"{self.usite_name}: unknown UNICORE job {job_id!r}"
            ) from None

    def list_jobs(self, user_dn: str) -> list[JobListing]:
        """The ListService answer: the user's jobs at this NJS.

        Indexed: touches only the user's own runs, not the whole table.
        """
        if self.crashed:
            raise ServiceUnavailable(f"NJS at {self.usite_name} is down")
        telemetry_for(self.sim).metrics.counter("njs.index.hits").inc()
        return [
            self._listing_for(run, run.status().value)
            for job_id in sorted(self._index.jobs_for(user_dn))
            if (run := self._runs.get(job_id)) is not None
        ]

    def list_jobs_delta(
        self, user_dn: str, since_seq: int, epoch: int
    ) -> JobListingDelta:
        """The versioned ListService answer: changes since the cursor.

        A cursor from another epoch (the change-log restarted after a
        crash), or no cursor at all, gets a full listing tagged with the
        current epoch so the client can resync and resume deltas.
        """
        if self.crashed:
            raise ServiceUnavailable(f"NJS at {self.usite_name} is down")
        if epoch != self._changes.epoch or since_seq < 0:
            return JobListingDelta(
                seq=self._changes.seq,
                epoch=self._changes.epoch,
                full=True,
                listings=tuple(self.list_jobs(user_dn)),
            )
        telemetry_for(self.sim).metrics.counter("njs.index.hits").inc()
        return self._changes.delta_for(user_dn, since_seq)

    def query_status(self, job_id: str, detail: str = "tasks") -> JobStatusView:
        """The QueryService answer: the status tree at the chosen detail."""
        run = self.get_run(job_id)

        def render(group: AbstractJobObject) -> JobStatusView:
            rollup = typing.cast(
                AJOOutcome, run.outcomes[group.id]
            ).rollup_status()
            children: list[JobStatusView] = []
            if detail in ("groups", "tasks"):
                for child in group.children:
                    if isinstance(child, AbstractJobObject):
                        children.append(render(child))
                    elif detail == "tasks":
                        outcome = run.outcomes[child.id]
                        children.append(
                            JobStatusView(
                                id=child.id,
                                name=child.name,
                                status=outcome.status.value,
                                color=outcome.status.display_color,
                            )
                        )
            return JobStatusView(
                id=group.id,
                name=group.name,
                status=rollup.value,
                color=rollup.display_color,
                children=tuple(children),
                as_of=self.sim.now,
            )

        return render(run.root)

    def retrieve_outcome(self, job_id: str) -> bytes:
        """The full outcome tree (stdout/stderr included), encoded."""
        return self.get_run(job_id).encoded_outcome()

    def fetch_uspace_file(self, job_id: str, path: str) -> bytes:
        """One Uspace file, for sending back to the user's workstation.

        Section 5.6: result data returns to the workstation "only on user
        request while the user is working with the JMC".
        """
        run = self.get_run(job_id)
        for uspace in run.uspaces.values():
            if uspace.exists(path):
                return uspace.read(path)
        raise UnknownUnicoreJobError(
            f"job {job_id} has no Uspace file {path!r} at {self.usite_name}"
        )

    def dispose(self, job_id: str) -> None:
        """Release a terminal job: destroy its Uspaces, forget its state.

        The NJS "create[s] a UNICORE job directory" per job (section 5.5);
        disposal is the matching cleanup once the user is done with the
        outcome.
        """
        run = self.get_run(job_id)
        if not run.status().is_terminal:
            raise ConsignError(
                f"job {job_id} is {run.status().value}; cancel it before "
                "disposing"
            )
        for group_id, uspace in run.uspaces.items():
            group = next(
                (a for a in run.root.walk() if a.id == group_id), None
            )
            if group is not None and getattr(group, "vsite", ""):
                vsite = self.vsites.get(group.vsite)
                if vsite is not None and uspace.job_id in vsite.uspaces.active_jobs:
                    vsite.uspaces.destroy(uspace.job_id)
        del self._runs[job_id]
        self._index.discard(job_id, run.user_dn)
        self._changes.record_removed(job_id, run.user_dn)
        with self.storage.batch():
            self.journal.forget(job_id)
            self.outcomes.forget(job_id)
        for parent_id, foreign in list(self._foreign_runs.items()):
            if foreign is run:
                del self._foreign_runs[parent_id]

    def hold(self, job_id: str) -> None:
        """Stop delivering further parts of the job (already-submitted
        batch jobs keep running — UNICORE cannot influence them)."""
        run = self.get_run(job_id)
        if run.status().is_terminal:
            raise ConsignError(f"job {job_id} already terminal; cannot hold")
        run.held = True

    def resume(self, job_id: str) -> None:
        """Release a held job's delivery."""
        run = self.get_run(job_id)
        run.held = False
        if run.hold_released is not None and not run.hold_released.triggered:
            run.hold_released.succeed()

    def cancel(self, job_id: str) -> None:
        """Cancel a job: kill batch jobs, propagate to forwarded groups."""
        run = self.get_run(job_id)
        if run.cancelled:
            return
        run.cancelled = True
        # A held job's waiters must wake up to observe the cancellation.
        if run.held:
            self.resume(run.job_id)
            run.cancelled = True
        for vsite_name, local_id in run.batch_jobs.values():
            batch = self.vsites[vsite_name].batch
            record = batch.query(local_id)
            if not record.state.is_terminal:
                batch.cancel(local_id)
        for sub in run.root.sub_jobs():
            if sub.usite and sub.usite != self.usite_name and sub.usite in self._peer_routes:
                message = CancelGroup(
                    corr_id=next(self._corr_seq), parent_job_id=run.job_id
                )
                self.sim.process(
                    self._send_as_process(sub.usite, message, message.wire_payload)
                )

    def _send_as_process(self, usite, message, size):
        try:
            yield from self._send_via_route(usite, message, size)
        except ConnectionLost:
            pass  # fire-and-forget (cancellation is best-effort)

    # -------------------------------------------------- federation broker
    def build_advertisement(self) -> AdvertiseCapacity:
        """Snapshot this site's advertisable state for the broker.

        Everything here is legitimately middleware-visible: batch record
        queries, the published resource pages, and this NJS's own run
        table.  Site autonomy holds — the broker learns load, it never
        steers local scheduling.
        """
        now = self.sim.now
        ads = []
        for name in sorted(self.vsites):
            vsite = self.vsites[name]
            backlog = 0.0
            queued = running = busy_cpus = 0
            for record in vsite.batch.all_records():
                if record.state is BatchState.QUEUED:
                    queued += 1
                    backlog += (
                        record.spec.resources.cpus * record.spec.resources.time_s
                    )
                elif record.state is BatchState.RUNNING:
                    running += 1
                    busy_cpus += record.spec.resources.cpus
                    elapsed = now - (record.start_time or now)
                    backlog += record.spec.resources.cpus * max(
                        0.0, record.spec.resources.time_s - elapsed
                    )
            ads.append(CapacityAdvertisement(
                usite=self.usite_name,
                vsite=name,
                sent_at=now,
                total_cpus=vsite.machine.cpus,
                free_cpus=max(0, vsite.machine.cpus - busy_cpus),
                queued_jobs=queued,
                running_jobs=running,
                backlog_cpu_s=backlog,
                speed_factor=vsite.machine.speed_factor,
                page=vsite.resource_page,
            ))
        telemetry_for(self.sim).metrics.counter("njs.index.hits").inc()
        terminal = tuple(sorted(self._index.terminal))
        return AdvertiseCapacity(
            usite=self.usite_name,
            sent_at=now,
            vsites=tuple(ads),
            reclaimable=tuple(self.reclaimable_job_ids()),
            terminal=terminal,
        )

    def reclaimable_job_ids(self) -> list[str]:
        """Jobs the broker may steal: consigned here, every submitted
        batch record still QUEUED, nothing started or cancelled.

        Walks only the *active* index partition — terminal runs (the
        bulk of a long-lived run table) are never touched.
        """
        telemetry_for(self.sim).metrics.counter("njs.index.hits").inc()
        out = []
        for job_id in sorted(self._index.active):
            run = self._runs.get(job_id)
            if run is None or run.cancelled or run.held or run.status().is_terminal:
                continue
            if not run.batch_jobs:
                continue
            still_queued = True
            for vsite_name, local_id in run.batch_jobs.values():
                vsite = self.vsites.get(vsite_name)
                if vsite is None:
                    still_queued = False
                    break
                try:
                    record = vsite.batch.query(local_id)
                except (BatchError, UnknownJobError):
                    still_queued = False
                    break
                if record.state is not BatchState.QUEUED:
                    still_queued = False
                    break
            if still_queued:
                out.append(job_id)
        return out

    def start_advertising(
        self, interval_s: float = 60.0, offset_s: float = 0.0
    ) -> None:
        """Begin periodic capacity advertisements to the broker hub."""
        if self._advertising:
            return
        self._advertising = True
        self.sim.process(
            self._advertise_loop(interval_s, offset_s),
            name=f"advertise:{self.usite_name}",
        )

    def _advertise_loop(self, interval_s: float, offset_s: float):
        if offset_s:
            yield self.sim.timeout(offset_s)
        while True:
            if not self.crashed and self._broker_route is not None:
                message = self.build_advertisement()
                try:
                    yield from self._send_via_route(
                        BROKER_PEER, message, message.wire_payload
                    )
                    telemetry_for(self.sim).metrics.counter(
                        "njs.advertisements"
                    ).inc()
                except ConnectionLost:
                    pass  # the next interval's report supersedes this one
            yield self.sim.timeout(interval_s)

    def _handle_reclaim(self, message: ReclaimJob):
        """Steal endpoint: cancel the job iff it still has not started.

        The broker acts on advertised (stale) state; this re-check
        against live batch records is the authoritative one.
        """
        ok = message.job_id in self.reclaimable_job_ids()
        if ok:
            self.cancel(message.job_id)
            telemetry_for(self.sim).metrics.counter("njs.reclaimed_jobs").inc()
        ack = ReclaimAck(corr_id=message.corr_id, ok=ok)
        try:
            yield from self._send_via_route(
                BROKER_PEER, ack, ack.wire_payload
            )
        except ConnectionLost:
            pass  # the broker's ack timeout leaves the job where it is

    @property
    def job_count(self) -> int:
        return len(self._runs)
