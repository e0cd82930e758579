"""The Network Job Supervisor (NJS).

Paper section 4.2: "the network job supervisor (NJS) which does the job
management.  The NJS translates the AJO into one or more batch jobs for
the destination system(s), submits the batch jobs, and controls them.
In addition, it transparently transfers data to and from the destination
system for the job and makes sure that the dependent parts of the
UNICORE job are scheduled in the predefined sequence."

:class:`NetworkJobSupervisor` is the one object the gateway sees: it
accepts consignments, answers the control and query verbs, dispatches
NJS-to-NJS messages, and dies and comes back as a whole.  The work is
done by the parts it wires together (:mod:`repro.server.njs` lists them).
"""

from __future__ import annotations

import typing

from repro.ajo.job import AbstractJobObject
from repro.ajo.serialize import decode_ajo
from repro.analysis import AnalysisContext, analyze_ajo
from repro.broker.advertise import BROKER_PEER, ReclaimAck, ReclaimJob
from repro.broker.errors import BrokerQuotaError
from repro.faults.errors import ServiceUnavailable
from repro.net.sim_transport import Host, Network
from repro.observability import Span, telemetry_for
from repro.protocol.views import JobListingDelta, JobStatusView
from repro.security.errors import MappingError
from repro.security.uudb import UUDB
from repro.server.errors import ConsignError, UnknownUnicoreJobError
from repro.server.njs.adverts import BrokerAdverts
from repro.server.njs.executor import Executor
from repro.server.njs.forwarding import Forwarding
from repro.server.njs.jobrun import JobRun, status_view
from repro.server.njs.peerlink import (
    CancelGroup,
    ForwardGroup,
    GroupResult,
    PeerFrame,
    PeerLink,
    TransferAck,
)
from repro.server.njs.runtable import RunTable
from repro.server.vsite import Vsite
from repro.simkernel import Event, Simulator
from repro.storage.backend import StorageBackend
from repro.storage.journal import ForwardMeta, JournalEntry
from repro.vfs.body import FileBody
from repro.vfs.spaces import Xspace

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.ext.accounting import AccountingLog

__all__ = ["NetworkJobSupervisor"]


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
        accounting: AccountingLog,
        storage: StorageBackend,
        own_inbox: bool = True,
        max_active_per_user: int | None = None,
    ) -> None:
        self.sim = sim
        self.usite_name = usite_name
        self.host = host
        self.uudb = uudb
        self.vsites = dict(vsites)
        #: Site-local concurrency cap: a consignment from a user who
        #: already has this many live jobs here is refused with the
        #: wire-carried ``broker.quota_exceeded`` code (fair use,
        #: enforced at the site edge — defense in depth under brokering).
        self.max_active_per_user = max_active_per_user
        #: Durable site-local persistence: the write-ahead journal, the
        #: finished-job outcome store, and the job-id cursor all live in
        #: this one pluggable backend.
        self.storage = storage
        storage.bind_metrics(telemetry_for(sim).metrics)
        #: The jobs this NJS knows: to everyone else a read-only mapping
        #: ``job id -> run``.  It holds the journal and the outcome store.
        self.runs = RunTable(sim, usite_name, storage)
        self.journal = self.runs.journal
        self.outcomes = self.runs.outcomes
        #: The routes to peer Usites and what travels on them.
        self.peers = PeerLink(sim, network, usite_name)
        #: Job groups and files crossing to and from other Usites.
        self.forwarding = Forwarding(sim, usite_name, self.peers, self.consign)
        self._executor = Executor(
            sim, usite_name, self.vsites, uudb, xspace, accounting,
            self.runs, self.peers, self.forwarding,
        )
        #: The Codine-based internal job control of section 5.1/5.5.
        self.codine = self._executor.codine
        #: What this site tells the federation broker.
        self.adverts = BrokerAdverts(
            sim, usite_name, self.vsites, self.runs, self.peers,
            is_down=lambda: self.crashed,
        )
        #: True between :meth:`crash` and :meth:`restart`: in-memory
        #: state is gone, every service raises ServiceUnavailable.
        self.crashed = False
        #: Instrumentation.
        self.crashes = 0
        self.replays = 0

        # When the NJS shares the gateway's host (no firewall split), the
        # gateway serves the host and forwards peer traffic to
        # :meth:`dispatch_peer_message` instead.
        if own_inbox:
            host.serve(lambda message: self.dispatch_peer_message(message.payload))

    @property
    def job_count(self) -> int:
        return len(self.runs)

    # ------------------------------------------------------------ consign
    def consign(
        self,
        ajo: AbstractJobObject,
        user_dn: str | None = None,
        workstation_files: typing.Mapping[str, FileBody | bytes] | None = None,
        parent_job_id: str | None = None,
        trace_id: str = "",
        parent_span_id: str = "",
        forward_meta: ForwardMeta | None = None,
        job_id: str | None = None,
        ajo_bytes: bytes | None = None,
    ) -> JobRun:
        """Accept a job (or a forwarded job group); starts supervision.

        Raises :class:`ConsignError` on validation, mapping, or resource
        failures — the gateway reports these to the client synchronously.

        ``ajo_bytes`` is the encoded form ``ajo`` was decoded from; a
        caller that received the job over the wire passes it, and the
        journal keeps those bytes instead of encoding the tree again.

        ``workstation_files`` given as bodies keep the checks their
        holder took (a streamed upload's chunk CRCs); bare bytes become
        this site's own bodies here, and from here on journal, Uspace and
        outcome store all see the one object.

        ``job_id`` is only passed by journal replay: the recovered run
        keeps its original identifier so clients polling through the
        outage keep seeing their job.  ``forward_meta`` rides into the
        journal so a replayed *forwarded* group can still report home.
        """
        if self.crashed:
            raise ServiceUnavailable(
                f"NJS at {self.usite_name} is down; consign refused"
            )
        files = {
            path: FileBody.of(content)
            for path, content in (workstation_files or {}).items()
        }
        telemetry = telemetry_for(self.sim)
        consign_span = telemetry.tracer.start_span(
            "njs.consign",
            trace_id,
            parent=parent_span_id,
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
                and job_id is None
                and parent_job_id is None
            ):
                active = self.runs.active_count(dn)
                if active >= self.max_active_per_user:
                    telemetry.metrics.counter("broker.rejections").inc()
                    raise BrokerQuotaError(
                        f"{self.usite_name}: user {dn!r} already has "
                        f"{active} live jobs (cap {self.max_active_per_user})"
                    )
            self._analyze_arrival(
                ajo,
                is_forward=parent_job_id is not None,
                workstation_files=files,
                parent_span=consign_span,
            )
            self._check_mappings(ajo, dn)
        except (ConsignError, BrokerQuotaError) as err:
            telemetry.tracer.end_span(consign_span, error=err)
            raise

        run = self.runs.admit(
            ajo, dn, files, trace_id,
            job_id=job_id, ajo_bytes=ajo_bytes,
            parent_job_id=parent_job_id, forward_meta=forward_meta,
        )
        # The job span outlives the consign acknowledgement: it closes
        # once supervision finishes.
        run.job_span = telemetry.tracer.start_span(
            "njs.job", trace_id, parent=consign_span, tier="server",
            job_id=run.job_id,
        )
        telemetry.tracer.end_span(consign_span.set(job_id=run.job_id))
        self._executor.supervise(run)
        return run

    def _analyze_arrival(
        self,
        ajo: AbstractJobObject,
        *,
        is_forward: bool,
        workstation_files: dict[str, FileBody],
        parent_span: Span,
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
        analyze_span = telemetry.tracer.start_span(
            "njs.analyze", parent_span.trace_id, parent=parent_span,
            tier="server", usite=self.usite_name, job=ajo.name,
        )
        report = analyze_ajo(ajo, context, require_user=not is_forward)
        telemetry.metrics.counter("analysis.errors").inc(len(report.errors))
        telemetry.metrics.counter("analysis.warnings").inc(len(report.warnings))
        analyze_span.set(errors=len(report.errors), warnings=len(report.warnings))
        if not report.ok:
            telemetry.metrics.counter("analysis.jobs_rejected").inc()
            err = ConsignError(f"invalid AJO: {report.summary()}")
            # Instance attribute: the gateway reports this stable
            # diagnostic code in Reply.error_code.
            err.code = report.errors[0].code
            telemetry.tracer.end_span(analyze_span, error=err)
            raise err
        telemetry.tracer.end_span(analyze_span)

    def _check_mappings(self, group: AbstractJobObject, dn: str) -> None:
        """The one arrival check the analyzer cannot make: the UUDB maps
        the user at every local Vsite the job has tasks for."""
        if group.usite not in ("", self.usite_name):
            return  # the destination NJS checks its own UUDB on arrival
        if group.tasks():
            try:
                self.uudb.map_dn(dn, vsite=group.vsite)
            except MappingError as err:
                raise ConsignError(str(err)) from err
        for sub in group.sub_jobs():
            self._check_mappings(sub, dn)

    # ------------------------------------------------------------ peer traffic
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
        elif isinstance(payload, PeerFrame):
            self.forwarding.datapath.feed(payload.raw)
        elif isinstance(payload, ForwardGroup):
            self.sim.process(self.forwarding.take_in(payload))
        elif isinstance(payload, CancelGroup):
            run = self.forwarding.foreign_run(payload.parent_job_id)
            if run is not None:
                self.cancel(run.job_id)
        elif isinstance(payload, ReclaimJob):
            self.sim.process(self._handle_reclaim(payload))
        elif isinstance(payload, (GroupResult, TransferAck)):
            self.peers.resolve(payload)
        else:
            return False
        return True

    def _handle_reclaim(self, message: ReclaimJob):
        """Steal endpoint: cancel the job iff it still has not started.

        The broker acts on advertised (stale) state; this re-check
        against live batch records is the authoritative one.
        """
        ok = message.job_id in self.adverts.reclaimable()
        if ok:
            self.cancel(message.job_id)
            telemetry_for(self.sim).metrics.counter("njs.reclaimed_jobs").inc()
        # If the ack is lost, the broker's ack timeout leaves the job
        # where it is.
        yield from self.peers.try_send(
            BROKER_PEER, ReclaimAck(corr_id=message.corr_id, ok=ok)
        )

    # ------------------------------------------------------- crash / recovery
    def crash(self, cold: bool = False) -> None:
        """Kill the NJS process: each part forgets what it held in
        memory, and every service raises :class:`ServiceUnavailable`
        until :meth:`restart`.  The journal and outcome store — durable
        backend storage — survive.  ``cold=True`` models a full site
        power loss: finished runs' Python objects and every cache are
        gone too (see :meth:`RunTable.lose_memory`)."""
        if self.crashed:
            return
        self.crashed = True
        self.crashes += 1
        telemetry_for(self.sim).metrics.counter("njs.crashes").inc()
        self.runs.lose_memory(cold)
        self.forwarding.reset()
        self.peers.reset()
        if cold:
            self._executor.forget_caches()

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
        restore, where the NJS instance itself is brand new)."""
        for entry in self.runs.restore():
            self._replay(entry)

    def _replay(self, entry: JournalEntry) -> None:
        """Re-supervise one journaled job under its original id."""
        telemetry = telemetry_for(self.sim)
        self._executor.clear_leftovers(entry)
        error: Exception | None = None
        try:
            # The one place recovery reads file bodies: a replayed job
            # re-imports what it was consigned with.
            run = self.consign(
                decode_ajo(entry.ajo_bytes),
                user_dn=entry.user_dn,
                workstation_files=self.journal.staged_files(entry),
                parent_job_id=entry.parent_job_id,
                trace_id=entry.trace_id,
                job_id=entry.job_id,
            )
        except Exception as err:  # noqa: BLE001 - a replay must not kill restart
            telemetry.metrics.counter("njs.replay_failures").inc()
            error = err
        telemetry.metrics.counter("njs.journal_replays").inc()
        # A visible recovery marker in the per-job trace.
        telemetry.tracer.end_span(
            telemetry.tracer.start_span(
                "njs.replay", entry.trace_id, tier="server",
                job_id=entry.job_id, usite=self.usite_name,
            ),
            error=error,
        )
        if error is not None:
            return
        run.recovered = True
        self.replays += 1
        if entry.forward_meta is not None and entry.parent_job_id is not None:
            # A forwarded group must still report to its parent site.
            self._executor.spawn(run, self.forwarding.adopt(
                run, entry.parent_job_id, entry.forward_meta
            ), f"replay-forward:{run.job_id}")

    # ---------------------------------------------------------------- services
    def _check_up(self) -> None:
        if self.crashed:
            raise ServiceUnavailable(f"NJS at {self.usite_name} is down")

    def get_run(self, job_id: str) -> JobRun:
        self._check_up()
        try:
            return self.runs[job_id]
        except KeyError:
            raise UnknownUnicoreJobError(
                f"{self.usite_name}: unknown UNICORE job {job_id!r}"
            ) from None

    def watch_completion(self, job_id: str) -> Event | None:
        """An event that fires when the job turns terminal (subscription);
        ``None`` when it already is — the caller should answer at once."""
        self.get_run(job_id)
        return self.runs.watch(job_id)

    def list_jobs_delta(
        self, user_dn: str, since_seq: int, epoch: int
    ) -> JobListingDelta:
        """The ListService answer: the user's jobs that changed since the
        cursor, or all of them when it has none or is out of date."""
        self._check_up()
        return self.runs.listings_delta(user_dn, since_seq, epoch)

    def query_status(self, job_id: str, detail: str = "tasks") -> JobStatusView:
        """The QueryService answer: the status tree at the chosen detail."""
        return status_view(self.get_run(job_id), detail, self.sim.now)

    def retrieve_outcome(self, job_id: str) -> bytes:
        """The full outcome tree (stdout/stderr included), encoded."""
        return self.get_run(job_id).encoded_outcome()

    def fetch_uspace_file(self, job_id: str, path: str) -> FileBody:
        """One Uspace file, for sending back to the user's workstation.

        Section 5.6: result data returns to the workstation "only on user
        request while the user is working with the JMC".
        """
        run = self.get_run(job_id)
        for uspace in run.uspaces.values():
            if uspace.exists(path):
                return uspace.body(path)
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
        self._executor.destroy_uspaces(run)
        self.codine.forget(job_id)
        self.forwarding.release(self.runs.dispose(job_id))

    def hold(self, job_id: str) -> None:
        """Stop delivering further parts of the job."""
        self._executor.hold(self.get_run(job_id))

    def resume(self, job_id: str) -> None:
        """Release a held job's delivery."""
        self._executor.resume(self.get_run(job_id))

    def cancel(self, job_id: str) -> None:
        """Cancel a job: kill batch jobs, propagate to forwarded groups."""
        self._executor.cancel(self.get_run(job_id))
