"""The Network Job Supervisor (NJS).

Paper section 4.2: "the network job supervisor (NJS) which does the job
management.  The NJS translates the AJO into one or more batch jobs for
the destination system(s), submits the batch jobs, and controls them.
In addition, it transparently transfers data to and from the destination
system for the job and makes sure that the dependent parts of the
UNICORE job are scheduled in the predefined sequence."

:class:`NetworkJobSupervisor` is the one object the gateway sees: it
accepts consignments, answers the control, query and capacity verbs,
dispatches NJS-to-NJS messages, and dies and comes back as a whole.  The
work is done by the parts it wires together (:mod:`repro.server.njs`
lists them).
"""

from __future__ import annotations

import typing

from repro import asn1
from repro.ajo.dag import JobPlan
from repro.ajo.errors import SerializationError
from repro.ajo.job import AbstractJobObject
from repro.ajo.serialize import decode_ajo
from repro.analysis import AnalysisContext, analyze_ajo
from repro.broker.errors import BrokerQuotaError
from repro.faults.errors import ServiceUnavailable
from repro.net.errors import ConnectionRefused
from repro.net.sim_transport import Host, Network
from repro.observability import Span, telemetry_for
from repro.protocol.views import CapacityView, JobListingDelta, JobStatusView
from repro.security.errors import MappingError
from repro.security.uudb import UUDB
from repro.server.errors import (
    ConsignError,
    JobStartedError,
    UnknownUnicoreJobError,
)
from repro.server.njs.executor import Executor
from repro.server.njs.finished import FinishedRun
from repro.server.njs.forwarding import Forwarding
from repro.server.njs.jobrun import JobRun
from repro.server.njs.peerlink import (
    CancelGroup,
    ForwardGroup,
    GroupResult,
    PeerFrame,
    PeerLink,
    TransferAck,
)
from repro.server.njs.runtable import Run, RunTable
from repro.server.vsite import Vsite
from repro.simkernel import Event, Simulator
from repro.storage.backend import StorageBackend
from repro.storage.journal import Arrival, JournalEntry
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
        self.peers = PeerLink(
            sim, network, usite_name, socket_host=host.name if own_inbox else None
        )
        #: Job groups and files crossing to and from other Usites.
        self.forwarding = Forwarding(
            sim, usite_name, self.peers, self.runs, self.consign
        )
        self._executor = Executor(
            sim, usite_name, self.vsites, uudb, xspace, accounting,
            self.runs, self.peers, self.forwarding,
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
        arrival: Arrival,
        *,
        parent_span_id: str = "",
        job_id: str | None = None,
    ) -> JobRun:
        """Accept a job, or a group a peer forwarded, and start its
        supervision; a forwarded group reports home once it is done.

        The gateway, a peer and a replay of the journal all hand in an
        :class:`Arrival`: its DN is the identity the sender authenticated,
        and an AJO that names another user is refused.  The file bodies
        keep the checks their holder took (a streamed upload's chunk
        CRCs); journal, Uspace and outcome store all see those objects.

        Raises :class:`ConsignError` on validation, mapping, or resource
        failures — the gateway reports these to the client synchronously.

        ``job_id`` is only passed by journal replay: the recovered run
        keeps its original identifier so clients polling through the
        outage keep seeing their job.
        """
        if self.crashed:
            raise ServiceUnavailable(
                f"NJS at {self.usite_name} is down; consign refused"
            )
        ajo = decode_ajo(arrival.ajo_bytes)
        dn, parent = arrival.user_dn, arrival.parent
        if ajo.user_dn and ajo.user_dn != dn:
            raise ConsignError(
                f"AJO names user {ajo.user_dn!r} but the request was "
                f"authenticated as {dn!r}"
            )
        telemetry = telemetry_for(self.sim)
        consign_span = telemetry.tracer.start_span(
            "njs.consign",
            arrival.trace_id,
            parent=parent_span_id,
            tier="server",
            usite=self.usite_name,
            job=ajo.name,
        )
        try:
            if (
                self.max_active_per_user is not None
                and job_id is None
                and parent is None
            ):
                active = self.runs.active_count(dn)
                if active >= self.max_active_per_user:
                    telemetry.metrics.counter("broker.rejections").inc()
                    raise BrokerQuotaError(
                        f"{self.usite_name}: user {dn!r} already has "
                        f"{active} live jobs (cap {self.max_active_per_user})"
                    )
            plan = self._analyze_arrival(ajo, arrival, consign_span)
            self._check_mappings(ajo, dn)
        except (ConsignError, BrokerQuotaError) as err:
            telemetry.tracer.end_span(consign_span, error=err)
            raise

        run = self.runs.admit(plan, arrival, job_id)
        # The job span outlives the consign acknowledgement: it closes
        # once supervision finishes.
        run.job_span = telemetry.tracer.start_span(
            "njs.job", arrival.trace_id, parent=consign_span, tier="server",
            job_id=run.job_id,
        )
        telemetry.tracer.end_span(consign_span.set(job_id=run.job_id))
        # Supervision starts at once, creating the root Uspace: a
        # forwarded group takes what its parent job left here first.
        self._executor.supervise(
            run, {} if parent is None else self.forwarding.staging(run, parent)
        )
        if parent is not None:
            self._executor.spawn(
                run, self.forwarding.report_home(run, parent, ajo.id),
                f"report-home:{run.job_id}",
            )
        return run

    def _analyze_arrival(
        self, ajo: AbstractJobObject, arrival: Arrival, parent_span: Span
    ) -> JobPlan:
        """Re-run the static analyzer on an arriving AJO (never trust the
        client): errors reject the consignment with the primary diagnostic
        code carried over the wire; warnings only count in the metrics.

        Forwarded groups arrive with their staged dependency files, which
        the analyzer treats as prestaged Uspace content, and without a
        user DN of their own; they owe their parent's ``owed`` files.
        """
        telemetry = telemetry_for(self.sim)
        parent = arrival.parent
        context = AnalysisContext.for_njs(
            self,
            prestaged=None if parent is None else arrival.files,
            owed=() if parent is None else parent.owed,
        )
        analyze_span = telemetry.tracer.start_span(
            "njs.analyze", parent_span.trace_id, parent=parent_span,
            tier="server", usite=self.usite_name, job=ajo.name,
        )
        report = analyze_ajo(ajo, context, require_user=parent is None)
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
        assert report.plan is not None
        return report.plan

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
    def dispatch_peer_message(self, payload: object) -> None:
        """Handle one NJS-to-NJS message.  A crashed NJS refuses it,
        which fails the sender's hop as a loss does: the hop's retries
        deliver it after a short outage, or fail its action once.  So is
        a DATA frame of a stream this NJS does not hold (its OPEN died
        with a crash): the sender starts that stream again."""
        if self.crashed:
            raise ConnectionRefused(f"NJS at {self.usite_name} is down")
        if isinstance(payload, PeerFrame):
            self.forwarding.datapath.feed(payload.raw, refuse_unknown=True)
        elif isinstance(payload, ForwardGroup):
            self.sim.process(self.forwarding.take_in(payload))
        elif isinstance(payload, CancelGroup):
            for run in self.runs.serving(payload.parent_job_id):
                if not payload.dispose:
                    self.cancel(run.job_id)
                elif isinstance(run, FinishedRun):  # a running one is left be
                    self.dispose(run.job_id)
        elif isinstance(payload, GroupResult):
            self.forwarding.returned(payload)
        elif isinstance(payload, TransferAck):
            self.peers.resolve(payload)

    # ------------------------------------------------------- crash / recovery
    def crash(self) -> None:
        """Kill the NJS process: each part forgets everything it held in
        memory — every run, finished or not, and every cache — and every
        service raises :class:`ServiceUnavailable` until :meth:`restart`.
        Durable backend storage (journal, outcome store), the Vsites'
        disks and their batch systems survive."""
        if self.crashed:
            return
        self.crashed = True
        self.crashes += 1
        telemetry_for(self.sim).metrics.counter("njs.crashes").inc()
        self.runs.lose_memory()
        self.forwarding.reset()
        self.peers.reset()
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
            # The one place recovery reads blobs: a replayed job arrives
            # again as it was consigned.
            self.consign(self.journal.arrival(entry), job_id=entry.job_id)
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
        if error is None:
            self.replays += 1

    # ---------------------------------------------------------------- services
    def _check_up(self) -> None:
        if self.crashed:
            raise ServiceUnavailable(f"NJS at {self.usite_name} is down")

    def get_run(self, job_id: str) -> Run:
        self._check_up()
        try:
            return self.runs[job_id]
        except KeyError:
            raise UnknownUnicoreJobError(
                f"{self.usite_name}: unknown UNICORE job {job_id!r}"
            ) from None

    def watch_completion(self, job_id: str) -> Event | None:
        """An event woken once the job is finished (subscription);
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
        """The QueryService answer: the status tree at the chosen detail,
        decoded from the reply the gateway sends."""
        reply = self.status_reply(job_id, detail)
        return JobStatusView.from_value(asn1.decode(reply, SerializationError))

    def status_reply(self, job_id: str, detail: str) -> bytes:
        """The encoded QueryService answer, kept by the run."""
        return self.get_run(job_id).status_reply(detail)

    def retrieve_outcome(self, job_id: str) -> bytes:
        """The full outcome tree (stdout/stderr included), encoded."""
        return self.get_run(job_id).encoded_outcome()

    def fetch_uspace_file(self, job_id: str, path: str) -> FileBody:
        """One Uspace file, for sending back to the user's workstation.

        Section 5.6: result data returns to the workstation "only on user
        request while the user is working with the JMC".
        """
        body = self.get_run(job_id).file(path)
        if body is not None:
            return body
        raise UnknownUnicoreJobError(
            f"job {job_id} has no Uspace file {path!r} at {self.usite_name}"
        )

    def dispose(self, job_id: str) -> None:
        """Release a terminal job: destroy its Uspaces, forget its state and
        trace, and have each peer that took in a group of it dispose it.

        The NJS "create[s] a UNICORE job directory" per job (section 5.5);
        disposal is the matching cleanup once the user is done with the
        outcome.
        """
        run = self.get_run(job_id)
        if not isinstance(run, FinishedRun):
            raise ConsignError(
                f"job {job_id} is {run.status().value}; cancel it before "
                "disposing"
            )
        self._executor.tell_forwarded(run, dispose=True)
        self._executor.destroy_uspaces(job_id)
        self.runs.dispose(run)
        telemetry_for(self.sim).tracer.forget(job_id)

    # A finished job is past control: hold refuses, resume and cancel
    # have nothing left to do.
    def hold(self, job_id: str) -> None:
        """Stop delivering further parts of the job (already-submitted
        batch jobs keep running — UNICORE cannot influence them)."""
        run = self.get_run(job_id)
        if isinstance(run, FinishedRun):
            raise ConsignError(f"job {job_id} already terminal; cannot hold")
        run.held = True

    def resume(self, job_id: str) -> None:
        """Release a held job's delivery."""
        run = self.get_run(job_id)
        if not isinstance(run, FinishedRun):
            self._executor.resume(run)

    def cancel(self, job_id: str) -> None:
        """Cancel a job: kill batch jobs, propagate to forwarded groups."""
        run = self.get_run(job_id)
        if not isinstance(run, FinishedRun):
            self._executor.cancel(run)

    def reclaim(self, job_id: str) -> None:
        """Cancel the job only if nothing of it has started, so that its
        owner (or a broker acting for them) can place it elsewhere;
        otherwise refuse with :class:`JobStartedError` and let it run.

        A broker decides to steal from a report that may be a minute
        old; this check against the live batch records is the
        authoritative one.
        """
        if not self._reclaimable(self.get_run(job_id)):
            raise JobStartedError(
                f"{self.usite_name}: job {job_id} has started; not reclaimed"
            )
        self.cancel(job_id)
        telemetry_for(self.sim).metrics.counter("njs.reclaimed_jobs").inc()

    def _reclaimable(self, run: Run | None) -> bool:
        """Supervised, not cancelled or held, and every batch job it
        submitted still queued."""
        return (
            isinstance(run, JobRun) and not run.cancelled and not run.held
            and bool(run.batch_jobs)
            and all(
                self.vsites[vsite_name].still_queued(local_id)
                for vsite_name, local_id in run.batch_jobs.values()
            )
        )

    def capacity(self) -> CapacityView:
        """The CAPACITY answer: per Vsite, what its batch records show an
        outsider and its published page; the jobs :meth:`reclaim` would
        still cancel; and the jobs that reached an end.  The site says
        what its load is; it takes no scheduling advice back."""
        self._check_up()
        return CapacityView(
            usite=self.usite_name,
            sent_at=self.sim.now,
            vsites=tuple(
                self.vsites[name].capacity(self.usite_name)
                for name in sorted(self.vsites)
            ),
            reclaimable=tuple(
                job_id for job_id in self.runs.active_ids()
                if self._reclaimable(self.runs.get(job_id))
            ),
            terminal=self.runs.terminal_ids(),
        )
