"""The session core: the verb table of :mod:`repro.api`.

Every facade verb — submit with broker failover, subscription wait with
steal-following, bulk fetch, the lot — is implemented here exactly once,
as a *plan* (a simkernel generator that yields the events it waits on),
and spelled here exactly once, as that plan handed to the facade's
:meth:`SessionCore._drive`.

The resilience mechanisms of :mod:`repro.faults` live in these plans:

* a :class:`~repro.faults.breaker.CircuitBreaker` guards the protocol
  client, so a dead gateway fails fast instead of burning retry budget;
* a consign that times out is re-targeted through the section-6
  :class:`~repro.broker.placement.ResourceBroker` to the next-best Vsite
  (possibly at another Usite — the session reconnects transparently);
* ``status`` serves the last known view marked ``stale`` when the
  gateway is unreachable (graceful degradation, never a blank screen);
* ``wait`` rides out gateway/NJS crash windows that outlast the
  protocol retry policy.

Everything here is sugar over the applet classes — the generators in
:mod:`repro.client` remain the primitive API for multi-user workloads
that interleave inside one simulation.
"""

from __future__ import annotations

import typing
from dataclasses import dataclass

from repro.broker.errors import BrokerError, NoCapacityError
from repro.broker.placement import ResourceBroker
from repro.client.jmc import JobMonitorController
from repro.client.jpa import JobBuilder, JobPreparationAgent
from repro.faults.breaker import CircuitBreaker
from repro.faults.errors import CircuitOpenError, ServiceUnavailable
from repro.net.errors import ConnectionLost, TransportMismatch
from repro.net.transport import TransportSpec
from repro.observability import telemetry_for
from repro.protocol.retry import RetryExhausted
from repro.protocol.views import JobListing, JobStatusView
from repro.resources.model import ResourceRequest
from repro.errors import ReproError

if typing.TYPE_CHECKING:
    from repro.broker.matcher import BrokerJob
    from repro.client.browser import UnicoreSession
    from repro.grid.build import Grid, GridUser

__all__ = ["JobHandle", "SessionCore"]

#: Errors that mean "the road to the Usite is out" (or its NJS is), not
#: "the job is bad" — the ones worth retrying elsewhere.
_TRANSPORT_ERRORS = (
    RetryExhausted, CircuitOpenError, ConnectionLost, ServiceUnavailable,
)

#: One per-Usite client tier: authenticated session, JPA, JMC.
_Tier = tuple["UnicoreSession", JobPreparationAgent, JobMonitorController]


@dataclass(frozen=True, slots=True)
class JobHandle:
    """An opaque reference to one consigned job.

    Carries the Usite the job actually landed on — after a broker
    failover that may differ from the session's home site, and every
    facade verb routes through the right gateway because of it.
    """

    job_id: str
    name: str
    usite: str
    vsite: str
    #: Trace of the whole submit->outcome pipeline (see observability).
    trace_id: str = ""
    #: True when the consign was re-targeted by the broker after the
    #: primary Vsite timed out.
    failed_over: bool = False

    def __str__(self) -> str:  # handles read naturally in logs
        return self.job_id


class SessionCore:
    """State, plan generators and verbs for one user's grid session.

    Not a public entry point: instantiate
    :class:`~repro.api.sync.GridSession` or
    :class:`~repro.api.aio.AsyncGridSession` instead.  The ``*_plan``
    methods return simkernel generators; a facade drives
    :meth:`setup_plan` once after construction, then each verb drives
    its plan.  A verb's return annotation is what the blocking facade
    returns.  A job is named by its :class:`JobHandle`, the
    :class:`~repro.api.aio.AsyncJobHandle` around one, or its bare id.
    """

    #: How many broker-ranked alternates to try after a consign timeout.
    FAILOVER_CANDIDATES = 3
    #: ``wait`` tolerance for outages longer than the retry policy:
    #: how many times to re-enter the wait, and the pause between
    #: attempts (comfortably past the breaker cooldown).
    WAIT_OUTAGE_RETRIES = 8
    WAIT_RETRY_DELAY_S = 120.0
    #: Brokered submissions unbound after this long raise NoCapacityError.
    BROKER_BIND_TIMEOUT_S = 48 * 3600.0
    #: How far to advance the clock while a stolen job awaits rebinding.
    BROKER_REBIND_WAIT_S = 30.0
    #: How many rebind-waits to grant a "killed" answer on a live broker
    #: entry before believing it (a steal's kill is visible to a
    #: subscription wait before the reclaim ack unbinds the entry).
    STEAL_GRACE_ROUNDS = 10

    def __init__(
        self,
        grid: "Grid",
        user: "GridUser | str",
        usite: str,
        breaker: CircuitBreaker | None = None,
        failover: bool = True,
    ) -> None:
        self.grid = grid
        self.user = grid.users[user] if isinstance(user, str) else user
        self.usite = usite
        self.failover_enabled = failover
        self.sim = grid.sim
        self.breaker = breaker
        self._telemetry = telemetry_for(grid.sim)
        #: Usite name -> (UnicoreSession, JPA, JMC); the home site is
        #: connected by :meth:`setup_plan`, failover sites lazily.
        self._tiers: dict[str, _Tier] = {}
        #: Connects in flight (one per Usite), so concurrent plans on an
        #: async facade share a handshake instead of racing two.
        self._tier_waits: dict[str, object] = {}
        #: Original job id -> live broker entry, for late-bound jobs:
        #: after a steal the entry names the job's *current* id and site.
        self._brokered: dict[str, "BrokerJob"] = {}

    @property
    def session(self) -> "UnicoreSession":
        """The underlying authenticated session with the home Usite."""
        return self._tiers[self.usite][0]

    # -- plumbing ------------------------------------------------------------
    @staticmethod
    def _expect_transport(
        grid: "Grid", transport: "TransportSpec | str | None"
    ) -> None:
        """``connect(transport=...)`` names the backend the caller wrote
        their workload against; one that differs from what the grid was
        built with raises :class:`~repro.net.errors.TransportMismatch`
        rather than silently running on the wrong fabric."""
        if transport is None:
            return
        spec = TransportSpec.parse(transport)
        if spec.kind != grid.network.kind:
            raise TransportMismatch(
                f"session requested the {spec.kind!r} transport but the "
                f"grid was built with {grid.network.kind!r}; pass "
                f"transport={spec.kind!r} to build_grid"
            )

    def _drive(self, gen: typing.Generator, name: str) -> typing.Any:
        """Run one plan as the process ``api:<name>:<user>``: to its
        result (blocking facade) or to an awaitable of it (asyncio)."""
        raise NotImplementedError

    def _process(self, gen: typing.Generator, name: str):
        return self.sim.process(gen, name=f"api:{name}:{self.user.name}")

    def _jmc(self, handle: "JobHandle | str", call, name: str, *args, **kw):
        """Drive one JMC ``call`` (an unbound method) at the job's current site."""
        def plan():
            jmc, job_id = yield from self._target_plan(handle)
            result = yield from call(jmc, job_id, *args, **kw)
            return result

        return self._drive(plan(), name)

    def setup_plan(self) -> typing.Generator:
        """Connect the home tier and arm the circuit breaker (run once)."""
        session, _, _ = yield from self._connect_plan(self.usite)
        if self.breaker is None:
            self.breaker = CircuitBreaker(
                self.sim, name=f"{self.user.name}@{self.usite}"
            )
        session.client.breaker = self.breaker
        return self

    def _connect_plan(self, usite: str) -> typing.Generator:
        """Yield the (session, JPA, JMC) tier for ``usite``, connecting once."""
        while True:
            tier = self._tiers.get(usite)
            if tier is not None:
                return tier
            pending = self._tier_waits.get(usite)
            if pending is None:
                break
            yield pending  # another plan is mid-handshake; share its result
        done = self.sim.event(name=f"tier:{usite}")
        self._tier_waits[usite] = done
        try:
            session = yield from self.grid.connect_plan(self.user, usite)
            tier = (
                session,
                JobPreparationAgent(session),
                JobMonitorController(session),
            )
            self._tiers[usite] = tier
        finally:
            del self._tier_waits[usite]
            done.succeed()  # waiters re-check _tiers (and retry on failure)
        return tier

    # A handle is read by its fields (an AsyncJobHandle forwards its
    # JobHandle's), a bare id has none: nothing is unwrapped.
    @staticmethod
    def _job_id(handle: "JobHandle | str") -> str:
        return getattr(handle, "job_id", handle)

    def _resolve(self, handle: "JobHandle | str") -> tuple[str, str]:
        """The job's *current* (job_id, usite) — work stealing moves a
        late-bound job, and every verb must follow it."""
        job_id = self._job_id(handle)
        usite = getattr(handle, "usite", self.usite)
        entry = self._brokered.get(job_id)
        if entry is not None and entry.job_id and entry.job_id != job_id:
            return entry.job_id, entry.usite
        return job_id, usite

    def _target_plan(self, handle: "JobHandle | str") -> typing.Generator:
        job_id, usite = self._resolve(handle)
        tier = yield from self._connect_plan(usite)
        return tier[2], job_id

    # -- the verbs, each once: drive its plan under its process name ----------
    def new_job(
        self,
        name: str,
        vsite: str | None = None,
        usite: str | None = None,
        account_group: str = "",
    ) -> JobBuilder:
        """A builder bound for ``vsite``; see :meth:`new_job_plan`."""
        return self._drive(
            self.new_job_plan(name, vsite, usite, account_group),
            f"new_job:{name}",
        )

    def submit(
        self, job: JobBuilder, workstation=None, broker: bool = False
    ) -> JobHandle:
        """Consign ``job``; see :meth:`submit_plan`."""
        return self._drive(
            self.submit_plan(job, workstation, broker), f"submit:{job.ajo.name}"
        )

    def status(
        self, handle: "JobHandle | str", allow_stale: bool = True
    ) -> JobStatusView:
        """The job's status tree; a cached view marked stale during outages."""
        return self._drive(self.status_plan(handle, allow_stale), "status")

    def wait(
        self, handle: "JobHandle | str", max_polls: int = 10_000
    ) -> JobStatusView:
        """Wait until the job is terminal; see :meth:`wait_plan`."""
        return self._drive(self.wait_plan(handle, max_polls), "wait")

    def outcome(self, handle: "JobHandle | str"):
        """The full Outcome tree (stdout/stderr included) of a finished job."""
        return self._jmc(handle, JobMonitorController.outcome, "outcome")

    def cancel(self, handle: "JobHandle | str") -> dict:
        """Abort the job wherever its parts currently are."""
        return self._jmc(handle, JobMonitorController.cancel, "cancel")

    def hold(self, handle: "JobHandle | str") -> dict:
        return self._jmc(handle, JobMonitorController.hold, "hold")

    def resume(self, handle: "JobHandle | str") -> dict:
        return self._jmc(handle, JobMonitorController.resume, "resume")

    def list_jobs(self, usite: str | None = None) -> list[JobListing]:
        """The user's jobs at one Usite (default: the home site)."""
        return self._drive(self.list_jobs_plan(usite), "list")

    def fetch_file(
        self, handle: "JobHandle | str", path: str, save_as: str | None = None
    ) -> bytes:
        """Bring one Uspace file back to the user's workstation."""
        return self._jmc(
            handle, JobMonitorController.fetch_file, "fetch", path,
            workstation=self.user.workstation, save_as=save_as,
        )

    def dispose(self, handle: "JobHandle | str") -> dict:
        return self._jmc(handle, JobMonitorController.dispose, "dispose")

    # -- authoring -----------------------------------------------------------
    def new_job_plan(
        self,
        name: str,
        vsite: str | None = None,
        usite: str | None = None,
        account_group: str = "",
    ) -> typing.Generator:
        """A builder bound for ``vsite`` (default: the home Usite's first).

        Naming another ``usite`` authors the job against that site's
        gateway instead; the submit plan routes it there automatically.
        """
        usite = usite or self.usite
        if vsite is None:
            vsite = next(iter(self.grid.usites[usite].vsites))
        tier = yield from self._connect_plan(usite)
        return tier[1].new_job(name, vsite=vsite, account_group=account_group)

    # -- the plans -----------------------------------------------------------
    def submit_plan(
        self, job: JobBuilder, workstation=None, broker: bool = False
    ) -> typing.Generator:
        """Consign ``job``; on timeout, fail over via the resource broker.

        Returns a :class:`JobHandle` naming the site that accepted the
        job.  Validation failures raise immediately (another Vsite would
        reject the same job); only transport-level failures — retry
        budget exhausted, circuit open, connection lost — trigger the
        broker.

        With ``broker=True`` the job is *late-bound* instead: it enters
        the grid's :class:`~repro.broker.service.FederationBroker` task
        queue without a destination, and the broker binds it to a Vsite
        (anywhere in the federation) at dispatch time from live capacity
        advertisements, under fair-share quotas.  Over-quota submissions
        raise :class:`~repro.broker.errors.BrokerQuotaError` immediately.
        """
        if broker:
            handle = yield from self._submit_brokered_plan(job, workstation)
            return handle
        workstation = workstation or self.user.workstation
        ajo = job.ajo
        home_vsite, home_usite = ajo.vsite, ajo.usite
        tier = yield from self._connect_plan(ajo.usite)
        try:
            job_id = yield from tier[1].submit(job, workstation=workstation)
            return self._handle_for(job_id, ajo, failed_over=False)
        except _TRANSPORT_ERRORS as primary_err:
            if not self.failover_enabled:
                raise
            handle = yield from self._submit_failover_plan(
                job, workstation, primary_err
            )
            if handle is None:
                ajo.vsite, ajo.usite = home_vsite, home_usite
                raise
            return handle

    def _submit_brokered_plan(
        self, job: JobBuilder, workstation
    ) -> typing.Generator:
        """The late-binding path: enqueue, then wait until first bound.

        The dispatch factory re-targets the root group to whatever
        destination the broker picks and consigns through this session's
        per-site tiers; those are connected eagerly here because the
        factory runs *inside* the simulation, past the point where a
        handshake could still be interleaved.
        """
        federation = getattr(self.grid, "broker", None)
        if federation is None:
            raise BrokerError(
                "no federation broker attached to this grid; call "
                "repro.broker.attach_broker(grid) first"
            )
        workstation = workstation or self.user.workstation
        ajo = job.ajo
        for usite in self.grid.usites:
            yield from self._connect_plan(usite)

        def dispatch(usite: str, vsite: str):
            ajo.vsite, ajo.usite = vsite, usite
            return self._tiers[usite][1].submit(job, workstation=workstation)

        entry = federation.submit(
            self.session.user_dn,
            ajo.name,
            self._aggregate_request(ajo),
            software=tuple(self._required_software(ajo)),
            dispatch=dispatch,
            bind_timeout_s=self.BROKER_BIND_TIMEOUT_S,
        )
        yield entry.bound
        if not entry.job_id:
            raise NoCapacityError(
                f"broker could not place job {ajo.name!r}: "
                f"{entry.error or 'bind timeout'}"
            )
        handle = self._handle_for(entry.job_id, ajo, failed_over=False)
        self._brokered[handle.job_id] = entry
        return handle

    def _handle_for(self, job_id: str, ajo, failed_over: bool) -> JobHandle:
        tracer = self._telemetry.tracer
        return JobHandle(
            job_id=job_id,
            name=ajo.name,
            usite=ajo.usite,
            vsite=ajo.vsite,
            trace_id=tracer.trace_id_for_job(job_id) or "",
            failed_over=failed_over,
        )

    def _submit_failover_plan(
        self, job: JobBuilder, workstation, primary_err: Exception
    ) -> typing.Generator:
        """Re-target the AJO to broker-ranked alternates, best first."""
        ajo = job.ajo
        failed_vsite = ajo.vsite
        broker = ResourceBroker.for_grid(self.grid)
        ranked = [
            cand
            for cand in broker.candidates(
                self._aggregate_request(ajo), self._required_software(ajo)
            )
            if cand.vsite != failed_vsite
        ][: self.FAILOVER_CANDIDATES]
        metrics = self._telemetry.metrics
        tracer = self._telemetry.tracer
        for cand in ranked:
            metrics.counter("api.failover_attempts").inc()
            span = tracer.start_span(
                "session.failover",
                tracer.new_trace("failover"),
                tier="user",
                job=ajo.name,
                from_vsite=failed_vsite,
                to_vsite=cand.vsite,
                cause=type(primary_err).__name__,
            )
            ajo.vsite, ajo.usite = cand.vsite, cand.usite
            try:
                tier = yield from self._connect_plan(cand.usite)
                job_id = yield from tier[1].submit(job, workstation=workstation)
            except ReproError as err:
                # This alternate is down or refuses the user; try the next.
                tracer.end_span(span, error=err)
                continue
            tracer.end_span(span.set(job_id=job_id))
            metrics.counter("api.failovers").inc()
            return self._handle_for(job_id, ajo, failed_over=True)
        return None

    @staticmethod
    def _aggregate_request(ajo) -> ResourceRequest:
        """The job's peak demands, for broker feasibility ranking."""
        cpus, time_s, memory = 1, 0.0, 0.0
        for node in ajo.walk():
            res = getattr(node, "resources", None)
            if isinstance(res, ResourceRequest):
                cpus = max(cpus, res.cpus)
                time_s = max(time_s, res.time_s)
                memory = max(memory, res.memory_mb)
        return ResourceRequest(cpus=cpus, time_s=time_s or 3600.0,
                               memory_mb=memory or 64.0)

    @staticmethod
    def _required_software(ajo) -> list[tuple[str, str]]:
        seen: list[tuple[str, str]] = []
        for node in ajo.walk():
            req = getattr(node, "required_software", None)
            if callable(req):
                for item in req():
                    if item not in seen:
                        seen.append(item)
        return seen

    def status_plan(
        self, handle: "JobHandle | str", allow_stale: bool = True
    ) -> typing.Generator:
        """The job's status tree; a cached view marked stale during outages."""
        jmc, job_id = yield from self._target_plan(handle)
        tree = yield from jmc.status(job_id, allow_stale=allow_stale)
        return JobStatusView.from_dict(tree)

    def wait_plan(
        self, handle: "JobHandle | str", max_polls: int = 10_000
    ) -> typing.Generator:
        """Wait until the job is terminal, riding out crash windows.

        Holds a completion-event subscription open at the gateway
        (renewed in long holds) instead of polling; exhausting
        ``max_polls`` renewals raises :class:`~repro.errors.WaitTimeout`
        (code ``api.wait_timeout``).

        A late-bound job may be *stolen* to another Vsite mid-wait (its
        original batch entry killed, a new consignment elsewhere); the
        loop follows the broker entry to wherever the job currently is.
        A subscription wait observes the steal's kill *instantly* —
        before the reclaim ack reaches the broker hub — so a "killed"
        answer for a live broker entry gets a short grace window for the
        entry to unbind and move before it is believed.
        """
        steal_grace = self.STEAL_GRACE_ROUNDS
        entry = self._brokered.get(self._job_id(handle))

        def live() -> bool:  # late-bound, and the broker may still move it
            return entry is not None and not entry.state.is_terminal

        while True:
            if live() and not entry.job_id:
                # Stolen, not yet rebound: let the dispatch tick run.
                yield self.sim.timeout(self.BROKER_REBIND_WAIT_S)
                continue
            jmc, job_id = yield from self._target_plan(handle)
            tree = yield from self._wait_gen(jmc, job_id, max_polls)
            new_id, _ = self._resolve(handle)
            if new_id != job_id:
                steal_grace = self.STEAL_GRACE_ROUNDS
                continue  # moved while we were polling the old site
            if live() and not entry.job_id:
                continue
            if tree.get("status") == "killed" and live() and steal_grace > 0:
                steal_grace -= 1
                yield self.sim.timeout(self.BROKER_REBIND_WAIT_S)
                continue
            return JobStatusView.from_dict(tree)

    def _wait_gen(
        self, jmc: JobMonitorController, job_id: str, max_polls: int
    ) -> typing.Generator:
        for attempt in range(self.WAIT_OUTAGE_RETRIES + 1):
            try:
                result = yield from jmc.wait_for_completion(job_id, max_polls)
                return result
            except _TRANSPORT_ERRORS:
                if attempt >= self.WAIT_OUTAGE_RETRIES:
                    raise
                self._telemetry.metrics.counter("api.wait_retries").inc()
                yield self.sim.timeout(self.WAIT_RETRY_DELAY_S)

    def list_jobs_plan(self, usite: str | None = None) -> typing.Generator:
        """The user's jobs at one Usite (default: the home site)."""
        tier = yield from self._connect_plan(usite or self.usite)
        rows = yield from tier[2].list_jobs()
        return [JobListing.from_dict(row) for row in rows]

    def sleep_plan(self, seconds: float) -> typing.Generator:
        """Let simulated time pass (jobs run; nothing blocks on it)."""
        yield self.sim.timeout(seconds)

    @staticmethod
    def render(view: JobStatusView) -> str:
        """The JMC's colored status tree, from a typed view."""
        return JobMonitorController.render_tree(view.to_dict())
