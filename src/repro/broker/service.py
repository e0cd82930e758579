"""The federation broker service: the simulation half of late binding.

One :class:`FederationBroker` per grid.  It is a client of the sites, as
a user is: it holds a service identity of its own (one grid user with a
login at every Usite) and reaches each site only through its gateway's
protocol verbs.  It runs three concerns on the simulation clock:

* **capacity polls** — every ``advertise_interval_s``, staggered across
  sites, it asks each site for its
  :class:`~repro.protocol.views.CapacityView` (the CAPACITY verb) and
  folds the answer into the matcher; a poll that is refused (a crashed
  NJS) or lost leaves the last report in place until it ages out at
  ``staleness_s``;
* **dispatch** — on a timer, :meth:`TaskQueueBroker.match` binds pending
  jobs and each binding's *dispatch factory* (a caller-supplied
  ``(usite, vsite) -> generator -> job_id``, typically closing over a
  JPA) consigns the job through the normal client protocol;
* **work stealing** — a job reported reclaimable and sitting in a
  backlogged queue is reclaimed through its *reclaim factory*
  (``(usite, job_id) -> generator``: a RECLAIM control sent through the
  owner's session, which the NJS refuses once anything has started) and
  requeued for a drained Vsite.

Counters: ``broker.matches``, ``broker.steals``, ``broker.rejections``;
``broker.queue_depth`` is observed as a histogram each dispatch tick.
Every dispatch and steal runs under a ``broker.*`` span.
"""

from __future__ import annotations

import typing

from repro import asn1
from repro.ajo.errors import SerializationError
from repro.broker.errors import BrokerError
from repro.broker.fairshare import FairSharePolicy
from repro.broker.matcher import BrokerJob, BrokerJobState, TaskQueueBroker
from repro.errors import ReproError
from repro.observability import telemetry_for
from repro.protocol.messages import Request, RequestKind
from repro.protocol.views import CapacityView
from repro.resources.model import ResourceRequest

if typing.TYPE_CHECKING:
    from repro.client.browser import UnicoreSession
    from repro.grid.build import Grid

__all__ = ["FederationBroker", "attach_broker"]

#: The broker's service identity: its certificate's name, and the login
#: every Usite maps it to.
BROKER_CN = "Federation Broker"
BROKER_LOGIN = "broker"


class FederationBroker:
    """Central task-queue broker for one grid."""

    #: A dispatch whose consignment fails this many times is FAILED.
    MAX_ATTEMPTS = 3

    def __init__(
        self,
        grid: "Grid",
        policy: FairSharePolicy | None = None,
        staleness_s: float = 300.0,
        advertise_interval_s: float = 60.0,
        dispatch_interval_s: float = 30.0,
        max_queued_per_vsite: int = 4,
        min_steal_wait_s: float = 600.0,
    ) -> None:
        """``advertise_interval_s`` is how often each site is polled."""
        self.grid = grid
        self.sim = grid.sim
        telemetry = telemetry_for(self.sim)
        self.metrics = telemetry.metrics
        self.tracer = telemetry.tracer
        self.matcher = TaskQueueBroker(
            policy=policy,
            staleness_s=staleness_s,
            max_queued_per_vsite=max_queued_per_vsite,
            min_steal_wait_s=min_steal_wait_s,
            metrics=self.metrics,
        )
        self.dispatch_interval_s = dispatch_interval_s
        self.poll_interval_s = advertise_interval_s
        # A grid thawed from a snapshot has the identity and its mappings.
        self.identity = grid.users.get(BROKER_CN) or grid.add_user(
            BROKER_CN, logins={name: BROKER_LOGIN for name in grid.usites}
        )
        self._stealing: set[int] = set()

        for index, name in enumerate(sorted(grid.usites)):
            # Stagger sites so their polls do not synchronise.
            offset_s = index * advertise_interval_s / max(1, len(grid.usites))
            self.sim.process(
                self._poll_loop(name, offset_s), name=f"broker-poll:{name}"
            )
        self.sim.process(self._dispatch_loop(), name="broker:dispatch")

    # -- submission ---------------------------------------------------------
    def submit(
        self,
        user_dn: str,
        name: str,
        request: ResourceRequest,
        software: tuple[tuple[str, str], ...] = (),
        dispatch=None,
        reclaim=None,
        bind_timeout_s: float | None = None,
    ) -> BrokerJob:
        """Enqueue one late-bound job.

        ``dispatch(usite, vsite)`` must return a generator that consigns
        the job at the chosen destination and returns the NJS job id; it
        is invoked (possibly more than once, under stealing) inside the
        simulation.  ``reclaim(usite, job_id)`` must return a generator
        that sends a RECLAIM for the job through its owner's session
        there, raising the NJS's refusal.  Raises quota/capacity errors
        synchronously — a rejected job never enters the queue.

        The returned entry's ``bound`` event triggers at the first
        successful consignment (value: the job id), or with ``None`` if
        the job failed or timed out unbound.
        """
        if dispatch is None or reclaim is None:
            raise TypeError("submit() requires dispatch and reclaim factories")
        job = self.matcher.enqueue(
            user_dn, name, request, software=tuple(software), now=self.sim.now
        )
        job.dispatch = dispatch
        job.reclaim = reclaim
        job.bound = self.sim.event(name=f"broker-bound:{job.seq}")
        if bind_timeout_s is not None:
            self.sim.schedule_callback(
                bind_timeout_s, self._bind_timed_out, job, bind_timeout_s
            )
        return job

    def _bind_timed_out(self, job: BrokerJob, timeout_s: float) -> None:
        if not job.bound.triggered:
            if job.state is BrokerJobState.PENDING:
                self.matcher.withdraw(
                    job, error=f"not bound within {timeout_s:.0f}s"
                )
            if not job.bound.triggered:
                job.bound.succeed(None)

    def drain(self, jobs: list[BrokerJob], poll_s: float = 60.0):
        """Generator: wait until every entry reaches a terminal state."""
        while any(not j.state.is_terminal for j in jobs):
            yield self.sim.timeout(poll_s)

    # -- simulation loops ---------------------------------------------------
    def _poll_loop(self, usite: str, offset_s: float):
        """Ask ``usite`` for its capacity report every poll interval."""
        if offset_s:
            yield self.sim.timeout(offset_s)
        session: UnicoreSession | None = None
        while True:
            try:
                if session is None:
                    session = yield from self.grid.connect_plan(
                        self.identity, usite
                    )
                report = yield from _ask_capacity(session)
            except ReproError:
                pass  # refused or lost: the last report stands until it ages out
            else:
                self.matcher.observe(report, now=self.sim.now)
            yield self.sim.timeout(self.poll_interval_s)

    def _dispatch_loop(self):
        while True:
            yield self.sim.timeout(self.dispatch_interval_s)
            self.metrics.histogram("broker.queue_depth").observe(
                float(self.matcher.queue_depth)
            )
            for job in self.matcher.match(self.sim.now):
                self.sim.process(
                    self._dispatch(job), name=f"broker-dispatch:{job.seq}"
                )
            for job, to_usite, to_vsite in self.matcher.steal_candidates(
                self.sim.now
            ):
                if job.seq in self._stealing:
                    continue
                self._stealing.add(job.seq)
                self.sim.process(
                    self._steal(job, to_usite, to_vsite),
                    name=f"broker-steal:{job.seq}",
                )

    def _dispatch(self, job: BrokerJob):
        span = self.tracer.start_span(
            "broker.dispatch",
            self.tracer.new_trace(f"broker:{job.name}"),
            tier="server",
            job=job.name,
            user=job.user_dn,
            usite=job.usite,
            vsite=job.vsite,
            attempt=job.attempts,
        )
        try:
            job_id = yield from job.dispatch(job.usite, job.vsite)
        except ReproError as err:
            self.tracer.end_span(span, error=err)
            requeue = (
                job.attempts < self.MAX_ATTEMPTS
                and job.state is BrokerJobState.DISPATCHED
            )
            self.matcher.release(job, requeue=requeue, error=str(err))
            if job.state is BrokerJobState.FAILED and not job.bound.triggered:
                job.bound.succeed(None)
            return
        self.matcher.bind(job, job_id)
        if not job.bound.triggered:
            job.bound.succeed(job_id)
        self.tracer.end_span(span.set(job_id=job_id))

    def _steal(self, job: BrokerJob, to_usite: str, to_vsite: str):
        span = self.tracer.start_span(
            "broker.steal",
            self.tracer.new_trace(f"steal:{job.name}"),
            tier="server",
            job_id=job.job_id,
            from_vsite=job.vsite,
            to_vsite=to_vsite,
        )
        try:
            yield from job.reclaim(job.usite, job.job_id)
        except ReproError as err:
            # It started in the meantime (the NJS's check is the
            # authoritative one), or the request was lost: it stays.
            self.tracer.end_span(span, error=err)
        else:
            if job.state is BrokerJobState.DISPATCHED:
                self.matcher.mark_stolen(job)
            self.tracer.end_span(span.set(outcome="stolen"))
        finally:
            self._stealing.discard(job.seq)

    # -- introspection ------------------------------------------------------
    def counters(self) -> dict[str, int]:
        return {
            name: int(self.metrics.counter_value(f"broker.{name}"))
            for name in ("matches", "steals", "rejections")
        }


def attach_broker(grid: "Grid", **kw) -> FederationBroker:
    """Create a :class:`FederationBroker` for ``grid`` and remember it as
    ``grid.broker`` (the :meth:`GridSession.submit(..., broker=True)
    <repro.api.GridSession.submit>` path looks it up there)."""
    if getattr(grid, "broker", None) is not None:
        raise BrokerError("grid already has a federation broker attached")
    broker = FederationBroker(grid, **kw)
    grid.broker = broker
    return broker


def _ask_capacity(session: "UnicoreSession"):
    """One CAPACITY interaction: the site's report, or its refusal raised."""
    reply = yield from session.client.interact(Request(
        kind=RequestKind.CAPACITY, user_dn=session.user_dn, payload=b""
    ))
    return CapacityView.from_value(asn1.decode(reply.unwrap(), SerializationError))
