"""The federation broker service: the simulation half of late binding.

One :class:`FederationBroker` per grid.  It owns a network host (the
"broker hub"), linked to every Usite's primary gateway, and runs three
concerns on the simulation clock:

* **advertisement intake** — each NJS gets a route to the hub and a
  periodic :meth:`~repro.server.njs.adverts.BrokerAdverts.start`
  loop; reports fold into the matcher;
* **dispatch** — on a timer, :meth:`TaskQueueBroker.match` binds pending
  jobs and each binding's *dispatch factory* (a caller-supplied
  ``(usite, vsite) -> generator -> job_id``, typically closing over a
  JPA) consigns the job through the normal client protocol;
* **work stealing** — confirmed reclaimable jobs sitting in a
  backlogged queue are cancelled at their site (authoritative re-check
  there) and requeued when another feasible Vsite drains.

Counters: ``broker.matches``, ``broker.steals``, ``broker.rejections``;
``broker.queue_depth`` is observed as a histogram each dispatch tick.
Every dispatch and steal runs under a ``broker.*`` span.
"""

from __future__ import annotations

import typing

from repro.broker.advertise import AdvertiseCapacity, ReclaimAck, ReclaimJob
from repro.broker.errors import BrokerError
from repro.broker.fairshare import FairSharePolicy
from repro.broker.matcher import BrokerJob, BrokerJobState, TaskQueueBroker
from repro.errors import ReproError
from repro.net.errors import ConnectionLost
from repro.net.sim_transport import Message
from repro.observability import telemetry_for
from repro.resources.model import ResourceRequest
from repro.server.njs.peerlink import PeerLink
from repro.simkernel import EXPIRED

if typing.TYPE_CHECKING:
    from repro.grid.build import Grid

__all__ = ["FederationBroker", "attach_broker"]

#: The hub's host on the grid network.
HUB_HOST = "broker.hub"

#: WAN link from each gateway to the broker hub (same class of link as
#: gateway-to-gateway traffic).
HUB_LATENCY_S = 0.015
HUB_BANDWIDTH_BPS = 1_250_000.0


class FederationBroker:
    """Central task-queue broker for one grid."""

    #: A dispatch whose consignment fails this many times is FAILED.
    MAX_ATTEMPTS = 3
    ACK_TIMEOUT_S = 120.0

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
        self.grid = grid
        self.sim = grid.sim
        self.network = grid.network
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
        self.host = self.network.add_host(HUB_HOST)
        #: The hub's end of the NJS peer link: a route to every Usite's
        #: NJS (the reverse of its advertisement path), and the reclaim
        #: acks the hub is waiting for.
        self.link = PeerLink(self.sim, self.network, HUB_HOST)
        self._stealing: set[int] = set()

        for index, name in enumerate(sorted(grid.usites)):
            usite = grid.usites[name]
            self.network.link(
                HUB_HOST,
                usite.gateway_host.name,
                latency_s=HUB_LATENCY_S,
                bandwidth_Bps=HUB_BANDWIDTH_BPS,
            )
            up = [
                (a, b)
                for a, b in (
                    (usite.njs_host.name, usite.gateway_host.name),
                    (usite.gateway_host.name, HUB_HOST),
                )
                if a != b
            ]
            usite.njs.peers.register_broker(up)
            self.link.register(name, [(b, a) for a, b in reversed(up)])
            # Stagger sites so their reports do not synchronise.
            usite.njs.adverts.start(
                interval_s=advertise_interval_s,
                offset_s=index * advertise_interval_s / max(1, len(grid.usites)),
            )
        self.host.serve(self._receive)
        self.sim.process(self._dispatch_loop(), name="broker:dispatch")

    # -- submission ---------------------------------------------------------
    def submit(
        self,
        user_dn: str,
        name: str,
        request: ResourceRequest,
        software: tuple[tuple[str, str], ...] = (),
        dispatch=None,
        bind_timeout_s: float | None = None,
    ) -> BrokerJob:
        """Enqueue one late-bound job.

        ``dispatch(usite, vsite)`` must return a generator that consigns
        the job at the chosen destination and returns the NJS job id; it
        is invoked (possibly more than once, under stealing) inside the
        simulation.  Raises quota/capacity errors synchronously — a
        rejected job never enters the queue.

        The returned entry's ``bound`` event triggers at the first
        successful consignment (value: the job id), or with ``None`` if
        the job failed or timed out unbound.
        """
        if dispatch is None:
            raise TypeError("submit() requires a dispatch factory")
        job = self.matcher.enqueue(
            user_dn, name, request, software=tuple(software), now=self.sim.now
        )
        job.dispatch = dispatch
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
    def _receive(self, message: Message) -> None:
        payload = message.payload
        if isinstance(payload, AdvertiseCapacity):
            self.matcher.observe(payload, now=self.sim.now)
        elif isinstance(payload, ReclaimAck):
            self.link.resolve(payload)

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
        corr_id, waiter = self.link.expect("reclaim-ack")
        try:
            try:
                yield from self.link.send(
                    job.usite, ReclaimJob(corr_id=corr_id, job_id=job.job_id)
                )
            except ConnectionLost as err:
                self.tracer.end_span(span, error=err)
                return
            deadline = self.sim.deadline(waiter, self.ACK_TIMEOUT_S)
            ack = yield waiter
            deadline.cancel()
            if ack is EXPIRED:
                self.tracer.end_span(span.set(outcome="ack-timeout"))
                return
            if not typing.cast(ReclaimAck, ack).ok:
                # The job started in the meantime: leave it where it runs.
                self.tracer.end_span(span.set(outcome="refused"))
                return
            if job.state is BrokerJobState.DISPATCHED:
                self.matcher.mark_stolen(job)
            self.tracer.end_span(span.set(outcome="stolen"))
        finally:
            self.link.abandon(corr_id)
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
