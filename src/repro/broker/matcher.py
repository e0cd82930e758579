"""The late-binding task queue: submitted-but-unbound jobs and matching.

DIRAC-style layering: submissions land in a central queue *without* a
destination; binding to a Vsite happens at dispatch time against the
freshest capacity advertisements.  The matcher is deliberately pure —
no clock, no network, no randomness — so matching is deterministic
(stable sorts over stable sequence numbers) and directly property-
testable.  The :class:`~repro.broker.service.FederationBroker` owns the
simulation side: timers, advertisement transport, and consignment.

Feasibility reuses the exact check the analysis tier applies at consign
time (:func:`repro.resources.check.check_request` against the advertised
page), so the broker never binds a job a Vsite would reject.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from itertools import count

from repro.broker.advertise import AdvertiseCapacity, CapacityAdvertisement
from repro.broker.errors import BrokerQuotaError, NoCapacityError
from repro.broker.fairshare import FairSharePolicy
from repro.observability import MetricsRegistry
from repro.resources.check import check_request
from repro.resources.model import ResourceRequest

__all__ = ["BrokerJob", "BrokerJobState", "TaskQueueBroker"]


class BrokerJobState(enum.Enum):
    PENDING = "pending"
    DISPATCHED = "dispatched"
    DONE = "done"
    FAILED = "failed"

    @property
    def is_terminal(self) -> bool:
        return self in (BrokerJobState.DONE, BrokerJobState.FAILED)


@dataclass
class BrokerJob:
    """One queue entry: an abstract job awaiting (re)binding."""

    seq: int
    user_dn: str
    name: str
    request: ResourceRequest
    software: tuple[tuple[str, str], ...] = ()
    enqueued_at: float = 0.0
    state: BrokerJobState = BrokerJobState.PENDING
    #: Where the job is currently bound (empty while PENDING).
    usite: str = ""
    vsite: str = ""
    #: NJS job id after a successful consignment.
    job_id: str = ""
    #: Vsites this entry must not be bound to again (failed dispatches,
    #: stolen-from queues).
    excluded: tuple[str, ...] = ()
    attempts: int = 0
    steals: int = 0
    bound_at: float = 0.0
    done_at: float = 0.0
    error: str = ""
    #: Service-layer attachments (bind event, dispatch factory); the
    #: matcher never touches these.
    bound: object = None
    dispatch: object = None
    #: Extra per-entry metadata for callers (e.g. benchmark user index).
    meta: dict = field(default_factory=dict)


class TaskQueueBroker:
    """Holds unbound jobs; matches them to advertised capacity.

    Parameters
    ----------
    policy:
        Fair-share quota source (defaults to the stock policy).
    staleness_s:
        Advertisements older than this are ignored — a silent NJS must
        not keep attracting work.
    max_queued_per_vsite:
        Dispatch backpressure: a Vsite whose advertised queue depth
        (plus bindings made since that advertisement) reaches this is
        closed until a fresher advertisement reopens it.  This is what
        keeps jobs *in the broker queue* — late binding — instead of
        pushing everything into remote batch queues immediately.
    min_steal_wait_s:
        Only steal from a queue whose estimated wait exceeds this.
    """

    def __init__(
        self,
        policy: FairSharePolicy | None = None,
        staleness_s: float = 300.0,
        max_queued_per_vsite: int = 4,
        min_steal_wait_s: float = 600.0,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.policy = policy or FairSharePolicy()
        self.staleness_s = staleness_s
        self.max_queued_per_vsite = max_queued_per_vsite
        self.min_steal_wait_s = min_steal_wait_s
        self.metrics = metrics
        self._seq = count(1)
        self._pending: list[BrokerJob] = []
        self._dispatched: dict[int, BrokerJob] = {}
        self._done: list[BrokerJob] = []
        self._ads: dict[str, CapacityAdvertisement] = {}
        #: Per-Usite job ids the NJS reported as still-queued (stealable).
        self._reclaimable: dict[str, frozenset[str]] = {}
        #: Per-Vsite [jobs, cpu_s] bound since its last advertisement.
        self._overlay: dict[str, list[float]] = {}
        #: Lifetime submissions per user (for total quotas).
        self._submitted: dict[str, int] = {}

    # -- observability ------------------------------------------------------
    def _count(self, name: str, amount: int = 1) -> None:
        if self.metrics is not None:
            self.metrics.counter(name).inc(amount)

    @property
    def queue_depth(self) -> int:
        return len(self._pending)

    @property
    def pending(self) -> tuple[BrokerJob, ...]:
        return tuple(self._pending)

    @property
    def dispatched(self) -> tuple[BrokerJob, ...]:
        return tuple(self._dispatched.values())

    @property
    def completed(self) -> tuple[BrokerJob, ...]:
        return tuple(self._done)

    # -- advertisement intake ----------------------------------------------
    def observe(self, message: AdvertiseCapacity, now: float) -> None:
        """Fold one NJS advertisement into the broker's world view."""
        for ad in message.vsites:
            self._ads[ad.vsite] = ad
            # Fresh truth from the site supersedes the dispatch overlay.
            self._overlay[ad.vsite] = [0, 0.0]
        self._reclaimable[message.usite] = frozenset(message.reclaimable)
        terminal = set(message.terminal)
        for job in list(self._dispatched.values()):
            if job.usite == message.usite and job.job_id in terminal:
                job.state = BrokerJobState.DONE
                job.done_at = now
                del self._dispatched[job.seq]
                self._done.append(job)

    def fresh_ads(self, now: float) -> dict[str, CapacityAdvertisement]:
        return {
            vsite: ad
            for vsite, ad in self._ads.items()
            if now - ad.sent_at <= self.staleness_s
        }

    # -- submission ---------------------------------------------------------
    def active_jobs(self, user_dn: str) -> int:
        return sum(1 for j in self._pending if j.user_dn == user_dn) + sum(
            1 for j in self._dispatched.values() if j.user_dn == user_dn
        )

    def enqueue(
        self,
        user_dn: str,
        name: str,
        request: ResourceRequest,
        software: tuple[tuple[str, str], ...] = (),
        now: float = 0.0,
    ) -> BrokerJob:
        """Admit one job to the queue, or reject it cleanly.

        Raises :class:`BrokerQuotaError` when the user is over their
        concurrency cap or total quota, :class:`NoCapacityError` when
        advertisements exist and none could ever fit the request.
        """
        active = self.active_jobs(user_dn)
        cap = self.policy.active_cap(user_dn)
        if active >= cap:
            self._count("broker.rejections")
            raise BrokerQuotaError(
                f"user {user_dn!r} already has {active} active brokered "
                f"jobs (concurrency cap {cap})"
            )
        total_cap = self.policy.total_cap(user_dn)
        if total_cap is not None and self._submitted.get(user_dn, 0) >= total_cap:
            self._count("broker.rejections")
            raise BrokerQuotaError(
                f"user {user_dn!r} reached the total submission quota "
                f"({total_cap})"
            )
        if self._ads and not any(
            self._feasible(ad, request, software) for ad in self._ads.values()
        ):
            self._count("broker.rejections")
            raise NoCapacityError(
                f"no advertised Vsite satisfies the request "
                f"(cpus={request.cpus}, software={list(software)})"
            )
        job = BrokerJob(
            seq=next(self._seq),
            user_dn=user_dn,
            name=name,
            request=request,
            software=tuple(software),
            enqueued_at=now,
        )
        self._pending.append(job)
        self._submitted[user_dn] = self._submitted.get(user_dn, 0) + 1
        return job

    def withdraw(self, job: BrokerJob, error: str = "withdrawn") -> None:
        """Remove a still-pending entry (bind timeout, user abort)."""
        if job in self._pending:
            self._pending.remove(job)
            job.state = BrokerJobState.FAILED
            job.error = error
            self._done.append(job)

    # -- matching -----------------------------------------------------------
    @staticmethod
    def _feasible(
        ad: CapacityAdvertisement,
        request: ResourceRequest,
        software: tuple[tuple[str, str], ...],
    ) -> bool:
        return check_request(ad.page, request, list(software)).ok

    def _wait_estimate(self, vsite: str) -> float:
        ad = self._ads.get(vsite)
        if ad is None:
            return float("inf")
        return ad.wait_estimate_s(self._overlay.get(vsite, [0, 0.0])[1])

    def _best_vsite(
        self, job: BrokerJob, ads: dict[str, CapacityAdvertisement]
    ) -> str | None:
        best: tuple[float, str] | None = None
        for vsite in sorted(ads):
            if vsite in job.excluded:
                continue
            ad = ads[vsite]
            overlay = self._overlay.setdefault(vsite, [0, 0.0])
            if ad.queued_jobs + overlay[0] >= self.max_queued_per_vsite:
                continue
            if not self._feasible(ad, job.request, job.software):
                continue
            runtime = (job.request.time_s * 0.5) / ad.speed_factor
            key = (self._wait_estimate(vsite) + runtime, vsite)
            if best is None or key < best:
                best = key
        return best[1] if best else None

    def match(self, now: float) -> list[BrokerJob]:
        """Bind pending jobs to Vsites; returns the newly bound entries.

        Fair-share order: after every single binding the pending set is
        re-ranked by (user's dispatched count, arrival sequence), so the
        least-served user with a feasible job always gets the next slot
        — no user with remaining quota can be starved by another's
        backlog.
        """
        ads = self.fresh_ads(now)
        assigned: list[BrokerJob] = []
        if not ads or not self._pending:
            return assigned
        active: dict[str, int] = {}
        for job in self._dispatched.values():
            active[job.user_dn] = active.get(job.user_dn, 0) + 1
        while True:
            ranked = sorted(
                self._pending, key=lambda j: (active.get(j.user_dn, 0), j.seq)
            )
            bound = None
            for job in ranked:
                vsite = self._best_vsite(job, ads)
                if vsite is None:
                    continue
                ad = ads[vsite]
                job.state = BrokerJobState.DISPATCHED
                job.vsite = vsite
                job.usite = ad.usite
                job.bound_at = now
                job.attempts += 1
                overlay = self._overlay.setdefault(vsite, [0, 0.0])
                overlay[0] += 1
                overlay[1] += job.request.cpus * job.request.time_s
                self._pending.remove(job)
                self._dispatched[job.seq] = job
                active[job.user_dn] = active.get(job.user_dn, 0) + 1
                self._count("broker.matches")
                assigned.append(job)
                bound = job
                break
            if bound is None:
                return assigned

    def bind(self, job: BrokerJob, job_id: str) -> None:
        """Record the NJS job id after a successful consignment."""
        job.job_id = job_id

    def release(self, job: BrokerJob, requeue: bool, error: str = "") -> None:
        """A dispatch attempt failed at ``job.vsite``."""
        self._dispatched.pop(job.seq, None)
        job.excluded = (*job.excluded, job.vsite)
        job.vsite = job.usite = job.job_id = ""
        job.error = error
        if requeue:
            job.state = BrokerJobState.PENDING
            self._pending.append(job)
        else:
            job.state = BrokerJobState.FAILED
            self._done.append(job)

    # -- work stealing ------------------------------------------------------
    def steal_candidates(
        self, now: float
    ) -> list[tuple[BrokerJob, str, str]]:
        """Dispatched-but-still-queued jobs worth moving to a drained Vsite.

        Returns ``(job, target_usite, target_vsite)`` triples.  A job
        qualifies when its NJS advertised it as reclaimable (nothing
        started), its bound queue's estimated wait exceeds
        ``min_steal_wait_s``, and some *other* feasible Vsite sits
        drained (no queue, free processors, nothing bound this tick).
        """
        ads = self.fresh_ads(now)
        drained = [
            vsite
            for vsite in sorted(ads)
            if ads[vsite].queued_jobs == 0
            and ads[vsite].free_cpus > 0
            and self._overlay.get(vsite, [0, 0.0])[0] == 0
        ]
        if not drained:
            return []
        out: list[tuple[BrokerJob, str, str]] = []
        taken: set[str] = set()
        for job in sorted(self._dispatched.values(), key=lambda j: j.seq):
            if not job.job_id:
                continue
            if job.job_id not in self._reclaimable.get(job.usite, frozenset()):
                continue
            if self._wait_estimate(job.vsite) < self.min_steal_wait_s:
                continue
            targets = [
                vsite
                for vsite in drained
                if vsite != job.vsite
                and vsite not in taken
                and vsite not in job.excluded
                and self._feasible(ads[vsite], job.request, job.software)
            ]
            if targets:
                out.append((job, ads[targets[0]].usite, targets[0]))
                taken.add(targets[0])
        return out

    def mark_stolen(self, job: BrokerJob) -> None:
        """The old NJS confirmed the reclaim: requeue for rebinding."""
        self._dispatched.pop(job.seq, None)
        job.excluded = (*job.excluded, job.vsite)
        job.vsite = job.usite = job.job_id = ""
        job.state = BrokerJobState.PENDING
        job.steals += 1
        self._pending.append(job)
        self._count("broker.steals")
