"""Best-effort co-allocation: the meta-computing sketch of section 6.

The paper: "For the big grand challenge problems the integration of
meta-computing is a topic.  This extends the usage of distributed systems
in one UNICORE job to the synchronous use for a single application."
And section 5.5 explains why the prototype cannot do it: UNICORE "has no
means of influencing the scheduling on the destination systems ...
(i.e. to allow for synchronous execution of jobs on different systems)".

:class:`CoAllocator` demonstrates that tension: it *polls* the candidate
batch systems until all of them simultaneously show enough free CPUs,
then submits all parts in the same instant.  Without reservations this
is inherently racy — local jobs can grab the CPUs between observation
and start — so the result reports whether synchronous start was actually
achieved and how skewed the parts began.  The ablation benchmark uses
this to quantify the cost of site autonomy for synchronous workloads.
"""

from __future__ import annotations

import typing
from dataclasses import dataclass

from repro.batch.base import BatchJobSpec, BatchSystem
from repro.simkernel import Simulator

__all__ = ["CoAllocationResult", "CoAllocator"]

#: Parts that start within this many seconds of each other started together.
SKEW_TOLERANCE_S = 1.0


@dataclass(slots=True)
class CoAllocationResult:
    """What happened to one co-allocation attempt."""

    achieved: bool
    start_times: dict[str, float]
    polls: int

    @property
    def start_skew_s(self) -> float:
        """Max start-time difference between the parts (0 = synchronous)."""
        if not self.start_times:
            return float("inf")
        times = list(self.start_times.values())
        return max(times) - min(times)


class CoAllocator:
    """Polling-based synchronous start across multiple batch systems."""

    def __init__(
        self,
        sim: Simulator,
        poll_interval_s: float = 30.0,
        max_polls: int = 10_000,
    ) -> None:
        self.sim = sim
        self.poll_interval_s = poll_interval_s
        self.max_polls = max_polls

    def co_allocate(
        self, parts: list[tuple[BatchSystem, BatchJobSpec]]
    ) -> typing.Generator:
        """Try to start all ``parts`` simultaneously (yield from).

        Returns a :class:`CoAllocationResult`.  Submission happens only
        when every system *currently* shows enough free CPUs and an empty
        pending queue (otherwise FCFS would delay us behind the backlog);
        whether the parts then actually start together is up to the
        sites — exactly the autonomy gap the paper describes.
        """
        polls = 0
        for _ in range(self.max_polls):
            polls += 1
            ready = all(
                system.free_cpus >= spec.resources.cpus
                and system.pending_count == 0
                for system, spec in parts
            )
            if ready:
                break
            yield self.sim.timeout(self.poll_interval_s)
        else:
            return CoAllocationResult(achieved=False, start_times={}, polls=polls)

        job_ids = [
            (system, system.submit(spec)) for system, spec in parts
        ]
        # Wait for all to finish, then inspect when each started.
        for system, job_id in job_ids:
            record = system.query(job_id)
            assert record.completion_event is not None
            yield record.completion_event
        start_times = {
            f"{system.machine.name}:{job_id}": typing.cast(
                float, system.query(job_id).start_time
            )
            for system, job_id in job_ids
        }
        result = CoAllocationResult(
            achieved=True, start_times=start_times, polls=polls
        )
        result.achieved = result.start_skew_s <= SKEW_TOLERANCE_S
        return result
