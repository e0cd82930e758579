"""Capacity advertisements and broker peer messages.

The federation broker never scrapes batch systems directly — that would
violate site autonomy (paper section 4: UNICORE "can neither estimate
the turnaround time for a job nor influence the scheduling").  Instead
each NJS *advertises* what it legitimately knows about its own Vsites —
queue depths, backlog, free processors, the published resource page —
on a timer, and the broker matches against the last advertisement it
holds.  Advertisements therefore carry their send time so the matcher
can discard stale ones.

Like the other NJS peer messages (``ForwardGroup`` et al.) these are
plain dataclasses with a ``wire_payload`` size estimate; they travel
NJS → gateway → broker hub over the same reliable-hop machinery as
server-to-server traffic.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.resources.page import ResourcePage

__all__ = [
    "BROKER_PEER",
    "AdvertiseCapacity",
    "CapacityAdvertisement",
    "ReclaimAck",
    "ReclaimJob",
]

#: Reserved pseudo-Usite name the NJS routes broker traffic under.  A
#: real Usite can never collide with it (site names come from the grid
#: builder and are plain identifiers).
BROKER_PEER = "__broker__"

#: Modelled wire size of one per-Vsite advertisement (resource page
#: summary plus counters).
_AD_WIRE_BYTES = 2048


@dataclass(frozen=True, slots=True)
class CapacityAdvertisement:
    """One Vsite's self-reported state at ``sent_at``."""

    usite: str
    vsite: str
    sent_at: float
    total_cpus: int
    free_cpus: int
    queued_jobs: int
    running_jobs: int
    #: Sum of cpus x remaining-time over queued and running jobs — the
    #: same backlog heuristic the one-shot placement broker uses.
    backlog_cpu_s: float
    speed_factor: float
    #: The published page, so the matcher can run the identical
    #: feasibility check the analysis tier applies at consign time.
    page: ResourcePage

    def wait_estimate_s(self, bound_since_cpu_s: float = 0.0) -> float:
        """Backlog over capacity; ``bound_since_cpu_s`` is work the broker
        itself sent here after this advertisement left (its overlay)."""
        return (self.backlog_cpu_s + bound_since_cpu_s) / max(1, self.total_cpus)


@dataclass(frozen=True, slots=True)
class AdvertiseCapacity:
    """NJS → broker: periodic capacity report for one whole Usite.

    ``reclaimable`` lists jobs the NJS would let the broker steal (every
    submitted batch record still QUEUED, nothing started); ``terminal``
    feeds completions back so the broker can retire queue entries and
    release fair-share slots without polling.
    """

    usite: str
    sent_at: float
    vsites: tuple[CapacityAdvertisement, ...]
    reclaimable: tuple[str, ...] = ()
    terminal: tuple[str, ...] = ()

    @property
    def wire_payload(self) -> int:
        return (
            512
            + _AD_WIRE_BYTES * len(self.vsites)
            + 40 * (len(self.reclaimable) + len(self.terminal))
        )


@dataclass(frozen=True, slots=True)
class ReclaimJob:
    """Broker → NJS: cancel ``job_id`` if it has not started, so the
    broker can rebind it elsewhere (work stealing)."""

    corr_id: int
    job_id: str

    @property
    def wire_payload(self) -> int:
        return 256


@dataclass(frozen=True, slots=True)
class ReclaimAck:
    """NJS → broker: outcome of a :class:`ReclaimJob`.

    ``ok`` is False when the job started (or finished) between the
    advertisement and the steal — the authoritative check happens at the
    NJS, never from stale broker state.
    """

    corr_id: int
    ok: bool
    detail: str = ""

    @property
    def wire_payload(self) -> int:
        return 128 + len(self.detail)
