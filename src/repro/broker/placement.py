"""The one-shot placement broker of section 6 (formerly ``repro.ext.broker``).

This is the *immediate* half of brokering: rank every Vsite right now
and pick one.  The federated, late-binding half lives in
:mod:`repro.broker.matcher` / :mod:`repro.broker.service`, which hold
jobs unbound and match them against capacity advertisements over time.

"A resource broker which supports the users in a way that they can
specify the needed resources on a more abstract level and the broker
finds the appropriate execution server for it.  Together with accounting
functions and load information the resource broker can find the best
system for an application with given time constraints."

The broker ranks candidate Vsites by *estimated turnaround*:

    est_wait (from live queue load) + est_runtime (scaled by the
    machine's speed factor) [+ cost tie-breaking]

It only uses information legitimately available to the middleware —
resource pages, queue depths from query calls, and its own accounting —
never any influence over site scheduling (site autonomy preserved).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.resources.check import check_request
from repro.resources.model import ResourceRequest
from repro.server.vsite import Vsite

__all__ = ["BrokerDecision", "ResourceBroker"]


@dataclass(frozen=True, slots=True)
class BrokerDecision:
    """One ranked candidate."""

    usite: str
    vsite: str
    estimated_wait_s: float
    estimated_runtime_s: float
    cost_rate: float

    @property
    def estimated_turnaround_s(self) -> float:
        return self.estimated_wait_s + self.estimated_runtime_s


class ResourceBroker:
    """Chooses the destination Vsite for an abstract resource request."""

    def __init__(
        self,
        vsites: dict[str, tuple[str, Vsite]],
        cost_per_cpu_hour: dict[str, float] | None = None,
    ) -> None:
        """``vsites`` maps vsite name → (usite name, Vsite)."""
        self._vsites = dict(vsites)
        self._cost = dict(cost_per_cpu_hour or {})

    @classmethod
    def for_grid(cls, grid, **kw) -> "ResourceBroker":
        """Build from a :class:`~repro.grid.build.Grid`."""
        vsites = {
            vname: (uname, vsite)
            for uname, usite in grid.usites.items()
            for vname, vsite in usite.vsites.items()
        }
        return cls(vsites, **kw)

    # -- load estimation ----------------------------------------------------
    @staticmethod
    def _estimated_wait(vsite: Vsite) -> float:
        """Backlog-based wait estimate from observable queue state.

        The batch system's backlog divided by machine capacity.  The
        paper notes UNICORE "can neither estimate the turnaround time for
        a job nor influence the scheduling" — the broker can only
        *estimate from outside*, which is exactly what this does.
        """
        return vsite.batch.backlog_cpu_s() / vsite.machine.cpus

    def candidates(
        self,
        request: ResourceRequest,
        required_software: list[tuple[str, str]] | None = None,
        baseline_runtime_s: float | None = None,
    ) -> list[BrokerDecision]:
        """All feasible Vsites, ranked by estimated turnaround."""
        runtime = (
            baseline_runtime_s
            if baseline_runtime_s is not None
            else request.time_s * 0.5
        )
        out: list[BrokerDecision] = []
        for vname, (uname, vsite) in self._vsites.items():
            result = check_request(
                vsite.resource_page, request, required_software
            )
            if not result.ok:
                continue
            out.append(
                BrokerDecision(
                    usite=uname,
                    vsite=vname,
                    estimated_wait_s=self._estimated_wait(vsite),
                    estimated_runtime_s=runtime / vsite.machine.speed_factor,
                    cost_rate=self._cost.get(vname, 1.0),
                )
            )
        out.sort(key=lambda d: (d.estimated_turnaround_s, d.cost_rate, d.vsite))
        return out

    def choose(
        self,
        request: ResourceRequest,
        required_software: list[tuple[str, str]] | None = None,
        baseline_runtime_s: float | None = None,
        deadline_s: float | None = None,
    ) -> BrokerDecision:
        """The best feasible Vsite; raises ``LookupError`` if none fits.

        With ``deadline_s``, only candidates whose estimated turnaround
        meets the deadline are considered ("an application with given
        time constraints"); among those the *cheapest* wins.
        """
        ranked = self.candidates(request, required_software, baseline_runtime_s)
        if not ranked:
            raise LookupError(
                "no Vsite satisfies the request "
                f"(cpus={request.cpus}, software={required_software})"
            )
        if deadline_s is not None:
            meeting = [d for d in ranked if d.estimated_turnaround_s <= deadline_s]
            if not meeting:
                raise LookupError(
                    f"no Vsite can meet the {deadline_s}s deadline; best "
                    f"estimate is {ranked[0].estimated_turnaround_s:.0f}s on "
                    f"{ranked[0].vsite}"
                )
            return min(meeting, key=lambda d: (d.cost_rate, d.estimated_turnaround_s))
        return ranked[0]
