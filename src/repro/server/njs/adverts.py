"""What one NJS tells the federation broker about its site.

Everything here is legitimately middleware-visible: batch record
queries, the published resource pages, and this NJS's own run table.
Site autonomy holds — the broker learns load, it never steers local
scheduling.
"""

from __future__ import annotations

import typing

from repro.batch.base import BatchState
from repro.batch.errors import BatchError, UnknownJobError
from repro.broker.advertise import (
    BROKER_PEER,
    AdvertiseCapacity,
    CapacityAdvertisement,
)
from repro.observability import telemetry_for
from repro.server.njs.peerlink import PeerLink
from repro.server.njs.runtable import RunTable
from repro.server.vsite import Vsite
from repro.simkernel import Simulator

__all__ = ["BrokerAdverts"]


class BrokerAdverts:
    """Periodic capacity advertisements and the steal-candidate list."""

    def __init__(
        self,
        sim: Simulator,
        usite_name: str,
        vsites: dict[str, Vsite],
        runs: RunTable,
        peers: PeerLink,
        is_down: typing.Callable[[], bool],
    ) -> None:
        self._sim = sim
        self._usite_name = usite_name
        self._vsites = vsites
        self._runs = runs
        self._peers = peers
        #: A crashed NJS advertises nothing until it is back.
        self._is_down = is_down
        self._advertising = False

    def build(self) -> AdvertiseCapacity:
        """Snapshot this site's advertisable state for the broker."""
        now = self._sim.now
        ads = []
        for name in sorted(self._vsites):
            vsite = self._vsites[name]
            queued = running = busy_cpus = 0
            for record in vsite.batch.all_records():
                if record.state is BatchState.QUEUED:
                    queued += 1
                elif record.state is BatchState.RUNNING:
                    running += 1
                    busy_cpus += record.spec.resources.cpus
            ads.append(CapacityAdvertisement(
                usite=self._usite_name,
                vsite=name,
                sent_at=now,
                total_cpus=vsite.machine.cpus,
                free_cpus=max(0, vsite.machine.cpus - busy_cpus),
                queued_jobs=queued,
                running_jobs=running,
                backlog_cpu_s=vsite.batch.backlog_cpu_s(),
                speed_factor=vsite.machine.speed_factor,
                page=vsite.resource_page,
            ))
        return AdvertiseCapacity(
            usite=self._usite_name,
            sent_at=now,
            vsites=tuple(ads),
            reclaimable=tuple(self.reclaimable()),
            terminal=self._runs.terminal_ids(),
        )

    def reclaimable(self) -> list[str]:
        """Jobs the broker may steal: consigned here, every submitted
        batch record still QUEUED, nothing started or cancelled."""
        out = []
        for job_id in self._runs.active_ids():
            run = self._runs.get(job_id)
            if run is None or run.cancelled or run.held or run.status().is_terminal:
                continue
            if run.batch_jobs and all(
                self._still_queued(vsite_name, local_id)
                for vsite_name, local_id in run.batch_jobs.values()
            ):
                out.append(job_id)
        return out

    def _still_queued(self, vsite_name: str, local_id: str) -> bool:
        vsite = self._vsites.get(vsite_name)
        if vsite is None:
            return False
        try:
            return vsite.batch.query(local_id).state is BatchState.QUEUED
        except (BatchError, UnknownJobError):
            return False

    def start(self, interval_s: float, offset_s: float) -> None:
        """Begin periodic capacity advertisements to the broker hub."""
        if self._advertising:
            return
        self._advertising = True
        self._sim.process(
            self._loop(interval_s, offset_s),
            name=f"advertise:{self._usite_name}",
        )

    def _loop(self, interval_s: float, offset_s: float):
        if offset_s:
            yield self._sim.timeout(offset_s)
        while True:
            if not self._is_down() and self._peers.has_broker:
                # A lost report is superseded by the next interval's.
                if (yield from self._peers.try_send(BROKER_PEER, self.build())):
                    telemetry_for(self._sim).metrics.counter(
                        "njs.advertisements"
                    ).inc()
            yield self._sim.timeout(interval_s)
