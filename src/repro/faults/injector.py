"""Applies a :class:`~repro.faults.plan.FaultPlan` to a built grid.

The injector schedules one simulator callback per fault and one per
recovery, so the chaos unfolds inside the normal event loop — faults
interleave deterministically with the workload they disturb.  Every
injection is recorded as a span in a dedicated ``chaos`` trace (outage
spans last exactly the outage) and counted per kind in the metrics
registry, so a chaos run can be audited after the fact.

Overlapping faults on the same link compose: loss probability takes the
maximum of the active drops, latency the largest active factor, and the
baseline is restored only when the last overlapping fault ends.
"""

from __future__ import annotations

import typing

from repro.faults.plan import FaultEvent, FaultKind, FaultPlan, FaultTargets
from repro.observability import telemetry_for

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.grid.build import Grid

__all__ = ["FaultInjector"]


class FaultInjector:
    """Arms a fault plan against a running grid."""

    def __init__(self, grid: "Grid", plan: FaultPlan) -> None:
        self.grid = grid
        self.plan = plan
        self.sim = grid.sim
        #: Events actually applied (node failures with nothing to kill
        #: are recorded with severity -1 and skipped).
        self.applied: list[FaultEvent] = []
        self.chaos_trace_id = ""
        self._armed = False
        # Per-link baselines captured at arm() time plus active-fault
        # bookkeeping for overlap-safe restore.
        self._baseline_loss: dict[tuple[str, str], float] = {}
        self._baseline_latency: dict[tuple[str, str], float] = {}
        self._active_drops: dict[tuple[str, str], list[float]] = {}
        self._active_spikes: dict[tuple[str, str], list[float]] = {}

    def arm(self) -> None:
        """Schedule every event of the plan relative to ``sim.now``."""
        if self._armed:
            raise RuntimeError("injector already armed")
        self._armed = True
        telemetry = telemetry_for(self.sim)
        self.chaos_trace_id = telemetry.tracer.new_trace("chaos")
        base = self.sim.now
        for event in self.plan:
            self.sim.schedule_callback(
                base + event.at_s - self.sim.now,
                lambda ev=event: self._apply(ev),
            )

    # ------------------------------------------------------------- dispatch
    def _apply(self, event: FaultEvent) -> None:
        telemetry = telemetry_for(self.sim)
        handler = {
            FaultKind.CHANNEL_DROP: self._channel_drop,
            FaultKind.LATENCY_SPIKE: self._latency_spike,
            FaultKind.GATEWAY_CRASH: self._gateway_crash,
            FaultKind.NJS_CRASH: self._njs_crash,
            FaultKind.VSITE_OUTAGE: self._vsite_outage,
            FaultKind.NODE_FAILURE: self._node_failure,
            FaultKind.SITE_RESTART: self._site_restart,
        }[event.kind]
        applied = handler(event)
        if not applied:
            telemetry.metrics.counter("faults.skipped").inc()
            return
        self.applied.append(event)
        telemetry.metrics.counter("faults.injected").inc()
        telemetry.metrics.counter(f"faults.{event.kind}").inc()
        span = telemetry.tracer.start_span(
            f"fault.{event.kind}",
            self.chaos_trace_id,
            tier="chaos",
            target=event.target,
            severity=event.severity,
        )
        if event.duration_s > 0:
            self.sim.schedule_callback(
                event.duration_s,
                lambda: telemetry.tracer.end_span(span),
            )
        else:
            telemetry.tracer.end_span(span)

    # ------------------------------------------------------------- handlers
    def _link_pairs(self, target: str) -> list[tuple[str, str]]:
        a, b = target.split("|", 1)
        return [(a, b), (b, a)]

    def _channel_drop(self, event: FaultEvent) -> bool:
        for pair in self._link_pairs(event.target):
            link = self.grid.network.get_link(*pair)
            self._baseline_loss.setdefault(pair, link.loss_probability)
            active = self._active_drops.setdefault(pair, [])
            active.append(event.severity)
            link.loss_probability = min(max(active), 0.99)
        self.sim.schedule_callback(
            event.duration_s, lambda: self._restore_drop(event)
        )
        return True

    def _restore_drop(self, event: FaultEvent) -> None:
        for pair in self._link_pairs(event.target):
            link = self.grid.network.get_link(*pair)
            active = self._active_drops[pair]
            active.remove(event.severity)
            link.loss_probability = (
                min(max(active), 0.99) if active else self._baseline_loss[pair]
            )

    def _latency_spike(self, event: FaultEvent) -> bool:
        for pair in self._link_pairs(event.target):
            link = self.grid.network.get_link(*pair)
            self._baseline_latency.setdefault(pair, link.latency_s)
            active = self._active_spikes.setdefault(pair, [])
            active.append(event.severity)
            link.latency_s = self._baseline_latency[pair] * max(active)
        self.sim.schedule_callback(
            event.duration_s, lambda: self._restore_spike(event)
        )
        return True

    def _restore_spike(self, event: FaultEvent) -> None:
        for pair in self._link_pairs(event.target):
            link = self.grid.network.get_link(*pair)
            active = self._active_spikes[pair]
            active.remove(event.severity)
            base = self._baseline_latency[pair]
            link.latency_s = base * max(active) if active else base
        return None

    def _gateway_crash(self, event: FaultEvent) -> bool:
        gateway = self.grid.usites[event.target].gateway
        if gateway.down:
            return False  # already down from an overlapping crash
        gateway.crash()
        self.sim.schedule_callback(event.duration_s, gateway.restart)
        return True

    def _njs_crash(self, event: FaultEvent) -> bool:
        njs = self.grid.usites[event.target].njs
        if njs.crashed:
            return False
        njs.crash()
        self.sim.schedule_callback(event.duration_s, njs.restart)
        return True

    def _site_restart(self, event: FaultEvent) -> bool:
        """Power-cycle a whole Usite: gateways and NJS down, then a
        storage-backed restart."""
        usite = self.grid.usites[event.target]
        if usite.njs.crashed or usite.gateway.down:
            return False  # already failing from an overlapping fault
        usite.crash_site()
        self.sim.schedule_callback(event.duration_s, usite.restart_site)
        return True

    def _vsite_outage(self, event: FaultEvent) -> bool:
        usite, vsite_name = event.target.split("/", 1)
        batch = self.grid.usites[usite].vsites[vsite_name].batch
        if batch.offline:
            return False
        batch.set_offline(True)
        self.sim.schedule_callback(
            event.duration_s, lambda: batch.set_offline(False)
        )
        return True

    def _node_failure(self, event: FaultEvent) -> bool:
        usite, vsite_name = event.target.split("/", 1)
        batch = self.grid.usites[usite].vsites[vsite_name].batch
        running = sorted(batch.running_job_ids())
        if not running:
            return False  # idle node: the failure goes unnoticed
        batch.fail_job(running[0], reason="node failure")
        return True
