"""Deterministic fault plans.

A :class:`FaultPlan` is a *schedule* of failures — which component
breaks, when, for how long, and how badly — generated entirely from the
simulation's named RNG streams (:func:`~repro.simkernel.rng.derive_rng`).
The same ``(targets, intensity, seed, horizon)`` always produces the
same schedule, so a chaos experiment is as reproducible as any other
simulation in this repo: a failure seen once can be replayed exactly.

Streams are keyed per ``(kind, target)``, so adding a fault kind or a
site to the grid never perturbs the schedules of the existing ones —
the same property the rest of the simulation gets from named streams.
"""

from __future__ import annotations

import typing
from dataclasses import dataclass

from repro.simkernel.rng import derive_rng

__all__ = ["FaultKind", "FaultEvent", "FaultTargets", "FaultPlan"]


class FaultKind:
    """The failure modes the injector knows how to apply."""

    #: A WAN link turns lossy for a while (severity = loss probability).
    CHANNEL_DROP = "channel_drop"
    #: A WAN link's latency multiplies for a while (severity = factor).
    LATENCY_SPIKE = "latency_spike"
    #: A gateway stops serving requests, then restarts.  Established
    #: channels and the reply cache survive (the process restarts on the
    #: same host; clients retry through the outage).
    GATEWAY_CRASH = "gateway_crash"
    #: An NJS loses its whole heap, then restarts from storage: finished
    #: jobs come back from the outcome store, jobs in flight are
    #: replayed from the journal.
    NJS_CRASH = "njs_crash"
    #: A whole Vsite goes offline: running jobs die, submissions are
    #: refused until it comes back.
    VSITE_OUTAGE = "vsite_outage"
    #: One batch node dies, killing a single running job (no downtime).
    NODE_FAILURE = "node_failure"
    #: The whole site power-fails — every gateway down plus an NJS
    #: crash — then restarts from its storage backend.
    #: Deliberately not in :attr:`ALL`: it models machine-room loss, a
    #: class above the per-process failures default chaos sweeps arm.
    #: Opt in with ``kinds=[..., FaultKind.SITE_RESTART]``.
    SITE_RESTART = "site_restart"

    ALL: typing.ClassVar[tuple[str, ...]] = (
        CHANNEL_DROP,
        LATENCY_SPIKE,
        GATEWAY_CRASH,
        NJS_CRASH,
        VSITE_OUTAGE,
        NODE_FAILURE,
    )


#: Expected events per target per 1000 simulated seconds at intensity 1.0.
_RATES: dict[str, float] = {
    FaultKind.CHANNEL_DROP: 0.8,
    FaultKind.LATENCY_SPIKE: 0.8,
    FaultKind.GATEWAY_CRASH: 0.3,
    FaultKind.NJS_CRASH: 0.3,
    FaultKind.VSITE_OUTAGE: 0.25,
    FaultKind.NODE_FAILURE: 0.6,
    FaultKind.SITE_RESTART: 0.15,
}


@dataclass(frozen=True, slots=True)
class FaultEvent:
    """One scheduled failure."""

    at_s: float
    kind: str
    target: str
    #: Outage length; 0 for instantaneous faults (node failures).
    duration_s: float = 0.0
    #: Kind-specific magnitude (loss probability, latency factor, ...).
    severity: float = 0.0

    @property
    def ends_at_s(self) -> float:
        return self.at_s + self.duration_s


@dataclass(frozen=True, slots=True)
class FaultTargets:
    """What a plan may break, extracted from a built grid.

    Targets are plain strings so plans stay serializable and comparable:
    links are ``"hostA|hostB"`` (both directions), sites are the Usite
    name, Vsites are ``"usite/vsite"``.
    """

    wan_links: tuple[str, ...] = ()
    usites: tuple[str, ...] = ()
    vsites: tuple[str, ...] = ()

    @classmethod
    def from_grid(cls, grid) -> "FaultTargets":
        names = sorted(grid.usites)
        links = tuple(
            f"{grid.usites[a].gateway_host.name}|{grid.usites[b].gateway_host.name}"
            for i, a in enumerate(names)
            for b in names[i + 1:]
        )
        vsites = tuple(
            f"{u}/{v}" for u in names for v in sorted(grid.usites[u].vsites)
        )
        return cls(wan_links=links, usites=tuple(names), vsites=vsites)

    def for_kind(self, kind: str) -> tuple[str, ...]:
        if kind in (FaultKind.CHANNEL_DROP, FaultKind.LATENCY_SPIKE):
            return self.wan_links
        if kind in (
            FaultKind.GATEWAY_CRASH, FaultKind.NJS_CRASH, FaultKind.SITE_RESTART,
        ):
            return self.usites
        return self.vsites


def _draw(
    kind: str, rng, horizon_s: float, target: str, intensity: float
) -> list[FaultEvent]:
    """All events of one kind against one target (its own RNG stream)."""
    events: list[FaultEvent] = []
    count = int(rng.poisson(_RATES[kind] * intensity * horizon_s / 1000.0))
    for _ in range(count):
        # Keep faults off the warm-up and cool-down edges of the run so
        # every outage also *recovers* inside the horizon.
        at = float(rng.uniform(0.05, 0.80) * horizon_s)
        if kind == FaultKind.CHANNEL_DROP:
            duration = float(min(max(rng.exponential(45.0), 5.0), 120.0))
            severity = float(rng.uniform(0.4, 0.95))
        elif kind == FaultKind.LATENCY_SPIKE:
            duration = float(min(max(rng.exponential(60.0), 10.0), 180.0))
            severity = float(rng.uniform(4.0, 20.0))
        elif kind == FaultKind.GATEWAY_CRASH:
            duration = float(rng.uniform(15.0, 75.0))
            severity = 0.0
        elif kind == FaultKind.NJS_CRASH:
            duration = float(rng.uniform(20.0, 90.0))
            severity = 0.0
        elif kind == FaultKind.VSITE_OUTAGE:
            duration = float(rng.uniform(45.0, 180.0))
            severity = 0.0
        elif kind == FaultKind.SITE_RESTART:
            # A full power cycle takes longer than any one process crash.
            duration = float(rng.uniform(60.0, 180.0))
            severity = 0.0
        else:  # NODE_FAILURE
            duration = 0.0
            severity = 0.0
        events.append(
            FaultEvent(
                at_s=at, kind=kind, target=target,
                duration_s=duration, severity=severity,
            )
        )
    return events


@dataclass(frozen=True, slots=True)
class FaultPlan:
    """A deterministic, immutable schedule of :class:`FaultEvent`\\ s."""

    seed: int
    intensity: float
    horizon_s: float
    events: tuple[FaultEvent, ...] = ()

    @classmethod
    def generate(
        cls,
        targets: FaultTargets,
        intensity: float = 1.0,
        seed: int = 0,
        horizon_s: float = 3600.0,
        kinds: typing.Iterable[str] | None = None,
    ) -> "FaultPlan":
        """Build the schedule; ``intensity`` scales all event rates.

        ``intensity=0`` yields an empty plan (the control arm of a chaos
        sweep); 1.0 is "moderate" in the E13 benchmark's terms.
        """
        if intensity < 0:
            raise ValueError(f"intensity must be >= 0, got {intensity}")
        events: list[FaultEvent] = []
        for kind in kinds if kinds is not None else FaultKind.ALL:
            if kind not in _RATES:
                raise ValueError(f"unknown fault kind {kind!r}")
            for target in targets.for_kind(kind):
                rng = derive_rng(seed, f"fault:{kind}:{target}")
                events.extend(_draw(kind, rng, horizon_s, target, intensity))
        events.sort(key=lambda ev: (ev.at_s, ev.kind, ev.target))
        return cls(
            seed=seed, intensity=intensity, horizon_s=horizon_s,
            events=tuple(events),
        )

    def of_kind(self, kind: str) -> tuple[FaultEvent, ...]:
        return tuple(ev for ev in self.events if ev.kind == kind)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> typing.Iterator[FaultEvent]:
        return iter(self.events)
