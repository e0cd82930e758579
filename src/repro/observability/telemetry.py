"""Per-simulation telemetry scoping.

Every :class:`~repro.simkernel.Simulator` gets its own tracer + metrics
bundle whose span clock reads that simulator's ``now``.  The map is a
``WeakKeyDictionary`` and the clock holds the simulator through a
weakref, so telemetry never keeps a finished simulation alive, and
every span is timed on a simulator's clock.
"""

from __future__ import annotations

import typing
import weakref
from dataclasses import dataclass, field

from repro.observability.metrics import MetricsRegistry
from repro.observability.tracer import Tracer

__all__ = ["Telemetry", "telemetry_for"]


@dataclass
class Telemetry:
    """One simulation's tracer and metrics, sharing a clock."""

    tracer: Tracer
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)


def _sim_clock(sim: object) -> typing.Callable[[], float]:
    ref = weakref.ref(sim)

    def clock() -> float:
        alive = ref()
        return alive.now if alive is not None else 0.0

    return clock


_per_sim: "weakref.WeakKeyDictionary[object, Telemetry]" = (
    weakref.WeakKeyDictionary()
)


def telemetry_for(sim: object) -> Telemetry:
    """The telemetry bundle for this simulator, made at first ask."""
    bundle = _per_sim.get(sim)
    if bundle is None:
        bundle = Telemetry(tracer=Tracer(clock=_sim_clock(sim)))
        _per_sim[sim] = bundle
    return bundle
