"""Discrete-event simulation kernel.

Everything time-dependent in the reproduction — network transfers, batch
queues, NJS supervision loops — runs on this kernel.  It is a small,
deterministic, SimPy-flavoured engine: a priority queue of events driven
by :class:`Simulator`, with cooperative *processes* written as Python
generators that ``yield`` events (most commonly timeouts) to suspend.

Determinism is a design requirement (DESIGN.md section 6): given a seed
and a program, every run produces the identical event order.  Ties in
simulated time are broken by a monotonically increasing sequence number,
never by object identity.

Example
-------
>>> from repro.simkernel import Simulator
>>> sim = Simulator()
>>> log = []
>>> def worker(sim, name, delay):
...     yield sim.timeout(delay)
...     log.append((sim.now, name))
>>> _ = sim.process(worker(sim, "a", 2.0))
>>> _ = sim.process(worker(sim, "b", 1.0))
>>> sim.run()
>>> log
[(1.0, 'b'), (2.0, 'a')]
"""

from repro.simkernel.events import (
    EXPIRED,
    AllOf,
    AnyOf,
    Event,
    EventAborted,
    Interrupt,
    Timeout,
    TimeoutAt,
)
from repro.simkernel.process import Process, ProcessDied
from repro.simkernel.engine import CallbackSlot, Simulator, StopSimulation
from repro.simkernel.resources import SimQueue, Store
from repro.simkernel.rng import SeedSequenceFactory, derive_rng

__all__ = [
    "AllOf",
    "AnyOf",
    "CallbackSlot",
    "EXPIRED",
    "Event",
    "EventAborted",
    "Interrupt",
    "Process",
    "ProcessDied",
    "SeedSequenceFactory",
    "SimQueue",
    "Simulator",
    "StopSimulation",
    "Store",
    "Timeout",
    "TimeoutAt",
    "derive_rng",
]
