"""Generator-based cooperative processes.

A process is a Python generator that yields :class:`~repro.simkernel.events.Event`
instances.  Each yield suspends the process until the yielded event is
processed; the event's value is sent back into the generator (or its
exception thrown in).  A :class:`Process` is itself an event that fires
when the generator returns, carrying the generator's return value, so
processes can wait on each other.

Neither starting nor continuing costs a queue entry of its own.  A
process runs to its first yield inside the call that creates it, at
``sim.now``, before its creator goes on; a yield on an event that has
already been processed continues at once with that event's outcome.  The
queue only holds what wakes somebody later.
"""

from __future__ import annotations

import typing

from repro.simkernel.events import Event, Interrupt, PENDING

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.simkernel.engine import Simulator

__all__ = ["Process", "ProcessDied"]


class ProcessDied(Exception):
    """Raised when interacting with a process that has already terminated."""


class Process(Event):
    """A running generator coroutine inside the simulator.

    Notes
    -----
    * The generator runs to its first yield inside ``__init__``; a body
      that raises or returns before it fails or succeeds right there.
    * ``yield event`` suspends until ``event`` is processed; an event
      already processed is no reason to suspend.
    * The process *fails* (propagating to waiters) if the generator raises.
    * :meth:`interrupt` throws :class:`Interrupt` into the generator at the
      current simulated time.
    """

    __slots__ = ("generator", "_target")

    def __init__(
        self,
        sim: "Simulator",
        generator: typing.Generator[Event, object, object],
        name: str | None = None,
    ) -> None:
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError(
                f"Process needs a generator, got {type(generator).__name__}; "
                "did you call the process function without arguments?"
            )
        super().__init__(sim, name=name or getattr(generator, "__name__", "process"))
        self.generator = generator
        #: The event this process is currently waiting on, if suspended.
        self._target: Event | None = None
        self._advance(True, None)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return self._value is PENDING

    @property
    def target(self) -> Event | None:
        """The event the process is currently waiting on (None if running)."""
        return self._target

    def interrupt(self, cause: object = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        The interrupted process stops waiting on its current target (the
        target event itself is unaffected and may still fire).
        """
        if not self.is_alive:
            raise ProcessDied(f"{self!r} has terminated; cannot interrupt")
        if self._target is None:
            raise RuntimeError(f"{self!r} is not waiting; cannot interrupt now")
        target = self._target
        if target.callbacks is not None and self._resume in target.callbacks:
            target.callbacks.remove(self._resume)
        self._target = None
        carrier = Event(self.sim, name=f"interrupt:{self.name}")
        carrier.callbacks.append(self._resume)  # type: ignore[union-attr]
        carrier.fail(Interrupt(cause))
        carrier.defuse()

    # -- engine plumbing ----------------------------------------------------
    def _resume(self, event: Event) -> None:
        """Advance the generator with ``event``'s outcome."""
        self._target = None
        if not event._ok:
            event._defused = True
        self._advance(typing.cast(bool, event._ok), event._value)

    def _advance(self, ok: bool, value: object) -> None:
        """Send ``value`` into the generator (throw it, unless ``ok``) and
        go on until it waits on an event still to come, or ends."""
        sim = self.sim
        creator = sim._active_process
        sim._active_process = self
        try:
            while True:
                try:
                    if ok:
                        next_ev = self.generator.send(value)
                    else:
                        next_ev = self.generator.throw(
                            typing.cast(BaseException, value)
                        )
                except StopIteration as stop:
                    self.succeed(stop.value)
                    return
                except BaseException as err:
                    if isinstance(err, (KeyboardInterrupt, SystemExit)):  # pragma: no cover
                        raise
                    self.fail(err)
                    return
                if not isinstance(next_ev, Event):
                    # Kill the generator with a helpful error rather than
                    # hanging.
                    ok, value = False, TypeError(
                        f"process {self.name!r} yielded {next_ev!r}, which is "
                        "not an Event; yield sim.timeout(...) or another event"
                    )
                    continue
                if next_ev.sim is not sim:
                    raise ValueError(
                        "process yielded an event from a different simulator"
                    )
                if next_ev.callbacks is None:
                    # Already processed: nothing to wait for.
                    ok, value = typing.cast(bool, next_ev._ok), next_ev._value
                    continue
                next_ev.callbacks.append(self._resume)
                self._target = next_ev
                return
        finally:
            sim._active_process = creator
