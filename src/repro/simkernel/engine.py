"""The simulation engine: clock + event queue + run loop."""

from __future__ import annotations

import heapq
import typing
from itertools import count

from repro.simkernel.events import EXPIRED, AllOf, AnyOf, Event, Timeout
from repro.simkernel.process import Process

__all__ = ["CallbackSlot", "Simulator", "StopSimulation"]


class StopSimulation(Exception):
    """Raised internally to halt :meth:`Simulator.run` from a callback."""


class CallbackSlot:
    """A pre-bound callback sitting directly on the event heap.

    The hot path of the network layer schedules one callback per message;
    allocating a full :class:`Timeout` (event object + callback list +
    closure) for each one dominated the profile.  A slot holds just the
    function and its arguments and is dispatched by the run loop without
    touching the event machinery.
    """

    __slots__ = ("fn", "args", "cancelled")

    def __init__(self, fn: typing.Callable[..., object], args: tuple) -> None:
        self.fn = fn
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        """Drop the callback and what it held on to; the heap entry is
        skipped, uncounted, when its time comes."""
        self.cancelled = True
        self.args = ()

    def __repr__(self) -> str:
        state = " cancelled" if self.cancelled else ""
        return f"<CallbackSlot {getattr(self.fn, '__name__', self.fn)!r}{state}>"


def _expire(event: Event) -> None:
    if not event.triggered:
        event.succeed(EXPIRED)


class Simulator:
    """A deterministic discrete-event simulator.

    The simulator owns the clock (:attr:`now`) and the pending-event queue.
    Events scheduled at equal times are processed in scheduling order
    (FIFO), which keeps runs reproducible.

    Parameters
    ----------
    start:
        Initial value of the simulated clock (default ``0.0``).
    """

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)
        self._queue: list[tuple[float, int, Event | CallbackSlot]] = []
        self._seq = count()
        self._active_process: Process | None = None
        self._processed_count = 0
        self._callbacks_run = 0
        self._peak_heap = 0

    # -- clock -------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    @property
    def active_process(self) -> Process | None:
        """The process currently being resumed, if any."""
        return self._active_process

    @property
    def processed_events(self) -> int:
        """Total number of events processed so far (instrumentation)."""
        return self._processed_count

    @property
    def events_processed(self) -> int:
        """Alias of :attr:`processed_events` (benchmark metric name)."""
        return self._processed_count

    def profile(self) -> dict[str, float]:
        """A snapshot of run-loop counters for throughput analysis;
        ``heap_size`` is what is still due (cancelled slots are not)."""
        return {
            "now": self._now,
            "events_processed": self._processed_count,
            "callbacks_run": self._callbacks_run,
            "heap_size": sum(
                not getattr(item, "cancelled", False) for _, _, item in self._queue
            ),
            "peak_heap_size": self._peak_heap,
        }

    # -- factories -----------------------------------------------------------
    def event(self, name: str | None = None) -> Event:
        """Create a new pending event."""
        return Event(self, name=name)

    def timeout(
        self, delay: float, value: object = None, name: str | None = None
    ) -> Timeout:
        """Create an event that fires ``delay`` time units from now."""
        return Timeout(self, delay, value=value, name=name)

    def process(
        self,
        generator: typing.Generator[Event, object, object],
        name: str | None = None,
    ) -> Process:
        """Start a new process running ``generator``."""
        return Process(self, generator, name=name)

    def all_of(self, events: typing.Iterable[Event]) -> AllOf:
        """An event that fires when all of ``events`` have fired."""
        return AllOf(self, events)

    def any_of(self, events: typing.Iterable[Event]) -> AnyOf:
        """An event that fires when any of ``events`` has fired."""
        return AnyOf(self, events)

    # -- scheduling ----------------------------------------------------------
    def _schedule(self, event: Event, delay: float = 0.0) -> None:
        """Place a triggered event on the queue ``delay`` from now."""
        queue = self._queue
        heapq.heappush(queue, (self._now + delay, next(self._seq), event))
        if len(queue) > self._peak_heap:
            self._peak_heap = len(queue)

    def _schedule_at(self, event: Event, when: float) -> None:
        """Place a triggered event on the queue at the absolute time ``when``."""
        queue = self._queue
        heapq.heappush(queue, (when, next(self._seq), event))
        if len(queue) > self._peak_heap:
            self._peak_heap = len(queue)

    def schedule_callback(
        self, delay: float, fn: typing.Callable[..., object], *args: object
    ) -> CallbackSlot:
        """Run ``fn(*args)`` ``delay`` time units from now.

        Returns a cancellable slot.  Unlike :meth:`timeout`, no event
        object is allocated: the slot goes straight on the heap and the
        run loop invokes ``fn`` directly, which makes this the cheap path
        for fire-and-forget work (message delivery, timers that are never
        waited on).
        """
        slot = CallbackSlot(fn, args)
        queue = self._queue
        heapq.heappush(queue, (self._now + delay, next(self._seq), slot))
        if len(queue) > self._peak_heap:
            self._peak_heap = len(queue)
        return slot

    def deadline(self, event: Event, delay: float) -> CallbackSlot:
        """Give a pending ``event`` ``delay`` time units to happen.

        If it is still pending then, it succeeds with :data:`EXPIRED`: a
        waiter races nothing, it yields the event and looks at the value.
        Cancel the returned slot once the wait is over, so that a limit
        nobody needs any more is never charged to the run loop.
        """
        return self.schedule_callback(delay, _expire, event)

    # -- run loop ------------------------------------------------------------
    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if the queue is empty."""
        return self._queue[0][0] if self._queue else float("inf")

    def step(self) -> None:
        """Process exactly one event (advancing the clock to it)."""
        if not self._queue:
            raise RuntimeError("step() on an empty event queue")
        when, _, item = heapq.heappop(self._queue)
        if when < self._now:  # pragma: no cover - guarded by _schedule
            raise RuntimeError("event scheduled in the past")
        self._now = when
        if type(item) is CallbackSlot:
            if not item.cancelled:
                self._processed_count += 1
                self._callbacks_run += 1
                item.fn(*item.args)
            return
        event = typing.cast(Event, item)
        callbacks = event.callbacks
        event.callbacks = None
        self._processed_count += 1
        assert callbacks is not None
        for cb in callbacks:
            cb(event)
        if not event._ok and not event._defused:
            exc = typing.cast(BaseException, event._value)
            raise exc

    def run(self, until: "float | Event | None" = None) -> object:
        """Run the simulation.

        Parameters
        ----------
        until:
            ``None``
                run until the event queue drains;
            a number
                run until the clock reaches that time;
            an :class:`Event`
                run until that event is processed, returning its value (or
                raising its exception).
        """
        timed = False
        if until is None:
            stop_at = float("inf")
            stop_event: Event | None = None
        elif isinstance(until, Event):
            stop_at = float("inf")
            stop_event = until
            if stop_event.callbacks is None:
                # Already processed.
                if stop_event._ok:
                    return stop_event._value
                raise typing.cast(BaseException, stop_event._value)
            stop_event.callbacks.append(self._stop_callback)
        else:
            stop_at = float(until)
            stop_event = None
            timed = True
            if stop_at < self._now:
                raise ValueError(
                    f"cannot run until {stop_at} (clock already at {self._now})"
                )

        try:
            while self._queue:
                if self._queue[0][0] > stop_at:
                    self._now = stop_at
                    return None
                self.step()
        except StopSimulation:
            assert stop_event is not None
            if stop_event._ok:
                return stop_event._value
            exc = typing.cast(BaseException, stop_event._value)
            stop_event._defused = True
            raise exc from None
        if stop_event is not None:
            raise RuntimeError(
                f"simulation queue drained before {stop_event!r} triggered"
            )
        if timed:
            self._now = stop_at
        return None

    @staticmethod
    def _stop_callback(event: Event) -> None:
        event._defused = True
        raise StopSimulation()

    def __repr__(self) -> str:
        return f"<Simulator t={self._now:.6g} queued={len(self._queue)}>"
