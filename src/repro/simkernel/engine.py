"""The simulation engine: clock + event queue + run loop."""

from __future__ import annotations

import heapq
import typing
from collections import deque
from itertools import count

from repro.simkernel.events import EXPIRED, AllOf, AnyOf, Event, Timeout
from repro.simkernel.process import Process

__all__ = ["CallbackSlot", "Simulator"]

#: asyncio's rule for dead timers (``BaseEventLoop._run_once``): once the
#: heap holds more than this many entries and more than half of them are
#: cancelled slots, it is rebuilt from the live ones.  The cancel that
#: tips it does so, so a step pops only the head its caller could peek.
COMPACT_FLOOR = 100


class CallbackSlot:
    """A pre-bound callback sitting directly on the event heap.

    The hot path of the network layer schedules one callback per message;
    allocating a full :class:`Timeout` (event object + callback list +
    closure) for each one dominated the profile.  A slot holds just the
    function and its arguments and is dispatched by the run loop without
    touching the event machinery.
    """

    __slots__ = ("fn", "args", "cancelled", "_sim")

    def __init__(
        self, fn: typing.Callable[..., object], args: tuple, sim: Simulator
    ) -> None:
        self.fn = fn
        self.args = args
        self.cancelled = False
        #: The simulator whose heap holds the slot; None once popped.
        self._sim: Simulator | None = sim

    def cancel(self) -> None:
        """Drop the callback and what it held on to; the heap entry is
        skipped when its time comes, uncounted and without moving the
        clock, or dropped sooner when the heap is compacted."""
        self.cancelled = True
        self.args = ()
        sim = self._sim
        if sim is not None:
            self._sim = None
            sim._dead += 1
            if sim._dead * 2 > len(sim._queue) > COMPACT_FLOOR:
                sim._compact()

    def __repr__(self) -> str:
        state = " cancelled" if self.cancelled else ""
        return f"<CallbackSlot {getattr(self.fn, '__name__', self.fn)!r}{state}>"


def _expire(event: Event) -> None:
    if not event.triggered:
        event.succeed(EXPIRED)


def _observed(event: Event) -> None:
    """What :meth:`Simulator.run` hangs on the event it runs until: the
    run returns its outcome, so a failure is not unhandled."""
    event._defused = True


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
        #: Woken events whose waiters have yet to run, and whether a
        #: :meth:`_wake` is draining them (see :meth:`Event.wake`).
        self._ready: deque[Event] = deque()
        self._waking = False
        self._active_process: Process | None = None
        self._processed_count = 0
        self._callbacks_run = 0
        self._peak_heap = 0
        #: Cancelled slots still on the heap.
        self._dead = 0

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
            "heap_size": len(self._queue) - self._dead,
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
        slot = CallbackSlot(fn, args, self)
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

    def _wake(self, event: Event) -> None:
        """Run the waiters of a woken ``event`` now: at once if no wake
        is running, else after the running one's waiters return."""
        ready = self._ready
        ready.append(event)
        if self._waking:
            return
        self._waking = True
        try:
            while ready:
                woken = ready.popleft()
                callbacks = woken.callbacks
                woken.callbacks = None
                assert callbacks is not None
                for cb in callbacks:
                    cb(woken)
        finally:
            self._waking = False
            # A waiter raised: the wakes it left behind go to the queue.
            while ready:
                self._schedule(ready.popleft())

    # -- run loop ------------------------------------------------------------
    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if the queue is empty."""
        return self._queue[0][0] if self._queue else float("inf")

    def _compact(self) -> None:
        """Rebuild the heap in place from its live entries.  ``(when,
        seq)`` orders the entries totally, so what is popped, and when,
        does not change; a cancel calls this, never a step, so the head a
        caller of :meth:`step` peeked at is the entry it pops."""
        queue = self._queue
        queue[:] = [
            entry for entry in queue
            if type(entry[2]) is not CallbackSlot or not entry[2].cancelled
        ]
        heapq.heapify(queue)
        self._dead = 0

    def step(self) -> None:
        """Process exactly one entry (advancing the clock to it); a
        cancelled slot is dropped and leaves the clock where it is."""
        queue = self._queue
        if not queue:
            raise RuntimeError("step() on an empty event queue")
        when, _, item = heapq.heappop(queue)
        if when < self._now:  # pragma: no cover - guarded by _schedule
            raise RuntimeError("event scheduled in the past")
        if type(item) is CallbackSlot:
            if item.cancelled:
                self._dead -= 1
            else:
                item._sim = None
                self._now = when
                self._processed_count += 1
                self._callbacks_run += 1
                item.fn(*item.args)
            return
        self._now = when
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
            stop_event.callbacks.append(_observed)
        else:
            stop_at = float(until)
            stop_event = None
            timed = True
            if stop_at < self._now:
                raise ValueError(
                    f"cannot run until {stop_at} (clock already at {self._now})"
                )

        while self._queue:
            if self._queue[0][0] > stop_at:
                self._now = stop_at
                return None
            self.step()
            if stop_event is not None and stop_event.callbacks is None:
                # Processed in that step, or woken inside it.
                if stop_event._ok:
                    return stop_event._value
                raise typing.cast(BaseException, stop_event._value)
        if stop_event is not None:
            raise RuntimeError(
                f"simulation queue drained before {stop_event!r} triggered"
            )
        if timed:
            self._now = stop_at
        return None

    def __repr__(self) -> str:
        return f"<Simulator t={self._now:.6g} queued={len(self._queue)}>"
