"""Event primitives for the simulation kernel.

An :class:`Event` is a one-shot occurrence in simulated time.  Events move
through three states: *pending* (created, not yet triggered), *triggered*
(on the simulator's queue with a value or an error, because somebody
waits for it), and *processed* (callbacks have run).  The queue is for
waking waiters, so an event that succeeds with nobody waiting goes from
pending to processed directly and costs the run loop nothing; whoever
asks later (a ``yield``, ``run(until=)``, a condition) finds the value
there.  A failure always takes the queue, so that one nobody handles
surfaces at its instant; a :class:`Timeout` does, since the time is what
it is for.  Processes wait on events by yielding them; composite events
(:class:`AllOf`, :class:`AnyOf`) let a process wait on conjunctions and
disjunctions.  A wait with a time limit is :meth:`Simulator.deadline`:
the awaited event itself resolves with :data:`EXPIRED`, no second event
and no condition.
"""

from __future__ import annotations

import typing

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.simkernel.engine import Simulator

__all__ = [
    "Event",
    "Timeout",
    "TimeoutAt",
    "AllOf",
    "AnyOf",
    "Interrupt",
    "EventAborted",
    "PENDING",
    "EXPIRED",
]


class _PendingType:
    """Sentinel for an event value that has not been set."""

    _instance: "_PendingType | None" = None

    def __new__(cls) -> "_PendingType":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "<PENDING>"


PENDING = _PendingType()


class _ExpiredType:
    """Sentinel value of an event whose :meth:`Simulator.deadline` passed."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "<EXPIRED>"


EXPIRED = _ExpiredType()


class Interrupt(Exception):
    """Raised inside a process that another process interrupted.

    The ``cause`` is whatever the interrupter supplied; it is carried on
    ``args[0]``.
    """

    @property
    def cause(self) -> object:
        return self.args[0] if self.args else None


class EventAborted(Exception):
    """Raised when waiting on an event that failed (triggered with an error)."""

    def __init__(self, cause: BaseException) -> None:
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot occurrence that processes can wait on.

    Parameters
    ----------
    sim:
        The simulator this event belongs to.
    name:
        Optional label used in ``repr`` and error messages.
    """

    __slots__ = ("sim", "name", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, sim: "Simulator", name: str | None = None) -> None:
        self.sim = sim
        self.name = name
        #: Callables invoked with this event once it is processed.  ``None``
        #: once the event has been processed (further appends are an error).
        self.callbacks: list[typing.Callable[["Event"], None]] | None = []
        self._value: object = PENDING
        self._ok: bool | None = None
        self._defused = False

    # -- state ------------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled with a value or error."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have been invoked."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only meaningful once triggered."""
        if self._ok is None:
            raise RuntimeError(f"{self!r} has not been triggered")
        return self._ok

    @property
    def value(self) -> object:
        """The value the event was triggered with (or the exception)."""
        if self._value is PENDING:
            raise RuntimeError(f"{self!r} has not been triggered")
        return self._value

    # -- triggering -------------------------------------------------------
    def succeed(self, value: object = None) -> "Event":
        """Trigger the event successfully with ``value``.

        With nobody waiting there is nobody to wake: the event is
        processed here and never enters the queue.
        """
        if self._value is not PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        if self.callbacks:
            self.sim._schedule(self)
        else:
            self.callbacks = None
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an error.

        A process waiting on the event will see the exception re-raised at
        its ``yield``.  If nobody waits, the simulator raises the error at
        processing time to avoid silently swallowed failures — call
        :meth:`defuse` to opt out.
        """
        if not isinstance(exception, BaseException):
            raise TypeError(f"fail() needs an exception, got {exception!r}")
        if self._value is not PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._ok = False
        self._value = exception
        self.sim._schedule(self)
        return self

    def trigger(self, event: "Event") -> None:
        """Trigger this event with the state of another event (chaining)."""
        if event._ok:
            self.succeed(event._value)
        else:
            self.fail(typing.cast(BaseException, event._value))

    def defuse(self) -> "Event":
        """Mark a failed event as handled so the simulator will not crash."""
        self._defused = True
        return self

    # -- composition --------------------------------------------------------
    def __and__(self, other: "Event") -> "AllOf":
        return AllOf(self.sim, [self, other])

    def __or__(self, other: "Event") -> "AnyOf":
        return AnyOf(self.sim, [self, other])

    def __repr__(self) -> str:
        label = self.name or self.__class__.__name__
        state = (
            "processed"
            if self.processed
            else "triggered"
            if self.triggered
            else "pending"
        )
        return f"<{label} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires ``delay`` units of simulated time after creation."""

    __slots__ = ("delay",)

    def __init__(
        self,
        sim: "Simulator",
        delay: float,
        value: object = None,
        name: str | None = None,
    ) -> None:
        if delay < 0:
            raise ValueError(f"negative timeout delay {delay!r}")
        super().__init__(sim, name=name or f"Timeout({delay})")
        self.delay = float(delay)
        self._ok = True
        self._value = value
        sim._schedule(self, delay=self.delay)


class TimeoutAt(Event):
    """An event whose outcome is fixed now and processed at time ``when``.

    ``Timeout(sim, when - sim.now)`` lands on ``now + (when - now)``, which
    can round an ulp off ``when``; a caller that has computed an absolute
    time (a link's arrival time) gets exactly that time here, whenever it
    asks.  With ``error`` the event fails at ``when`` instead of succeeding.
    """

    __slots__ = ()

    def __init__(
        self,
        sim: "Simulator",
        when: float,
        value: object = None,
        name: str | None = None,
        error: BaseException | None = None,
    ) -> None:
        if when < sim.now:
            raise ValueError(f"time {when!r} is in the past (now {sim.now!r})")
        super().__init__(sim, name=name)
        self._ok = error is None
        self._value = value if error is None else error
        sim._schedule_at(self, when)


class _Condition(Event):
    """Base for AllOf/AnyOf: waits on a set of events."""

    __slots__ = ("events", "_count")

    def __init__(self, sim: "Simulator", events: typing.Iterable[Event]) -> None:
        super().__init__(sim)
        self.events: tuple[Event, ...] = tuple(events)
        self._count = 0
        for ev in self.events:
            if ev.sim is not sim:
                raise ValueError("cannot mix events from different simulators")
        if not self.events:
            self.succeed({})
            return
        for ev in self.events:
            if ev.processed:
                self._check(ev)
            else:
                assert ev.callbacks is not None
                ev.callbacks.append(self._check)

    def _collect(self) -> dict[Event, object]:
        return {ev: ev._value for ev in self.events if ev.processed and ev._ok}

    def _check(self, event: Event) -> None:
        raise NotImplementedError


class AllOf(_Condition):
    """Fires when every constituent event has fired; fails fast on failure."""

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        if not event._ok:
            event._defused = True
            self.fail(typing.cast(BaseException, event._value))
            return
        self._count += 1
        if self._count == len(self.events):
            self.succeed(self._collect())


class AnyOf(_Condition):
    """Fires as soon as any constituent event fires."""

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        if not event._ok:
            event._defused = True
            self.fail(typing.cast(BaseException, event._value))
            return
        self.succeed({event: event._value})
