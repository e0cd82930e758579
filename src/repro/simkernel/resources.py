"""Shared simulation resources: stores and FIFO queues.

These are the synchronization primitives the higher tiers use: a
:class:`Store` holds items for blocking consumers, and mailbox-style
loops block on :class:`SimQueue`.
"""

from __future__ import annotations

import math
import collections
import typing

from repro.simkernel.events import Event

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.simkernel.engine import Simulator

__all__ = ["Store", "SimQueue"]


class Store:
    """An unbounded (or capacity-bounded) store of Python objects.

    ``put`` succeeds immediately unless the store is at capacity; ``get``
    returns an event that fires with the oldest item once one is available.
    FIFO on both sides, so consumers are served in arrival order.
    """

    def __init__(self, sim: "Simulator", capacity: float = math.inf) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.sim = sim
        self.capacity = capacity
        self.items: collections.deque[object] = collections.deque()
        self._getters: collections.deque[Event] = collections.deque()
        self._putters: collections.deque[tuple[Event, object]] = collections.deque()

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: object) -> Event:
        """Add ``item``; the returned event fires when the item is stored."""
        ev = Event(self.sim, name="store.put")
        if len(self.items) < self.capacity:
            self.items.append(item)
            ev.succeed()
            self._dispatch()
        else:
            self._putters.append((ev, item))
        return ev

    def put_nowait(self, item: object) -> None:
        """Fire-and-forget ``put`` for callers that never block on it.

        Skips the ``store.put`` event allocation entirely — important on
        the message hot path, where every inbox push would otherwise cost
        one event-queue round trip.  Raises if the store is at capacity
        (a fire-and-forget put cannot wait).
        """
        if len(self.items) >= self.capacity:
            raise ValueError("put_nowait on a full store")
        self.items.append(item)
        self._dispatch()

    def get(self) -> Event:
        """The returned event fires with the next item."""
        ev = Event(self.sim, name="store.get")
        self._getters.append(ev)
        self._dispatch()
        return ev

    def _dispatch(self) -> None:
        while self._getters and self.items:
            getter = self._getters.popleft()
            getter.succeed(self.items.popleft())
            while self._putters and len(self.items) < self.capacity:
                put_ev, item = self._putters.popleft()
                self.items.append(item)
                put_ev.succeed()


class SimQueue:
    """A FIFO message queue with blocking ``get`` — sugar over :class:`Store`.

    Used for mailbox-style communication between simulated components.
    """

    def __init__(self, sim: "Simulator") -> None:
        self._store = Store(sim)

    def __len__(self) -> int:
        return len(self._store)

    def push(self, item: object) -> None:
        self._store.put_nowait(item)

    def pop(self) -> Event:
        """Event that fires with the oldest item."""
        return self._store.get()
