"""The deterministic simkernel transport backend.

A :class:`Network` owns named :class:`Host`\\ s and directed
:class:`Link`\\ s.  Sending a message schedules its delivery after
``queueing + size/bandwidth + latency`` simulated seconds, where queueing
models FIFO serialization on the link (one transmission at a time, the
behaviour that makes bulk transfers contend).  A sender that needs time
before its first byte can leave (sealing https records) says so with
``delay_s``: the slot is still claimed at the call, in call order, and
the message is still one queue entry.  Each message is lost with
the link's loss probability, drawn from a deterministic per-link stream;
a lost message fails the sender's delivery event at the time the receiver
would have noticed (one timeout interval), so protocols can react.

:class:`Network` is also the transport interface: servers and protocol
clients are written against its ``send`` / ``host`` / ``link`` surface,
and the real-socket backend (:class:`repro.net.aio_transport.AioTransport`)
subclasses it.  :class:`~repro.net.transport.TransportSpec` selects
between the two.
"""

from __future__ import annotations

import typing
from dataclasses import dataclass
from itertools import count

from repro.net.errors import ConnectionLost, HostUnreachable, NetworkError
from repro.simkernel import Event, SimQueue, Simulator, TimeoutAt
from repro.simkernel.rng import derive_rng

if typing.TYPE_CHECKING:  # pragma: no cover
    import numpy as np

__all__ = ["Message", "Host", "Link", "Network"]

#: How long a sender waits before concluding a message was lost.
DEFAULT_TIMEOUT = 30.0


@dataclass(slots=True)
class Message:
    """One unit in flight: opaque payload plus explicit wire size."""

    sender: str
    recipient: str
    payload: object
    size_bytes: int
    #: Assigned by the owning :class:`Network` so ids (and the
    #: ``delivery:{msg_id}`` event names) are deterministic per network,
    #: independent of what else ran earlier in the process.
    msg_id: int = 0
    #: Free-form channel label ("https", "raw") for instrumentation.
    channel: str = "raw"


class Host:
    """A named machine: a message that arrives is handed to the server
    the host runs (:meth:`serve`), or kept in the inbox if it runs none."""

    def __init__(self, sim: Simulator, name: str) -> None:
        self.sim = sim
        self.name = name
        self.inbox = SimQueue(sim)
        self._sink: typing.Callable[[Message], None] = self.inbox.push
        #: Instrumentation: (bytes, messages) received.
        self.received_bytes = 0
        self.received_messages = 0

    def receive(self) -> Event:
        """Event firing with the next inbound :class:`Message` of a host
        nothing serves."""
        return self.inbox.pop()

    def serve(self, handler: typing.Callable[[Message], None]) -> None:
        """Delivery is dispatch: from now on the delivery of a message
        calls ``handler(message)``, in arrival order and at the arrival
        instant, with no mailbox and no wake-up in between.  What arrived
        earlier is handed over first, in order.
        """
        self._sink = handler
        while len(self.inbox):  # pop() of a waiting message has its value
            handler(typing.cast(Message, self.inbox.pop().value))

    def _deliver(self, message: Message) -> None:
        self.received_bytes += message.size_bytes
        self.received_messages += 1
        self._sink(message)

    def __repr__(self) -> str:
        return f"<Host {self.name}>"


class Link:
    """A directed link with latency, bandwidth, FIFO queueing, and loss."""

    def __init__(
        self,
        sim: Simulator,
        src: str,
        dst: str,
        latency_s: float,
        bandwidth_Bps: float,
        loss_probability: float,
        rng: "np.random.Generator",
    ) -> None:
        if latency_s < 0:
            raise NetworkError("latency must be non-negative")
        if bandwidth_Bps <= 0:
            raise NetworkError("bandwidth must be positive")
        if not 0.0 <= loss_probability < 1.0:
            raise NetworkError("loss probability must be in [0, 1)")
        self.sim = sim
        self.src = src
        self.dst = dst
        self.latency_s = latency_s
        self.bandwidth_Bps = bandwidth_Bps
        self.loss_probability = loss_probability
        self._rng = rng
        self._busy_until = 0.0
        #: Instrumentation.
        self.bytes_sent = 0
        self.messages_sent = 0
        self.messages_lost = 0

    def transmission_delay(self, size_bytes: int) -> float:
        return size_bytes / self.bandwidth_Bps

    def reserve(self, delay_s: float, tx_s: float = 0.0) -> float:
        """Claim the link's next slot; returns the time it starts.

        Slots go out in call order, as records on one connection do: this
        one starts ``delay_s`` from now at the earliest and not before the
        previous slot has ended, and holds the link for ``tx_s``.
        """
        start = max(self.sim.now + delay_s, self._busy_until)
        self._busy_until = start + tx_s
        return start

    def schedule(
        self,
        message: Message,
        deliver: typing.Callable[[Message], None],
        delay_s: float = 0.0,
    ) -> Event:
        """Schedule delivery; returns the sender's delivery event.

        The event succeeds at delivery time, or fails with
        :class:`ConnectionLost` after a timeout if the message is lost.
        Either way the message is ONE queue entry, placed now: the time
        the sender spends preparing it (``delay_s``) only moves its slot.
        """
        tx = self.transmission_delay(message.size_bytes)
        arrival = self.reserve(delay_s, tx) + tx + self.latency_s

        self.bytes_sent += message.size_bytes
        self.messages_sent += 1

        name = f"delivery:{message.msg_id}"
        if self.loss_probability > 0 and self._rng.random() < self.loss_probability:
            self.messages_lost += 1
            return TimeoutAt(
                self.sim, arrival + DEFAULT_TIMEOUT, name=name,
                error=ConnectionLost(
                    f"message {message.msg_id} {self.src}->{self.dst} lost"
                ),
            )
        # Delivery is the event's first callback, so the receiver has
        # the message before any waiting sender resumes.
        ev = TimeoutAt(self.sim, arrival, value=message, name=name)
        assert ev.callbacks is not None
        ev.callbacks.append(lambda _ev: deliver(message))
        return ev


class Network:
    """The fabric: hosts plus links, with deterministic loss streams."""

    #: Name of the backend (``"sim"``, ``"aio"``).
    kind = "sim"
    #: True when sends involve real I/O that must be pumped by an event
    #: loop.  The blocking :class:`~repro.api.GridSession` facade refuses
    #: realtime transports; :class:`~repro.api.aio.AsyncGridSession`
    #: drives either.
    realtime = False

    def __init__(self, sim: Simulator, seed: int = 0) -> None:
        self.sim = sim
        self.seed = seed
        self._hosts: dict[str, Host] = {}
        self._links: dict[tuple[str, str], Link] = {}
        self._msg_seq = count(1)

    # -- topology -------------------------------------------------------------
    def add_host(self, name: str) -> Host:
        if name in self._hosts:
            raise NetworkError(f"duplicate host {name!r}")
        host = Host(self.sim, name)
        self._hosts[name] = host
        return host

    def host(self, name: str) -> Host:
        try:
            return self._hosts[name]
        except KeyError:
            raise HostUnreachable(f"unknown host {name!r}") from None

    def link(
        self,
        src: str,
        dst: str,
        latency_s: float = 0.010,
        bandwidth_Bps: float = 1_250_000.0,  # 10 Mbit/s: 1999-era WAN
        loss_probability: float = 0.0,
        symmetric: bool = True,
    ) -> None:
        """Create a link (both directions unless ``symmetric=False``)."""
        for h in (src, dst):
            self.host(h)  # raises if unknown
        pairs = [(src, dst)] + ([(dst, src)] if symmetric else [])
        for a, b in pairs:
            self._links[(a, b)] = Link(
                self.sim,
                a,
                b,
                latency_s=latency_s,
                bandwidth_Bps=bandwidth_Bps,
                loss_probability=loss_probability,
                rng=derive_rng(self.seed, f"link:{a}->{b}"),
            )

    def get_link(self, src: str, dst: str) -> Link:
        try:
            return self._links[(src, dst)]
        except KeyError:
            raise HostUnreachable(f"no link {src} -> {dst}") from None

    def mark_wan(self, name: str) -> None:
        """Declare ``name`` a WAN-side (client) host.

        A realtime backend routes traffic between a WAN host and the
        server tier over real sockets; here every edge is modelled
        alike, so this is a no-op.
        """

    # -- snapshot support ------------------------------------------------------
    def state_cursors(self) -> dict[str, object]:
        """Message-id counter plus every link's loss-RNG state.

        Restoring these into an identically built network makes the
        resumed run draw the exact message ids and loss decisions the
        uninterrupted run would have — the property grid snapshots rely
        on for byte-identical outcomes.
        """
        next_id = next(self._msg_seq)
        self._msg_seq = count(next_id)  # undo the peek
        return {
            "msg_seq": next_id,
            "links": {
                f"{a}->{b}": link._rng.bit_generator.state
                for (a, b), link in sorted(self._links.items())
            },
        }

    def restore_cursors(self, cursors: dict[str, object]) -> None:
        self._msg_seq = count(int(typing.cast(int, cursors["msg_seq"])))
        states = typing.cast("dict[str, typing.Any]", cursors.get("links", {}))
        for (a, b), link in self._links.items():
            state = states.get(f"{a}->{b}")
            if state is not None:
                link._rng.bit_generator.state = state

    # -- traffic ---------------------------------------------------------------
    def send(
        self,
        src: str,
        dst: str,
        payload: object,
        size_bytes: int,
        channel: str = "raw",
        deliver: bool = True,
        delay_s: float = 0.0,
    ) -> Event:
        """Send; returns the delivery event (fails on loss after timeout).

        ``delay_s`` is time the sender needs before the first byte can
        leave (sealing https records).  The message takes its place on
        the ``src -> dst`` edge now and leaves no earlier than
        ``now + delay_s``; messages on one edge leave in call order.

        With ``deliver=False`` the message still occupies the link and
        counts in statistics but is not delivered to the destination host
        (used for handshake flights the peer's logic handles inline).
        """
        if size_bytes < 0:
            raise NetworkError("message size must be non-negative")
        destination = self.host(dst)
        link = self.get_link(src, dst)
        message = Message(
            sender=src, recipient=dst, payload=payload,
            size_bytes=size_bytes, msg_id=next(self._msg_seq),
            channel=channel,
        )
        sink = destination._deliver if deliver else (lambda _message: None)
        return link.schedule(message, sink, delay_s)

    @property
    def hosts(self) -> list[str]:
        return sorted(self._hosts)

    def total_bytes_sent(self) -> int:
        return sum(link.bytes_sent for link in self._links.values())

    def total_messages_lost(self) -> int:
        return sum(link.messages_lost for link in self._links.values())
