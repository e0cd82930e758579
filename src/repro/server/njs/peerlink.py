"""The NJS-NJS link: peer messages, https routes, correlation, streams.

Section 5.6: NJS-to-NJS traffic travels "via the gateway" — NJS → own
gateway → peer gateway → peer NJS.  :class:`PeerLink` is the one place
that knows a route, an SSL session, a correlation id or a stream id; the
rest of the NJS says *what* goes to *which* Usite (:meth:`PeerLink.send`,
:meth:`PeerLink.stream`) and which reply it waits for
(:meth:`PeerLink.expect`).  The federation broker's hub reaches the
NJSs over a link of its own: same hops, same resends, same handshake.
"""

from __future__ import annotations

import types
import typing
from dataclasses import dataclass, field
from itertools import count

from repro.broker.advertise import BROKER_PEER, ReclaimAck
from repro.net.errors import ConnectionLost
from repro.net.https import DEFAULT_PER_RECORD_CPU_S, HANDSHAKE_MESSAGE_BYTES
from repro.net.sim_transport import Network
from repro.protocol.datapath import (
    DEFAULT_CHUNK_BYTES,
    StreamIdAllocator,
    body_sender,
    send_stream,
)
from repro.security.ssl import HANDSHAKE_ROUND_TRIPS, SSLSession
from repro.simkernel import Event, Simulator
from repro.vfs.body import FileBody

__all__ = [
    "PeerLink",
    "ForwardGroup",
    "GroupResult",
    "PeerFrame",
    "TransferAck",
    "CancelGroup",
]

#: Bounded resend attempts for NJS-NJS messages on unreliable links
#: (the same asynchronous-protocol philosophy as the client tier).
PEER_RETRIES = 6
PEER_RETRY_DELAY_S = 5.0

Route = typing.Sequence[tuple[str, str]]


# --------------------------------------------------------- NJS-NJS messages
@dataclass(slots=True)
class ForwardGroup:
    """A job group consigned to a peer NJS (section 4.3: servers exchange
    '(parts of) UNICORE jobs')."""

    corr_id: int
    reply_usite: str
    parent_job_id: str
    user_dn: str
    ajo_bytes: bytes
    #: Workstation + staged dependency files the group needs, path->bytes.
    staged_files: dict[str, bytes] = field(default_factory=dict)
    #: Files the parent needs back when the group completes.
    return_files: tuple[str, ...] = ()
    #: Trace context so the peer NJS extends the same per-job trace.
    trace_id: str = ""
    parent_span_id: str = ""

    @property
    def wire_payload(self) -> int:
        return (
            len(self.ajo_bytes)
            + sum(len(v) for v in self.staged_files.values())
            + 512
        )


@dataclass(slots=True)
class GroupResult:
    """Completion report for a forwarded group."""

    corr_id: int
    ok: bool
    outcome_bytes: bytes = b""
    produced_files: dict[str, bytes] = field(default_factory=dict)
    error: str = ""

    @property
    def wire_payload(self) -> int:
        return (
            len(self.outcome_bytes)
            + sum(len(v) for v in self.produced_files.values())
            + 512
        )


@dataclass(slots=True)
class PeerFrame:
    """One data-plane frame tunnelled on an NJS-NJS https route.

    Bulk bytes (Uspace transfers, forwarded staging, group returns) no
    longer ride whole inside control messages: they travel as chunked
    :mod:`repro.net.stream` frames so control traffic interleaves and a
    lost chunk resumes alone.
    """

    raw: bytes

    @property
    def wire_payload(self) -> int:
        return len(self.raw)


@dataclass(slots=True)
class TransferAck:
    corr_id: int
    ok: bool
    error: str = ""

    @property
    def wire_payload(self) -> int:
        return 128 + len(self.error)


@dataclass(slots=True)
class CancelGroup:
    """Cancellation propagated to a peer holding a forwarded group."""

    corr_id: int
    parent_job_id: str

    @property
    def wire_payload(self) -> int:
        return 128


class PeerLink:
    """One party's routed https connections: an NJS's to its peer Usites
    and the broker hub, or the hub's to every NJS."""

    def __init__(self, sim: Simulator, network: Network, usite_name: str) -> None:
        self._sim = sim
        self._network = network
        self._routes: dict[str, Route] = {}
        #: Peer Usite -> route hops, read-only.
        self.routes: typing.Mapping[str, Route] = types.MappingProxyType(
            self._routes
        )
        #: Route to the federation broker hub, when one is attached.
        self._broker_route: Route | None = None
        #: Peers the SSL handshake has been paid for in this life.
        self._sessions: set[str] = set()
        self._corr_seq = count(1)
        #: corr_id -> the event its reply resolves.
        self._pending: dict[int, Event] = {}
        self._stream_ids = StreamIdAllocator(f"njs:{usite_name}")

    # ------------------------------------------------------------ wiring
    def register(self, usite: str, route: Route) -> None:
        """Register the https route (host hops) to a peer Usite's NJS."""
        self._routes[usite] = tuple(route)

    def register_broker(self, route: Route) -> None:
        """Register the https route to the federation broker hub.

        Kept out of :attr:`routes` so the pseudo-peer never passes AJO
        destination validation as a consignable Usite.
        """
        self._broker_route = tuple(route)

    @property
    def has_broker(self) -> bool:
        return self._broker_route is not None

    # ------------------------------------------------------- correlation
    def next_corr_id(self) -> int:
        return next(self._corr_seq)

    def expect(self, what: str) -> tuple[int, Event]:
        """A fresh correlation id and the event the reply carrying it
        will succeed (with the reply message as its value)."""
        corr_id = self.next_corr_id()
        event = self._sim.event(name=f"{what}:{corr_id}")
        self._pending[corr_id] = event
        return corr_id, event

    def expecting(self, corr_id: int) -> bool:
        return corr_id in self._pending

    def resolve(self, reply: "GroupResult | TransferAck | ReclaimAck") -> None:
        """Hand a reply to whoever expects it; nobody does after a crash
        or an :meth:`abandon`, and then it is dropped."""
        waiter = self._pending.pop(reply.corr_id, None)
        if waiter is not None and not waiter.triggered:  # else: just expired
            waiter.succeed(reply)

    def abandon(self, corr_id: int) -> None:
        """Stop expecting a reply (its request was lost for good)."""
        self._pending.pop(corr_id, None)

    def reset(self) -> None:
        """The process died: nobody waits for a reply any more, and the
        SSL sessions to peers died with it (re-handshake on next use)."""
        self._pending.clear()
        self._sessions.clear()

    # ------------------------------------------------------------ sending
    def send(self, usite: str, message: typing.Any):
        """Send ``message`` via the https route to ``usite``'s NJS.

        Lost messages are resent up to :data:`PEER_RETRIES` times per
        hop; after that :class:`ConnectionLost` propagates to the
        caller, which fails the affected action.
        """
        yield from self._send(usite, message, PEER_RETRIES)

    def try_send(self, usite: str, message: typing.Any):
        """:meth:`send` for a message nobody can act on losing: returns
        whether it arrived instead of raising."""
        try:
            yield from self.send(usite, message)
        except ConnectionLost:
            return False
        return True

    def stream(self, usite: str, data: FileBody | bytes, context: dict,
               chunk_bytes: int = DEFAULT_CHUNK_BYTES):
        """Stream a bulk payload to a peer NJS, one chunked frame at a time.

        Frames carry the chunk CRCs ``data`` holds (the ones this site
        verified when the bytes arrived); only a body nobody has cut at
        ``chunk_bytes`` before is read to compute them.

        Each chunk travels as its own :class:`PeerFrame` hop sequence, so
        control messages sharing the route's links wait for at most one
        chunk's serialization.  A chunk lost mid-route is retransmitted
        *alone* — the stream resumes from the last acknowledged chunk
        (``stream.resumes``) instead of restarting, which is what makes
        WAN-drop faults survivable for multi-megabyte transfers.
        """
        sender = body_sender(
            self._stream_ids.next(), FileBody.of(data), context, chunk_bytes
        )

        def send_frame(raw: bytes):
            # retries=0: a loss surfaces in send_stream (per-chunk
            # resume) instead of being hidden inside the hop machinery.
            return self._send(usite, PeerFrame(raw), 0)

        yield from send_stream(self._sim, sender, send_frame)

    def _send(self, usite: str, payload: typing.Any, retries: int):
        """NJS -> gateway -> peer gateway -> NJS, ``retries`` per hop.

        First use of a route pays the SSL handshake round trips end to
        end.  Every hop carries the record-framed byte count; endpoint
        seal/open CPU is charged once.
        """
        if usite == BROKER_PEER:
            assert self._broker_route is not None, "no broker route registered"
            route = self._broker_route
        else:
            route = self._routes[usite]
        if usite not in self._sessions:
            for _ in range(HANDSHAKE_ROUND_TRIPS):
                for src, dst in route:
                    yield from self._reliable_hop(
                        src, dst, ("hs",), HANDSHAKE_MESSAGE_BYTES, "njs-handshake",
                        False, PEER_RETRIES,
                    )
                for src, dst in [(b, a) for a, b in reversed(route)]:
                    yield from self._reliable_hop(
                        src, dst, ("hs-ack",), HANDSHAKE_MESSAGE_BYTES, "njs-handshake",
                        False, PEER_RETRIES,
                    )
            self._sessions.add(usite)
        size = payload.wire_payload
        records = SSLSession.record_count(size)
        wire = SSLSession.wire_bytes(size)
        yield self._sim.timeout(records * DEFAULT_PER_RECORD_CPU_S)  # seal
        last = len(route) - 1
        for i, (src, dst) in enumerate(route):
            yield from self._reliable_hop(
                src, dst, payload, wire, "njs-njs", i == last, retries
            )
        yield self._sim.timeout(records * DEFAULT_PER_RECORD_CPU_S)  # open

    def _reliable_hop(
        self, src: str, dst: str, payload: typing.Any, wire: int,
        channel: str, deliver: bool, retries: int,
    ):
        """One hop with bounded retransmission."""
        last_error: Exception | None = None
        for attempt in range(1 + retries):
            try:
                yield self._network.send(
                    src, dst, payload, wire, channel=channel, deliver=deliver
                )
                return
            except ConnectionLost as err:
                last_error = err
                if attempt < retries:
                    yield self._sim.timeout(PEER_RETRY_DELAY_S)
        assert last_error is not None
        raise last_error
