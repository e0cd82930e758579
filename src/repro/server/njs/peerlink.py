"""The NJS-NJS link: peer messages, https routes, replies, streams.

Section 5.6: NJS-to-NJS traffic travels "via the gateway" — NJS → own
gateway → peer gateway → peer NJS.  :class:`PeerLink` is the one place
that knows a route, an SSL session or a stream id; the rest of the NJS
says *what* goes to *which* Usite (:meth:`PeerLink.send`,
:meth:`PeerLink.stream`) and which reply it waits for
(:meth:`PeerLink.expect`).  Only NJSs ride it: the federation broker is
a client of the sites and reaches them through their gateways' verbs.
A reply is named by what both ends hold in every life (:data:`ReplyKey`),
so one that comes home after a restart reaches the replayed wait.
"""

from __future__ import annotations

import types
import typing
from dataclasses import dataclass, field

from repro.net.errors import ConnectionLost
from repro.net.https import DEFAULT_PER_RECORD_CPU_S, HANDSHAKE_MESSAGE_BYTES
from repro.net.sim_transport import Network
from repro.net.stream import WireFrame
from repro.protocol.datapath import (
    DEFAULT_CHUNK_BYTES,
    FileEntry,
    Manifest,
    StreamIdAllocator,
    send_body,
)
from repro.security.ssl import HANDSHAKE_ROUND_TRIPS, SSLSession
from repro.simkernel import Event, Simulator
from repro.storage.journal import Parent
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

#: A reply's name: ``(parent job id, group id)`` for a group's result,
#: ``(job id, task id)`` for a transfer's ack (action ids survive the codec).
ReplyKey = tuple[str, str]


def _inline_bytes(files: Manifest) -> int:
    """What a manifest adds to its message: the inline files' bytes (a
    streamed one crossed ahead, in its own frames)."""
    return sum(len(v) for v in files.values() if not isinstance(v, FileEntry))


# --------------------------------------------------------- NJS-NJS messages
@dataclass(slots=True)
class ForwardGroup:
    """A job group consigned to a peer NJS (section 4.3: servers exchange
    '(parts of) UNICORE jobs'): the group ``group_id`` of the job
    ``parent`` names, encoded in ``ajo_bytes``."""

    parent: Parent
    group_id: str
    user_dn: str
    ajo_bytes: bytes
    #: Workstation + staged dependency files the group needs.
    files: Manifest = field(default_factory=dict)
    #: Trace context so the peer NJS extends the same per-job trace.
    trace_id: str = ""
    parent_span_id: str = ""

    @property
    def wire_payload(self) -> int:
        return len(self.ajo_bytes) + _inline_bytes(self.files) + 512


@dataclass(slots=True)
class GroupResult:
    """Completion report for a forwarded group."""

    key: ReplyKey
    ok: bool
    outcome_bytes: bytes = b""
    #: The files the parent asked back.
    files: Manifest = field(default_factory=dict)
    error: str = ""

    @property
    def wire_payload(self) -> int:
        return len(self.outcome_bytes) + _inline_bytes(self.files) + 512


@dataclass(slots=True)
class PeerFrame:
    """One data-plane frame tunnelled on an NJS-NJS https route.

    Bulk bytes (Uspace transfers, forwarded staging, group returns) no
    longer ride whole inside control messages: they travel as chunked
    :mod:`repro.net.stream` frames so control traffic interleaves and a
    lost chunk resumes alone.
    """

    raw: WireFrame

    @property
    def wire_payload(self) -> int:
        return len(self.raw)


@dataclass(slots=True)
class TransferAck:
    key: ReplyKey
    ok: bool
    error: str = ""

    @property
    def wire_payload(self) -> int:
        return 128 + len(self.error)


@dataclass(slots=True)
class CancelGroup:
    """Cancellation propagated to a peer holding a forwarded group, or
    with ``dispose`` the parent job's disposal."""

    parent_job_id: str
    dispose: bool = False

    @property
    def wire_payload(self) -> int:
        return 128


class PeerLink:
    """One NJS's routed https connections to its peer Usites."""

    def __init__(
        self, sim: Simulator, network: Network, usite_name: str,
        socket_host: str | None = None,
    ) -> None:
        """``socket_host`` is the NJS host of a firewall-split site: every
        route leaves it over the site's own NJS -> gateway socket."""
        self._sim = sim
        self._network = network
        self._socket_host = socket_host
        self._routes: dict[str, Route] = {}
        #: Peer Usite -> route hops, read-only.
        self.routes: typing.Mapping[str, Route] = types.MappingProxyType(
            self._routes
        )
        #: Peers the SSL handshake has been paid for in this life.
        self._sessions: set[str] = set()
        #: Reply key -> the event its reply resolves.
        self._pending: dict[ReplyKey, Event] = {}
        self._stream_ids = StreamIdAllocator(f"njs:{usite_name}")

    # ------------------------------------------------------------ wiring
    def register(self, usite: str, route: Route) -> None:
        """Register the https route (host hops) to a peer Usite's NJS."""
        self._routes[usite] = tuple(route)

    # ------------------------------------------------------------- replies
    def expect(self, key: ReplyKey, what: str) -> Event:
        """The event the reply named ``key`` will succeed (with the reply
        message as its value)."""
        event = self._sim.event(name=f"{what}:{key[0]}/{key[1]}")
        self._pending[key] = event
        return event

    def resolve(self, reply: "GroupResult | TransferAck") -> bool:
        """Hand a reply to whoever expects it and say whether anybody
        did; nobody does after a crash or an :meth:`abandon`, or once an
        earlier reply of the same name was taken."""
        waiter = self._pending.pop(reply.key, None)
        if waiter is None or waiter.triggered:  # triggered: just expired
            return False
        waiter.wake(reply)
        return True

    def abandon(self, key: ReplyKey) -> None:
        """Stop expecting a reply (its request was lost for good)."""
        self._pending.pop(key, None)

    def reset(self) -> None:
        """The process died: nobody waits for a reply any more, and the
        SSL sessions to peers died with it (re-handshake on next use)."""
        self._pending.clear()
        self._sessions.clear()

    # ------------------------------------------------------------ sending
    def send(self, usite: str, message: typing.Any):
        """Send ``message`` via the https route to ``usite``'s NJS.

        Lost or refused messages are resent up to :data:`PEER_RETRIES` times per
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
        """Stream a bulk payload to a peer NJS, two chunked frames in
        flight at a time; returns the :class:`FileEntry` a manifest names
        it by.

        Frames carry the chunk CRCs ``data`` holds (the ones this site
        verified when the bytes arrived); only a body nobody has cut at
        ``chunk_bytes`` before is read to compute them.

        Each frame travels as its own :class:`PeerFrame` hop sequence, a
        process of its own, so control messages sharing the route's links
        wait for at most two chunks' serialization.  A chunk lost
        mid-route is retransmitted *alone* — the stream resumes from the
        lost chunk (``stream.resumes``) instead of restarting, which is
        what makes WAN-drop faults survivable for multi-megabyte
        transfers.
        """
        def send_frame(raw: WireFrame) -> Event:
            # retries=0: a loss surfaces in send_stream (per-chunk
            # resume) instead of being hidden inside the hop machinery.
            return self._sim.process(
                self._send(usite, PeerFrame(raw), 0), name="peer-frame"
            )

        return (yield from send_body(
            self._sim, self._stream_ids.next(), FileBody.of(data), context,
            send_frame, chunk_bytes=chunk_bytes,
        ))

    def _send(self, usite: str, payload: typing.Any, retries: int):
        """NJS -> gateway -> peer gateway -> NJS, ``retries`` per hop.

        First use of a route pays the SSL handshake round trips end to
        end.  Every hop carries the record-framed byte count; endpoint
        seal/open CPU is charged once, ahead of the first hop, as
        :meth:`~repro.net.https.HttpsChannel.send` charges it.  A first
        hop over the site's own firewall socket is a relay: the next hop
        leaves when the bytes are across, with no event in between.
        """
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
        wire = SSLSession.wire_bytes(size)
        delay_s = 2 * SSLSession.record_count(size) * DEFAULT_PER_RECORD_CPU_S
        if len(route) > 1 and route[0][0] == self._socket_host:
            src, dst = route[0]
            delay_s = self._network.relay(src, dst, wire, delay_s)
            route = route[1:]
        last = len(route) - 1
        for i, (src, dst) in enumerate(route):
            yield from self._reliable_hop(
                src, dst, payload, wire, "njs-njs", i == last, retries,
                delay_s if i == 0 else 0.0,
            )

    def _reliable_hop(
        self, src: str, dst: str, payload: typing.Any, wire: int,
        channel: str, deliver: bool, retries: int, delay_s: float = 0.0,
    ):
        """One hop with bounded retransmission; the first attempt leaves
        ``delay_s`` late (record CPU), a resend carries records already
        sealed."""
        last_error: Exception | None = None
        for attempt in range(1 + retries):
            try:
                yield self._network.send(
                    src, dst, payload, wire, channel=channel, deliver=deliver,
                    delay_s=delay_s,
                )
                return
            except ConnectionLost as err:
                last_error = err
                delay_s = 0.0
                if attempt < retries:
                    yield self._sim.timeout(PEER_RETRY_DELAY_S)
        assert last_error is not None
        raise last_error
