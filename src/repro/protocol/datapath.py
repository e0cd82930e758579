"""The data plane of the high-level protocol, and the one file manifest.

The control plane (small :class:`~repro.protocol.messages.Request` /
``Reply`` envelopes) keeps the paper's semantics untouched; bulk bytes
— consignment uploads, NJS staging, Uspace-to-Uspace transfers, outcome
and export fetches — travel here instead, as the chunked binary frames
of :mod:`repro.net.stream`.  A stream keeps at most two chunks in
flight (:data:`STREAM_WINDOW`), so its link stays busy while the next
chunk is sealed, and a control message queued behind a bulk transfer
waits for at most two chunks' serialization instead of the whole
payload; a dropped chunk is retransmitted alone (``stream.resumes``)
instead of restarting the transfer from byte zero.

Pieces:

* :class:`StreamIdAllocator` — deterministic 64-bit stream ids, unique
  across senders (origin hash in the high bits, a counter below);
* :class:`DataPlaneEndpoint` — the receiving side: feed frames off a
  host inbox, reassemble streams, hand completed payloads (each a
  :class:`~repro.vfs.FileBody` holding the chunk CRCs this side verified,
  around the bytes of a body this process already holds when every chunk
  is its own view or equals them) to an application callback or park them
  for :meth:`~DataPlaneEndpoint.take` / :meth:`~DataPlaneEndpoint.wait`;
* :func:`body_sender` / :func:`send_stream` / :func:`send_body` — the
  sending side: a file body framed as its own chunk views with the CRCs
  it holds, then one call of the caller's "send one encoded frame" per
  frame (:func:`channel_sender` for client↔gateway channels), per-chunk
  retransmission;
* the manifest (section 5.6: a file travels with the message that needs
  it).  Every message that carries files — a consignment, a forwarded
  group, a group's result, a FETCH_FILE / RETRIEVE_OUTCOME reply — maps
  each path to an item: the file's bytes, or the :class:`FileEntry` of a
  stream sent ahead of the message on the same FIFO route.  On the wire
  an item is one :mod:`repro.asn1` value, an OCTET STRING or
  ``[size, crc32, stream_id]``.  :func:`ship` decides inline or streamed
  (:data:`INLINE_FILE_MAX`), :func:`claim` takes a message's streams.

A file is held once per process, inline or streamed: the senders here
offer the bodies they send and every receiver adopts equal bytes this
process already holds, through the one registry of :mod:`repro.vfs.body`.

Everything is deterministic: stream ids derive from the sender's name,
retries from the simulated network's named RNG streams.
"""

from __future__ import annotations

import collections
import typing
import zlib
from dataclasses import dataclass
from itertools import count

from repro import asn1
from repro.faults.errors import ServiceUnavailable
from repro.net.errors import ConnectionLost, ConnectionRefused, FrameError
from repro.net.https import DirectChannel, HttpsChannel
from repro.net.stream import (
    FrameType,
    StreamReassembler,
    StreamSender,
    WireFrame,
    decode_frame,
    encode_frame,
)
from repro.observability import INERT_SPAN, MetricsRegistry, Span, telemetry_for
from repro.simkernel import EXPIRED, Event, Simulator
from repro.vfs.body import KEY_EDGE, FileBody, held_body, hold

__all__ = [
    "CHUNK_RETRIES",
    "CHUNK_RETRY_DELAY_S",
    "DEFAULT_CHUNK_BYTES",
    "INLINE_FILE_MAX",
    "STREAM_WINDOW",
    "CompletedStream",
    "DataPlaneEndpoint",
    "FileEntry",
    "Item",
    "Manifest",
    "StreamIdAllocator",
    "body_sender",
    "channel_sender",
    "claim",
    "decode_item",
    "encode_item",
    "fetch_bulk_payload",
    "item_of",
    "item_value",
    "send_body",
    "send_stream",
    "ship",
]

#: Default chunk size.  Small enough that a control message sharing the
#: link is delayed by at most ~two chunks' serialization (the
#: :data:`STREAM_WINDOW`; 256 KiB at 10 Mbit/s is ~0.2 s each), large
#: enough that the 24-byte frame header and per-record SSL overhead stay
#: well under the 5% overhead budget.
DEFAULT_CHUNK_BYTES = 256 * 1024

#: DATA frames a stream keeps in flight.  Two keep the bottleneck link
#: busy: while one frame crosses it, the next is sealed, opened and
#: carried over the fast LAN hops, so it is queued before the link falls
#: idle.  A third would only wait behind the second.
STREAM_WINDOW = 2

#: Files at or below this size stay inline in the message that carries
#: them; only larger payloads are worth a stream's OPEN frame.
INLINE_FILE_MAX = 64 * 1024

#: Bounded per-chunk retransmission (the same asynchronous-protocol
#: philosophy as the control plane's request retries).
CHUNK_RETRIES = 6
CHUNK_RETRY_DELAY_S = 5.0

#: How long a receiver waits for a streamed reply's frames before
#: concluding the stream died with its sender.
STREAM_WAIT_TIMEOUT_S = 600.0


@dataclass(slots=True, frozen=True)
class FileEntry:
    """A file streamed ahead of the message whose manifest names it."""

    size: int
    crc32: int
    stream_id: int

    @classmethod
    def of(cls, sender: StreamSender) -> FileEntry:
        """The entry of a framed payload, from the totals its sender holds."""
        info = sender.open_info
        return cls(info.total_size, info.total_crc32, sender.stream_id)


#: One file of a message: its bytes inline, or the entry of its stream.
Item = typing.Union[bytes, FileEntry]
#: ``path -> item``: the files one message carries.
Manifest = dict[str, Item]


class StreamIdAllocator:
    """Deterministic 64-bit stream ids, collision-free across senders.

    The high 32 bits hash the sender's origin name; the low 32 bits
    count up.  Two endpoints fed by the same inbox can therefore key
    streams by id alone.
    """

    def __init__(self, origin: str) -> None:
        self.origin = origin
        # A name hashed into an id seed, not file content.
        self._base = zlib.crc32(origin.encode()) << 32
        self._seq = count(1)

    def next(self) -> int:
        return self._base | (next(self._seq) & 0xFFFFFFFF)


class CompletedStream(typing.NamedTuple):
    """A reassembled stream, with the checksum its reassembly verified."""

    context: dict[str, typing.Any]
    #: The payload, seeded with the chunk CRCs its frames were verified
    #: against: sending it on reads nothing again.
    body: FileBody
    #: Whole-payload CRC-32, already checked against the chunk CRCs.
    crc32: int

    @property
    def data(self) -> bytes:
        return self.body.data

    def matches(self, entry: FileEntry) -> bool:
        """Is this the payload ``entry`` promised?  Compares integers only."""
        return len(self.body) == entry.size and self.crc32 == entry.crc32


class DataPlaneEndpoint:
    """The receiving half of the data plane on one host.

    ``on_complete(context, body) -> bool`` is consulted when a stream
    finishes; returning True means the application consumed the payload
    (the NJS writing a Uspace file).  Otherwise the stream parks until
    :meth:`take` or :meth:`wait` claims it (:func:`claim` for the message
    that names it, the JMC awaiting a fetched file).
    """

    def __init__(
        self,
        sim: Simulator,
        metrics: MetricsRegistry | None = None,
        on_complete: (
            typing.Callable[[dict[str, typing.Any], FileBody], bool] | None
        ) = None,
    ) -> None:
        self.sim = sim
        self.metrics = metrics
        self.on_complete = on_complete
        self._open: dict[int, StreamReassembler] = {}
        #: Open stream id -> when a frame of it last arrived.
        self._heard: dict[int, float] = {}
        self._done: dict[int, CompletedStream] = {}
        self._waiters: dict[int, Event] = {}

    def _count(self, name: str, amount: int = 1) -> None:
        if self.metrics is not None:
            self.metrics.counter(name).inc(amount)

    # -- intake --------------------------------------------------------------
    def feed(
        self, raw: WireFrame | bytes | bytearray | memoryview, *, refuse_unknown: bool = False
    ) -> bool:
        """Absorb one inbound frame; returns False for non-frame bytes.
        A DATA frame of a stream this endpoint does not hold is dropped as
        a late duplicate, or with ``refuse_unknown`` refused
        (:class:`ConnectionRefused`): its sender starts the stream again.
        An OPEN frame first forgets each incomplete stream no frame has
        reached for :data:`STREAM_WAIT_TIMEOUT_S`: its sender gave up."""
        try:
            # Payloads come back uncopied and immutable (a mutable buffer
            # is snapshotted), so the views kept until reassembly are stable.
            frame = decode_frame(raw)
        except FrameError:
            self._count("stream.bad_frames")
            return False
        try:
            if frame.ftype == FrameType.OPEN:
                for stream_id, heard in list(self._heard.items()):
                    if self.sim.now - heard >= STREAM_WAIT_TIMEOUT_S:
                        del self._open[stream_id], self._heard[stream_id]
                if frame.stream_id not in self._open:
                    reassembler = StreamReassembler(frame)
                    self._open[frame.stream_id] = reassembler
                    self._heard[frame.stream_id] = self.sim.now
                    if reassembler.complete:  # zero-chunk stream
                        self._finish(frame.stream_id)
            else:  # DATA
                reassembler = self._open.get(frame.stream_id)
                if reassembler is None:
                    if refuse_unknown:
                        raise ConnectionRefused(
                            f"stream {frame.stream_id} is not open here"
                        )
                else:
                    self._heard[frame.stream_id] = self.sim.now
                    if reassembler.feed(frame):
                        self._finish(frame.stream_id)
        except FrameError:
            self._open.pop(frame.stream_id, None)
            self._heard.pop(frame.stream_id, None)
            self._count("stream.bad_frames")
        return True

    def _finish(self, stream_id: int) -> None:
        reassembler = self._open.pop(stream_id)
        del self._heard[stream_id]
        info = reassembler.info
        # Verifies the whole-payload crc, then returns the held body's
        # bytes only if each chunk is its own view at that seq or equals
        # them there: same size and edges, or a forged CRC-32, is joined.
        kept = held_body((info.total_size, *reassembler.edges(KEY_EDGE)))
        data = reassembler.payload() if kept is None else reassembler.payload(
            kept.data, kept.own_chunks(info.chunk_bytes))
        # A fresh body either way: this side's chunk CRCs, no digest.
        body = FileBody.received(
            data, chunk_bytes=info.chunk_bytes, chunk_crcs=reassembler.chunk_crcs,
        )
        done = CompletedStream(reassembler.context, body, info.total_crc32)
        self._count("stream.completed")
        if self.on_complete is not None and self.on_complete(done.context, body):
            return
        waiter = self._waiters.pop(stream_id, None)
        if waiter is not None and not waiter.triggered:  # else: just expired
            waiter.succeed(done)
        else:
            self._done[stream_id] = done

    # -- retrieval -----------------------------------------------------------
    def take(self, stream_id: int) -> CompletedStream | None:
        """Claim a completed stream, or None."""
        return self._done.pop(stream_id, None)

    def pending(self, stream_id: int) -> bool:
        """True while the stream is mid-reassembly."""
        return stream_id in self._open

    def wait(
        self, stream_id: int, timeout_s: float = STREAM_WAIT_TIMEOUT_S
    ) -> typing.Generator[Event, typing.Any, CompletedStream]:
        """Await a stream's completion (``yield from`` in a process).

        Raises :class:`~repro.net.errors.ConnectionLost` if no complete
        stream materializes within ``timeout_s``.
        """
        ready = self.take(stream_id)
        if ready is not None:
            return ready
        ev = self.sim.event(name=f"stream-complete:{stream_id}")
        self._waiters[stream_id] = ev
        deadline = self.sim.deadline(ev, timeout_s)
        done = yield ev
        deadline.cancel()
        if done is not EXPIRED:
            return typing.cast(CompletedStream, done)
        self._waiters.pop(stream_id, None)
        raise ConnectionLost(
            f"stream {stream_id} did not complete within {timeout_s}s"
        )

    def clear(self) -> None:
        """Drop all reassembly state (a crashed process reads nothing)."""
        self._open.clear()
        self._heard.clear()
        self._done.clear()
        self._waiters.clear()


def body_sender(
    stream_id: int, body: FileBody, context: dict[str, typing.Any],
    chunk_bytes: int = DEFAULT_CHUNK_BYTES,
) -> StreamSender:
    """Frame ``body`` as its own chunk views, with the chunk CRCs it holds:
    content its site has already cut at ``chunk_bytes`` is not read again.
    The body is held for its receivers to adopt (:func:`~repro.vfs.body.hold`),
    which prove a chunk that is one of those views by identity."""
    sender = StreamSender(
        stream_id, body.data, chunk_bytes, context,
        chunk_crcs=body.chunk_crcs(chunk_bytes), chunks=body.chunks(chunk_bytes),
    )
    hold(body)
    return sender


def send_stream(
    sim: Simulator,
    sender: StreamSender,
    send_frame: typing.Callable[[WireFrame], Event],
    *,
    parent_span: Span = INERT_SPAN,
) -> typing.Generator[Event, typing.Any, None]:
    """Send a stream's frames in order, one ``send_frame(raw)`` each.

    ``send_frame`` hands one encoded frame to its route (an https channel
    send, an NJS-NJS route) and returns the frame's delivery event, which
    is its acknowledgement.  The OPEN frame goes alone and is acknowledged
    before any DATA frame leaves, since a receiver drops DATA for a stream
    it has not opened; then :data:`STREAM_WINDOW` DATA frames are in
    flight, so sealing one overlaps the transmission of the one before.
    A lost frame is retransmitted alone after :data:`CHUNK_RETRY_DELAY_S`
    — the resume point is the lost chunk, never byte zero
    (``stream.resumes`` counts the retransmissions).  A refused DATA
    frame means the receiver lost the stream (an NJS restarted): the
    stream starts again from its OPEN frame.  Losses and refusals draw
    on one budget: :class:`~repro.net.errors.ConnectionLost` is raised
    once a frame's losses and the stream's refusals before it reach
    :data:`CHUNK_RETRIES`; every delivery is defused, so one left in
    flight then fails unobserved.  The ``stream.send`` span joins
    ``parent_span``'s trace.
    """
    telemetry = telemetry_for(sim)
    metrics, tracer = telemetry.metrics, telemetry.tracer
    info = sender.open_info
    span = tracer.start_span(
        "stream.send", parent_span.trace_id, parent=parent_span, tier="user",
        bytes=info.total_size, chunks=info.chunk_count,
        kind=info.context.get("kind", ""),
    )
    resumes = spent = 0

    def transmit(raw: WireFrame) -> Event:
        metrics.counter("stream.wire_bytes").inc(len(raw))
        return send_frame(raw).defuse()

    def acknowledged(
        ftype: int, raw: WireFrame, delivery: Event
    ) -> typing.Generator[Event, typing.Any, bool]:
        """Wait for one frame's delivery, resending it alone on loss;
        False once the receiver refused it as a DATA frame."""
        nonlocal resumes, spent
        for attempt in range(spent, 1 + CHUNK_RETRIES):
            try:
                yield delivery
                break
            except ConnectionLost as err:
                resumes += 1
                metrics.counter("stream.resumes").inc()
                if attempt >= CHUNK_RETRIES:
                    raise
                yield sim.timeout(CHUNK_RETRY_DELAY_S)
                if ftype == FrameType.DATA and isinstance(err, ConnectionRefused):
                    spent = attempt + 1
                    return False
                delivery = transmit(raw)
        metrics.counter(
            "stream.chunks" if ftype == FrameType.DATA else "stream.opens"
        ).inc()
        return True

    in_flight: collections.deque[tuple[int, WireFrame, Event]] = collections.deque()
    frames = sender.frames()
    try:
        while (frame := next(frames, None)) is not None or in_flight:
            if frame is not None:
                raw = encode_frame(frame)
                in_flight.append((frame.ftype, raw, transmit(raw)))
                if frame.ftype != FrameType.OPEN and len(in_flight) < STREAM_WINDOW:
                    continue
            if not (yield from acknowledged(*in_flight.popleft())):
                in_flight.clear()  # the receiver lost the stream: again
                frames = sender.frames()
    except BaseException as err:
        tracer.end_span(span.set(resumes=resumes), error=err)
        raise
    tracer.end_span(span.set(resumes=resumes))


def channel_sender(
    channel: HttpsChannel | DirectChannel, to_server: bool = True
) -> typing.Callable[[WireFrame], Event]:
    """The ``send_frame`` of an https channel: one send per frame."""

    def send_frame(raw: WireFrame) -> Event:
        return channel.send(raw, len(raw), to_server=to_server)

    return send_frame


def send_body(
    sim: Simulator,
    stream_id: int,
    body: FileBody,
    context: dict[str, typing.Any],
    send_frame: typing.Callable[[WireFrame], Event],
    *,
    chunk_bytes: int = DEFAULT_CHUNK_BYTES,
    parent_span: Span = INERT_SPAN,
) -> typing.Generator[Event, typing.Any, FileEntry]:
    """Stream ``body`` (:func:`body_sender`, :func:`send_stream`) and
    return the entry a manifest names it by."""
    sender = body_sender(stream_id, body, context, chunk_bytes)
    yield from send_stream(sim, sender, send_frame, parent_span=parent_span)
    return FileEntry.of(sender)


# ---------------------------------------------------------- the manifest
def item_value(item: Item) -> asn1.Value:
    """``item`` as one :mod:`repro.asn1` value."""
    if isinstance(item, FileEntry):
        return [item.size, item.crc32, item.stream_id]
    return item


def item_of(
    value: asn1.Value, error: typing.Callable[[str], Exception]
) -> Item:
    """The item a decoded value names; any other value raises ``error``."""
    if type(value) is bytes:
        return value
    if type(value) is list and len(value) == 3 and all(
        type(v) is int and v >= 0 for v in value
    ):
        return FileEntry(*value)
    raise error(f"a file is bytes or [size, crc32, stream_id], not {value!r:.80}")


def encode_item(item: Item) -> bytes:
    """A bulk reply's one item, encoded."""
    return asn1.encode(item_value(item))


def decode_item(data: bytes) -> Item:
    """A bulk reply's one item; any other input is a :class:`FrameError`."""
    return item_of(asn1.decode(data, FrameError), FrameError)


def ship(
    files: typing.Mapping[str, FileBody],
    stream: typing.Callable[
        [str, FileBody], typing.Generator[Event, typing.Any, FileEntry]
    ],
) -> typing.Generator[Event, typing.Any, Manifest]:
    """The manifest of ``files`` (``yield from``): each file of at most
    :data:`INLINE_FILE_MAX` bytes inline, each larger one sent ahead by
    ``stream(path, body)`` and named by the entry it returns.  Either way
    the body is held for its receivers to adopt."""
    manifest: Manifest = {}
    for path, body in sorted(files.items()):
        if len(body) <= INLINE_FILE_MAX:
            hold(body)
            manifest[path] = body.data
        else:
            manifest[path] = yield from stream(path, body)
    return manifest


def claim(
    endpoint: DataPlaneEndpoint, manifest: Manifest
) -> dict[str, FileBody]:
    """The files ``manifest`` names, taking each stream from ``endpoint``;
    an inline file is a fresh body around the bytes this process holds
    when it holds them (:meth:`~repro.vfs.FileBody.received`).

    A stream that never (fully) arrived — its frames dropped while this
    side was down — is :class:`ServiceUnavailable`, so a client fails
    over and re-streams; one that is not the payload its entry promised
    is a :class:`FrameError`.
    """
    files: dict[str, FileBody] = {}
    for path, item in manifest.items():
        if not isinstance(item, FileEntry):
            files[path] = FileBody.received(item)
            continue
        done = endpoint.take(item.stream_id)
        if done is None:
            raise ServiceUnavailable(
                f"file {path!r} names stream {item.stream_id}, "
                "which never arrived"
            )
        if not done.matches(item):
            raise FrameError(
                f"file {path!r} failed its stream integrity check"
            )
        files[path] = done.body
    return files


def fetch_bulk_payload(
    endpoint: DataPlaneEndpoint,
    payload: bytes,
    timeout_s: float = STREAM_WAIT_TIMEOUT_S,
) -> typing.Generator[Event, typing.Any, bytes]:
    """Resolve a FETCH_FILE / RETRIEVE_OUTCOME reply, one item, to its
    content bytes (``yield from``).

    Inline replies return immediately; streamed ones await the stream
    the gateway pushed ahead of the reply on ``endpoint`` and check it
    is the one the reply promised.
    """
    item = decode_item(payload)
    if not isinstance(item, FileEntry):
        return item
    done = yield from endpoint.wait(item.stream_id, timeout_s)
    if not done.matches(item):
        raise FrameError(
            f"streamed reply {item.stream_id} failed integrity check"
        )
    return done.data
