"""The data plane of the high-level protocol.

The control plane (small :class:`~repro.protocol.messages.Request` /
``Reply`` envelopes) keeps the paper's semantics untouched; bulk bytes
— consignment uploads, NJS staging, Uspace-to-Uspace transfers, outcome
and export fetches — travel here instead, as the chunked binary frames
of :mod:`repro.net.stream`.  Chunks share the FIFO links one frame at a
time, so a control message queued behind a bulk transfer waits for at
most one chunk's serialization instead of the whole payload; a dropped
chunk is retransmitted alone (``stream.resumes``) instead of restarting
the transfer from byte zero.

Pieces:

* :class:`StreamIdAllocator` — deterministic 64-bit stream ids, unique
  across senders (origin hash in the high bits, a counter below);
* :class:`DataPlaneEndpoint` — the receiving side: feed raw frame
  bytes off a host inbox, reassemble streams, hand completed payloads
  (each a :class:`~repro.vfs.FileBody` holding the chunk CRCs this side
  verified) to an application callback or park them for
  :meth:`~DataPlaneEndpoint.take` / :meth:`~DataPlaneEndpoint.wait`;
* :func:`body_sender` / :func:`send_stream` — the sending side: a file
  body framed with the CRCs it holds, then one call of the caller's
  "send one encoded frame" per frame (:func:`channel_sender` for
  client↔gateway channels), per-chunk retransmission;
* the bulk-reply wrapper (:func:`encode_inline_reply` /
  :func:`encode_stream_reply` / :func:`fetch_bulk_payload`) the gateway
  and JMC use for FETCH_FILE / RETRIEVE_OUTCOME replies whose content
  travels on the data plane.

Everything is deterministic: stream ids derive from the sender's name,
retries from the simulated network's named RNG streams.
"""

from __future__ import annotations

import struct
import typing
import zlib
from itertools import count

from repro.net.errors import ConnectionLost, FrameError
from repro.net.https import DirectChannel, HttpsChannel
from repro.net.stream import (
    FrameType,
    StreamReassembler,
    StreamSender,
    decode_frame,
    encode_frame,
)
from repro.observability import INERT_SPAN, MetricsRegistry, Span, telemetry_for
from repro.protocol.consignment import FileEntry
from repro.simkernel import EXPIRED, Event, Simulator
from repro.vfs.body import FileBody

__all__ = [
    "CHUNK_RETRIES",
    "CHUNK_RETRY_DELAY_S",
    "DEFAULT_CHUNK_BYTES",
    "INLINE_FILE_MAX",
    "CompletedStream",
    "DataPlaneEndpoint",
    "StreamIdAllocator",
    "body_sender",
    "channel_sender",
    "decode_bulk_reply",
    "encode_inline_reply",
    "encode_stream_reply",
    "entry_for_sender",
    "fetch_bulk_payload",
    "send_stream",
]

#: Default chunk size.  Small enough that a control message sharing the
#: link is delayed by at most ~one chunk's serialization (256 KiB at
#: 10 Mbit/s is ~0.2 s), large enough that the 24-byte frame header and
#: per-record SSL overhead stay well under the 5% overhead budget.
DEFAULT_CHUNK_BYTES = 256 * 1024

#: Files at or below this size stay inline in control-plane envelopes;
#: only larger payloads are worth a stream's OPEN/manifest round trip.
INLINE_FILE_MAX = 64 * 1024

#: Bounded per-chunk retransmission (the same asynchronous-protocol
#: philosophy as the control plane's request retries).
CHUNK_RETRIES = 6
CHUNK_RETRY_DELAY_S = 5.0

#: How long a receiver waits for a streamed reply's frames before
#: concluding the stream died with its sender.
STREAM_WAIT_TIMEOUT_S = 600.0


class StreamIdAllocator:
    """Deterministic 64-bit stream ids, collision-free across senders.

    The high 32 bits hash the sender's origin name; the low 32 bits
    count up.  Two endpoints fed by the same inbox can therefore key
    streams by id alone.
    """

    def __init__(self, origin: str) -> None:
        self.origin = origin
        # A name hashed into an id seed, not file content.
        self._base = zlib.crc32(origin.encode()) << 32  # devlint: ignore[RD406]
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
    :meth:`take` or :meth:`wait` claims it (the gateway pulling consign
    uploads, the JMC awaiting a fetched file).
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
        self._done: dict[int, CompletedStream] = {}
        self._waiters: dict[int, Event] = {}

    def _count(self, name: str, amount: int = 1) -> None:
        if self.metrics is not None:
            self.metrics.counter(name).inc(amount)

    # -- intake --------------------------------------------------------------
    def feed(self, raw: bytes | bytearray | memoryview) -> bool:
        """Absorb one inbound frame; returns False for non-frame bytes."""
        try:
            # bytes() is the identity on bytes and snapshots a mutable
            # buffer, so the payload views kept until reassembly are stable.
            frame = decode_frame(bytes(raw))
        except FrameError:
            self._count("stream.bad_frames")
            return False
        try:
            if frame.ftype == FrameType.OPEN:
                if frame.stream_id not in self._open:
                    reassembler = StreamReassembler(frame)
                    self._open[frame.stream_id] = reassembler
                    if reassembler.complete:  # zero-chunk stream
                        self._finish(frame.stream_id)
            elif frame.ftype == FrameType.DATA:
                reassembler = self._open.get(frame.stream_id)
                if reassembler is not None and reassembler.feed(frame):
                    self._finish(frame.stream_id)
                # DATA for an unknown or finished stream: late duplicate.
            # ACK frames carry no payload state on this side.
        except FrameError:
            self._open.pop(frame.stream_id, None)
            self._count("stream.bad_frames")
        return True

    def _finish(self, stream_id: int) -> None:
        reassembler = self._open.pop(stream_id)
        info = reassembler.info
        body = FileBody(
            reassembler.payload(),  # verifies the whole-payload crc
            chunk_bytes=info.chunk_bytes, chunk_crcs=reassembler.chunk_crcs,
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
        self._done.clear()
        self._waiters.clear()


def body_sender(
    stream_id: int, body: FileBody, context: dict[str, typing.Any],
    chunk_bytes: int = DEFAULT_CHUNK_BYTES,
) -> StreamSender:
    """Frame ``body`` with the chunk CRCs it holds: content its site has
    already cut at ``chunk_bytes`` is not read again."""
    return StreamSender(
        stream_id, body.data, chunk_bytes, context,
        chunk_crcs=body.chunk_crcs(chunk_bytes),
    )


def send_stream(
    sim: Simulator,
    sender: StreamSender,
    send_frame: typing.Callable[
        [bytes], typing.Generator[Event, typing.Any, object]
    ],
    *,
    parent_span: Span = INERT_SPAN,
) -> typing.Generator[Event, typing.Any, None]:
    """Send a stream's frames in order, one ``send_frame(raw)`` each.

    ``send_frame`` carries one encoded frame (an https channel send, an
    NJS-NJS route) and returns the generator to ``yield from``; its
    completion is the chunk's acknowledgement.  A lost chunk is
    retransmitted alone after :data:`CHUNK_RETRY_DELAY_S` — the resume
    point is the lost chunk, never byte zero (``stream.resumes`` counts
    the retransmissions).  Raises
    :class:`~repro.net.errors.ConnectionLost` only once a single chunk
    exhausts :data:`CHUNK_RETRIES`.  The ``stream.send`` span joins
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
    resumes = 0
    try:
        for frame in sender.frames():
            raw = encode_frame(frame)
            for attempt in range(1 + CHUNK_RETRIES):
                metrics.counter("stream.wire_bytes").inc(len(raw))
                try:
                    yield from send_frame(raw)
                    break
                except ConnectionLost:
                    resumes += 1
                    metrics.counter("stream.resumes").inc()
                    if attempt >= CHUNK_RETRIES:
                        raise
                    yield sim.timeout(CHUNK_RETRY_DELAY_S)
            metrics.counter(
                "stream.chunks" if frame.ftype == FrameType.DATA
                else "stream.opens"
            ).inc()
    except BaseException as err:
        tracer.end_span(span.set(resumes=resumes), error=err)
        raise
    tracer.end_span(span.set(resumes=resumes))


def channel_sender(
    channel: HttpsChannel | DirectChannel, to_server: bool = True
) -> typing.Callable[[bytes], typing.Generator[Event, typing.Any, None]]:
    """The ``send_frame`` of an https channel: one send per frame."""

    def send_frame(raw: bytes) -> typing.Generator[Event, typing.Any, None]:
        yield channel.send(raw, len(raw), to_server=to_server)

    return send_frame


def entry_for_sender(path: str, sender: StreamSender) -> FileEntry:
    """A framed payload's manifest entry, from the totals its sender holds."""
    info = sender.open_info
    return FileEntry(path, info.total_size, info.total_crc32, sender.stream_id)


# ---------------------------------------------------------- bulk replies
# FETCH_FILE / RETRIEVE_OUTCOME replies either carry their content
# inline (tag 0) or reference a stream the gateway pushed ahead of the
# reply on the same FIFO channel (tag 1).

_BULK_INLINE = 0
_BULK_STREAMED = 1
_BULK_REF = struct.Struct("!BQQI")  # tag, stream_id, size, crc32


def encode_inline_reply(content: bytes) -> bytes:
    return bytes([_BULK_INLINE]) + content


def encode_stream_reply(entry: FileEntry) -> bytes:
    return _BULK_REF.pack(_BULK_STREAMED, entry.stream_id, entry.size,
                          entry.crc32)


def decode_bulk_reply(payload: bytes) -> tuple[str, bytes | FileEntry]:
    """Returns ``("inline", content)`` or ``("stream", FileEntry)``."""
    if not payload:
        raise FrameError("empty bulk reply")
    tag = payload[0]
    if tag == _BULK_INLINE:
        return "inline", payload[1:]
    if tag == _BULK_STREAMED:
        if len(payload) != _BULK_REF.size:
            raise FrameError("malformed streamed-reply reference")
        _, stream_id, size, crc = _BULK_REF.unpack(payload)
        return "stream", FileEntry(path="", size=size, crc32=crc,
                                   stream_id=stream_id)
    raise FrameError(f"unknown bulk-reply tag {tag}")


def fetch_bulk_payload(
    endpoint: DataPlaneEndpoint,
    payload: bytes,
    timeout_s: float = STREAM_WAIT_TIMEOUT_S,
) -> typing.Generator[Event, typing.Any, bytes]:
    """Resolve a bulk reply to its content bytes (``yield from``).

    Inline replies return immediately; streamed ones await the pushed
    stream on ``endpoint`` and check it is the one the reply promised.
    """
    kind, value = decode_bulk_reply(payload)
    if kind == "inline":
        return typing.cast(bytes, value)
    entry = typing.cast(FileEntry, value)
    done = yield from endpoint.wait(entry.stream_id, timeout_s)
    if not done.matches(entry):
        raise FrameError(
            f"streamed reply {entry.stream_id} failed integrity check"
        )
    return done.data
