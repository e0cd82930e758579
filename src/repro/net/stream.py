"""The streaming data plane: binary frames for bulk transfers.

The paper tunnels every byte — control messages *and* file contents —
through the same https request/reply path (section 5.6), which it flags
as "slow for huge data sets".  This module is the wire half of the fix:
a small binary frame codec that carries file bytes raw (no base64), in
chunks, so bulk data interleaves with control messages on the FIFO
links instead of head-of-line-blocking them, and a lost chunk costs one
retransmission instead of the whole payload.

Frame layout (network byte order, 24-byte header)::

    0      2      3      4            12      16      20      24
    +------+------+------+------------+-------+-------+-------+----
    | "US" | ver  | type | stream_id  | seq   | len   | crc32 | payload
    +------+------+------+------------+-------+-------+-------+----
      2 B    u8     u8       u64         u32     u32     u32

``type`` is OPEN (1), DATA (2), or ACK (3).  An OPEN frame's payload is
the :class:`OpenInfo` preamble — total size, chunking, whole-payload
checksum, and a JSON context blob naming what the stream *is* (its kind,
job ids, destination path).  DATA frames carry raw chunk bytes; ``seq``
is the chunk index.  ACK frames are available to protocols that need
explicit cumulative acknowledgement (``seq`` = next expected chunk);
the simulated transport's per-message delivery events already provide
the implicit per-chunk acknowledgement the senders in this repo use.

Version is negotiated trivially: a decoder raises :class:`FrameError`
on any version it does not speak, and the control-plane error path
reports that to the sender (see DESIGN.md, "Wire formats").

Integrity is two checks from one pass.  The frame CRC is the
retransmission granularity: each side reads a chunk once to compute or
verify it.  The whole-payload CRC in the OPEN preamble is the end-to-end
check; both sides *derive* it from the chunk CRCs they already hold
(:func:`crc32_combine`) instead of reading the payload a second time.

Who computes a CRC when: a receiver always does, per chunk, in
:func:`decode_frame`; a sender only for a payload nobody at its site has
cut before.  A site that forwards what it received hands
:class:`StreamSender` the CRCs its own :class:`StreamReassembler`
verified (``chunk_crcs=``; :class:`repro.vfs.FileBody` is what carries
them between the two), so the bytes are not read again and a copy that
went bad at rest fails the next receiver's check instead of being
blessed by a fresh CRC.
"""

from __future__ import annotations

import functools
import json
import struct
import typing
import zlib
from dataclasses import dataclass, field

from repro.net.errors import FrameError

__all__ = [
    "FRAME_HEADER_BYTES",
    "FRAME_VERSION",
    "Frame",
    "FrameType",
    "OpenInfo",
    "StreamReassembler",
    "StreamSender",
    "chunk_payload",
    "crc32_combine",
    "decode_frame",
    "encode_frame",
]

#: Frame magic: every frame starts with these two bytes.
FRAME_MAGIC = b"US"

#: The one frame-format version this codec speaks.
FRAME_VERSION = 1

_HEADER = struct.Struct("!2sBBQIII")

#: Bytes of framing added to every chunk on the wire.
FRAME_HEADER_BYTES = _HEADER.size  # 24

_OPEN_FIXED = struct.Struct("!QIIII")  # total, chunk, count, crc, ctx_len

_U32_MAX = 0xFFFFFFFF
_U64_MAX = 0xFFFFFFFFFFFFFFFF


class FrameType:
    """Frame type tags."""

    OPEN = 1
    DATA = 2
    ACK = 3

    ALL = (OPEN, DATA, ACK)


# ------------------------------------------------------------ crc combine
# zlib's crc32_combine, which the stdlib does not expose: appending n
# bytes to a message multiplies its CRC register by x^(8n) in GF(2), a
# linear map written as 32 column vectors.

_CRC32_POLY = 0xEDB88320


def _gf2_times(matrix: typing.Sequence[int], vector: int) -> int:
    product = 0
    for column in matrix:
        if not vector:
            break
        if vector & 1:
            product ^= column
        vector >>= 1
    return product


def _gf2_compose(
    a: typing.Sequence[int], b: typing.Sequence[int]
) -> tuple[int, ...]:
    return tuple(_gf2_times(a, column) for column in b)


@functools.lru_cache(maxsize=32)
def _zero_operator(length: int) -> tuple[int, ...]:
    """The map that advances a CRC-32 over ``length`` zero bytes.

    Square-and-multiply over the bits of ``length``: a few milliseconds
    for a 256 KiB chunk, paid once per chunk length in use.
    """
    power: tuple[int, ...] = (_CRC32_POLY, *(1 << n for n in range(31)))
    for _ in range(3):  # one zero bit -> one zero byte
        power = _gf2_compose(power, power)
    operator = tuple(1 << n for n in range(32))  # identity
    while length:
        if length & 1:
            operator = _gf2_compose(power, operator)
        length >>= 1
        if length:
            power = _gf2_compose(power, power)
    return operator


def crc32_combine(crc1: int, crc2: int, len2: int) -> int:
    """CRC-32 of ``a + b`` from ``crc32(a)``, ``crc32(b)`` and ``len(b)``."""
    return _gf2_times(_zero_operator(len2), crc1) ^ crc2


def _fold_crc32(
    chunks: typing.Iterable[tuple[bytes | memoryview, int]], chunk_bytes: int
) -> int:
    """Whole-payload CRC from ``(chunk, its CRC)`` pairs in payload order.

    Full-size chunks share one cached operator.  Any other length (the
    tail) is read again instead of minting an operator per file size, so
    the result is right for every split.
    """
    total = 0
    for chunk, crc in chunks:
        if len(chunk) == chunk_bytes:
            total = crc32_combine(total, crc, chunk_bytes)
        else:
            total = zlib.crc32(chunk, total)
    return total


@dataclass(slots=True, frozen=True)
class Frame:
    """One frame: header fields plus raw payload bytes (or a view of them)."""

    stream_id: int
    seq: int
    payload: bytes | memoryview = b""
    ftype: int = FrameType.DATA
    version: int = FRAME_VERSION
    #: CRC-32 of ``payload``.  Whoever already holds it passes it in — the
    #: sender from chunking, the decoder from verification — so the bytes
    #: are read once; left at -1 it is computed here.
    crc32: int = field(default=-1, compare=False)

    def __post_init__(self) -> None:
        if self.crc32 < 0:
            object.__setattr__(self, "crc32", zlib.crc32(self.payload))


def encode_frame(frame: Frame) -> bytes:
    """Serialize a frame: 24-byte header + raw payload."""
    if frame.ftype not in FrameType.ALL:
        raise FrameError(f"unknown frame type {frame.ftype!r}")
    if not 0 <= frame.stream_id <= _U64_MAX:
        raise FrameError(f"stream id {frame.stream_id} out of u64 range")
    if not 0 <= frame.seq <= _U32_MAX:
        raise FrameError(f"sequence number {frame.seq} out of u32 range")
    if len(frame.payload) > _U32_MAX:
        raise FrameError("frame payload exceeds u32 length")
    header = _HEADER.pack(
        FRAME_MAGIC,
        frame.version,
        frame.ftype,
        frame.stream_id,
        frame.seq,
        len(frame.payload),
        frame.crc32,
    )
    return header + frame.payload


def decode_frame(raw: bytes | memoryview) -> Frame:
    """Parse a frame; raises :class:`FrameError` on any malformation.

    The payload comes back as a view into ``raw`` (no copy), with the
    CRC just verified alongside it.
    """
    if len(raw) < FRAME_HEADER_BYTES:
        raise FrameError(
            f"truncated frame: {len(raw)} bytes < {FRAME_HEADER_BYTES}-byte header"
        )
    magic, version, ftype, stream_id, seq, length, crc = _HEADER.unpack_from(raw)
    if magic != FRAME_MAGIC:
        raise FrameError(f"bad frame magic {magic!r}")
    if version != FRAME_VERSION:
        raise FrameError(
            f"unsupported frame version {version} (this codec speaks "
            f"{FRAME_VERSION})"
        )
    if ftype not in FrameType.ALL:
        raise FrameError(f"unknown frame type {ftype}")
    payload = memoryview(raw)[FRAME_HEADER_BYTES:]
    if len(payload) != length:
        raise FrameError(
            f"frame length mismatch: header says {length}, got {len(payload)}"
        )
    if zlib.crc32(payload) != crc:
        raise FrameError(f"frame checksum mismatch on stream {stream_id} seq {seq}")
    return Frame(
        stream_id=stream_id, seq=seq, payload=payload, ftype=ftype,
        version=version, crc32=crc,
    )


@dataclass(slots=True, frozen=True)
class OpenInfo:
    """The OPEN frame's preamble: what the stream carries and how."""

    total_size: int
    chunk_bytes: int
    chunk_count: int
    total_crc32: int
    #: Application context: stream kind, job/correlation ids, paths.
    context: dict[str, typing.Any] = field(default_factory=dict)

    def encode(self) -> bytes:
        blob = json.dumps(
            self.context, sort_keys=True, separators=(",", ":")
        ).encode()
        return _OPEN_FIXED.pack(
            self.total_size, self.chunk_bytes, self.chunk_count,
            self.total_crc32, len(blob),
        ) + blob

    @classmethod
    def decode(cls, raw: bytes | memoryview) -> "OpenInfo":
        if len(raw) < _OPEN_FIXED.size:
            raise FrameError("truncated OPEN preamble")
        total, chunk, count, crc, ctx_len = _OPEN_FIXED.unpack_from(raw)
        blob = bytes(raw[_OPEN_FIXED.size:])
        if len(blob) != ctx_len:
            raise FrameError("OPEN context length mismatch")
        try:
            context = json.loads(blob) if blob else {}
        except ValueError as err:
            raise FrameError(f"OPEN context is not valid JSON: {err}") from err
        if not isinstance(context, dict):
            raise FrameError("OPEN context must be a JSON object")
        return cls(
            total_size=total, chunk_bytes=chunk, chunk_count=count,
            total_crc32=crc, context=context,
        )


def chunk_payload(
    data: bytes | memoryview, chunk_bytes: int
) -> list[memoryview]:
    """Split ``data`` into views of at most ``chunk_bytes`` (no copy)."""
    if chunk_bytes <= 0:
        raise FrameError(f"chunk size must be positive, got {chunk_bytes}")
    view = memoryview(data)
    return [view[i:i + chunk_bytes] for i in range(0, len(view), chunk_bytes)]


class StreamSender:
    """Frames one payload as an OPEN preamble plus DATA chunks.

    The sender is transport-agnostic: iterate :meth:`frames` and push
    each through whatever carries bytes (an https channel, an NJS-NJS
    route).  Retransmitting a frame is just re-sending the same
    :class:`Frame` — frames are self-describing and receivers tolerate
    duplicates, which is what makes resume-from-last-acked-chunk
    trivial for the callers.
    """

    def __init__(
        self, stream_id: int, data: bytes | memoryview, chunk_bytes: int,
        context: dict[str, typing.Any] | None = None,
        *, chunk_crcs: typing.Sequence[int] | None = None,
    ) -> None:
        self.stream_id = stream_id
        self.chunks = chunk_payload(data, chunk_bytes)
        if chunk_crcs is None:
            # The one pass over a payload nobody has cut before.
            chunk_crcs = [zlib.crc32(chunk) for chunk in self.chunks]
        #: Each chunk's frame CRC — the caller's, when it already holds
        #: them for this split — from which the whole-payload CRC is folded.
        self.chunk_crcs = chunk_crcs
        self.open_info = OpenInfo(
            total_size=len(data),
            chunk_bytes=chunk_bytes,
            chunk_count=len(self.chunks),
            total_crc32=_fold_crc32(
                zip(self.chunks, self.chunk_crcs, strict=True), chunk_bytes
            ),
            context=dict(context or {}),
        )

    @property
    def frame_count(self) -> int:
        return 1 + len(self.chunks)

    def open_frame(self) -> Frame:
        return Frame(
            stream_id=self.stream_id, seq=0,
            payload=self.open_info.encode(), ftype=FrameType.OPEN,
        )

    def data_frame(self, seq: int) -> Frame:
        return Frame(
            stream_id=self.stream_id, seq=seq, payload=self.chunks[seq],
            ftype=FrameType.DATA, crc32=self.chunk_crcs[seq],
        )

    def frames(self) -> typing.Iterator[Frame]:
        """OPEN first, then every DATA chunk in order."""
        yield self.open_frame()
        for seq in range(len(self.chunks)):
            yield self.data_frame(seq)


class StreamReassembler:
    """Rebuilds one stream's payload from frames, in any order.

    Duplicate and out-of-order DATA frames are tolerated (retransmission
    makes both routine); :attr:`next_expected` is the cumulative-ack
    point a resuming sender continues from.
    """

    def __init__(self, open_frame: Frame) -> None:
        if open_frame.ftype != FrameType.OPEN:
            raise FrameError("reassembler must be seeded with an OPEN frame")
        self.stream_id = open_frame.stream_id
        self.info = info = OpenInfo.decode(open_frame.payload)
        size, cut = info.total_size, info.chunk_bytes
        if info.chunk_count != (-(-size // cut) if cut else 0):
            raise FrameError(
                f"stream {self.stream_id}: {info.chunk_count} chunks cannot "
                f"be {size} bytes cut at {cut}"
            )
        #: seq -> DATA frame; each keeps the CRC it was verified against.
        self._chunks: dict[int, Frame] = {}

    @property
    def context(self) -> dict[str, typing.Any]:
        return self.info.context

    @property
    def received_count(self) -> int:
        return len(self._chunks)

    @property
    def complete(self) -> bool:
        return len(self._chunks) == self.info.chunk_count

    @property
    def chunk_crcs(self) -> list[int]:
        """The CRCs :func:`decode_frame` verified, in payload order, for
        the payload cut at ``info.chunk_bytes`` (:meth:`feed` holds every
        chunk to that split)."""
        return [self._chunks[i].crc32 for i in range(self.info.chunk_count)]

    @property
    def next_expected(self) -> int:
        """Lowest missing chunk index (== chunk_count when complete)."""
        seq = 0
        while seq in self._chunks:
            seq += 1
        return seq

    def feed(self, frame: Frame) -> bool:
        """Absorb one frame; returns True once the stream is complete."""
        if frame.stream_id != self.stream_id:
            raise FrameError(
                f"frame for stream {frame.stream_id} fed to reassembler "
                f"of stream {self.stream_id}"
            )
        if frame.ftype == FrameType.DATA:
            if frame.seq >= self.info.chunk_count:
                raise FrameError(
                    f"chunk {frame.seq} out of range for stream "
                    f"{self.stream_id} ({self.info.chunk_count} chunks)"
                )
            cut = self.info.chunk_bytes
            if len(frame.payload) != min(
                cut, self.info.total_size - frame.seq * cut
            ):
                raise FrameError(
                    f"chunk {frame.seq} of stream {self.stream_id} is not "
                    f"the piece a {cut}-byte split gives it"
                )
            self._chunks.setdefault(frame.seq, frame)
        # OPEN duplicates and ACKs carry no new data.
        return self.complete

    def payload(self) -> bytes:
        """The reassembled bytes (the one copy on this side).

        Verifies the whole-payload checksum by folding the chunk CRCs
        :func:`decode_frame` already verified.
        """
        if not self.complete:
            missing = self.next_expected
            raise FrameError(
                f"stream {self.stream_id} incomplete: chunk {missing} of "
                f"{self.info.chunk_count} missing"
            )
        frames = [self._chunks[i] for i in range(self.info.chunk_count)]
        data = b"".join(frame.payload for frame in frames)
        if len(data) != self.info.total_size:
            raise FrameError(
                f"stream {self.stream_id} size mismatch: OPEN said "
                f"{self.info.total_size}, reassembled {len(data)}"
            )
        if self.info.total_crc32 != _fold_crc32(
            ((frame.payload, frame.crc32) for frame in frames),
            self.info.chunk_bytes,
        ):
            raise FrameError(
                f"stream {self.stream_id} payload checksum mismatch"
            )
        return data
