"""The streaming data plane: binary frames for bulk transfers.

The paper tunnels every byte — control messages *and* file contents —
through the same https request/reply path (section 5.6), which it flags
as "slow for huge data sets".  This module is the wire half of the fix:
a small binary frame codec that carries file bytes raw (not as text), in
chunks, so bulk data interleaves with control messages on the FIFO
links instead of head-of-line-blocking them, and a lost chunk costs one
retransmission instead of the whole payload.

Frame layout (network byte order, 24-byte header)::

    0      2      3      4            12      16      20      24
    +------+------+------+------------+-------+-------+-------+----
    | "US" | ver  | type | stream_id  | seq   | len   | crc32 | payload
    +------+------+------+------------+-------+-------+-------+----
      2 B    u8     u8       u64         u32     u32     u32

``type`` is OPEN (1) or DATA (2).  An OPEN frame's payload is the
:class:`OpenInfo` preamble — total size, chunking, whole-payload
checksum, and a context map naming what the stream *is* (its kind,
job ids, destination path) as one :mod:`repro.asn1` value.  DATA frames
carry raw chunk bytes; ``seq``
is the chunk index.  The transport's delivery of a frame is its
acknowledgement.  The decoders read through a
:class:`~repro.bytereader.ByteReader` and raise :class:`FrameError` on
anything the encoder would not have written, another version included.

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

Nothing else reads or copies a chunk inside the process.
:func:`encode_frame` returns a :class:`WireFrame`, the header beside the
payload object the sender cut (``len()`` is the joined frame's, so every
wire count stands); :func:`decode_frame` CRC-checks that payload where it
lies and hands back the same object.  Only a socket joins a frame, once,
at its boundary.  :meth:`StreamReassembler.payload` proves a chunk that
*is* the held content's own view at its seq by identity, and compares
bytes only for the rest.
"""

from __future__ import annotations

import functools
import struct
import typing
import zlib
from dataclasses import dataclass, field

from repro import asn1
from repro.bytereader import ByteReader
from repro.net.errors import FrameError

__all__ = [
    "FRAME_HEADER_BYTES",
    "FRAME_VERSION",
    "Frame",
    "FrameType",
    "OpenInfo",
    "StreamReassembler",
    "StreamSender",
    "WireFrame",
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

_OPEN_FIXED = struct.Struct("!QIII")  # total, chunk, count, crc

_U32_MAX = 0xFFFFFFFF
_U64_MAX = 0xFFFFFFFFFFFFFFFF


class FrameType:
    """Frame type tags."""

    OPEN = 1
    DATA = 2

    ALL = (OPEN, DATA)


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


@functools.lru_cache(maxsize=32)
def _zero_tables(length: int) -> tuple[tuple[int, ...], ...]:
    """:func:`_zero_operator` as four 256-entry tables, one per byte of
    the register, so applying it is four lookups.  Each entry is the one
    below it (its lowest set bit cleared) and one column: about a
    millisecond per length, beside the operator's few."""
    operator = _zero_operator(length)
    tables = []
    for base in range(0, 32, 8):
        table = [0] * 256
        for byte in range(1, 256):
            low = byte & -byte
            table[byte] = table[byte ^ low] ^ operator[base + low.bit_length() - 1]
        tables.append(tuple(table))
    return tuple(tables)


def crc32_combine(crc1: int, crc2: int, len2: int) -> int:
    """CRC-32 of ``a + b`` from ``crc32(a)``, ``crc32(b)`` and ``len(b)``."""
    t0, t1, t2, t3 = _zero_tables(len2)
    return (
        t0[crc1 & 0xFF] ^ t1[crc1 >> 8 & 0xFF] ^ t2[crc1 >> 16 & 0xFF]
        ^ t3[crc1 >> 24 & 0xFF] ^ crc2
    )


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
    #: CRC-32 of ``payload``.  Whoever already holds it passes it in — the
    #: sender from chunking, the decoder from verification — so the bytes
    #: are read once; left at -1 it is computed here.
    crc32: int = field(default=-1, compare=False)

    def __post_init__(self) -> None:
        if self.crc32 < 0:
            object.__setattr__(self, "crc32", zlib.crc32(self.payload))


@dataclass(slots=True, frozen=True)
class WireFrame:
    """One encoded frame as its two pieces: the 24-byte header and the
    payload object the frame was built with, not joined.

    Measures like the contiguous frame (``len()`` is its wire size), and
    ``bytes()`` joins it, which a socket does at its boundary.  The
    payload is immutable: ``bytes``, or a contiguous byte view over
    ``bytes`` (:func:`encode_frame` snapshots anything else).
    """

    header: bytes
    payload: bytes | memoryview

    def __len__(self) -> int:
        return len(self.header) + len(self.payload)

    def __bytes__(self) -> bytes:
        return self.header + self.payload


def _stable(payload: bytes | bytearray | memoryview) -> bytes | memoryview:
    """``payload`` itself when nothing can change it under a frame —
    ``bytes``, or a contiguous byte view over ``bytes`` — else a snapshot.
    A read-only view of a ``bytearray`` is still snapshotted."""
    if type(payload) is bytes or (
        isinstance(payload, memoryview) and type(payload.obj) is bytes
        and payload.c_contiguous and payload.itemsize == 1
    ):
        return payload
    return bytes(payload)


def encode_frame(frame: Frame) -> WireFrame:
    """Serialize a frame: its 24-byte header beside its payload, uncopied."""
    if frame.ftype not in FrameType.ALL:
        raise FrameError(f"unknown frame type {frame.ftype!r}")
    if not 0 <= frame.stream_id <= _U64_MAX:
        raise FrameError(f"stream id {frame.stream_id} out of u64 range")
    if not 0 <= frame.seq <= _U32_MAX:
        raise FrameError(f"sequence number {frame.seq} out of u32 range")
    payload = _stable(frame.payload)
    if len(payload) > _U32_MAX:
        raise FrameError("frame payload exceeds u32 length")
    header = _HEADER.pack(
        FRAME_MAGIC,
        FRAME_VERSION,
        frame.ftype,
        frame.stream_id,
        frame.seq,
        len(payload),
        frame.crc32,
    )
    return WireFrame(header, payload)


def decode_frame(raw: WireFrame | bytes | bytearray | memoryview) -> Frame:
    """Parse a frame; raises :class:`FrameError` on any malformation.

    A :class:`WireFrame`'s payload comes back as the very object it
    carries; contiguous bytes (what a socket delivers) as a view into
    them, a mutable buffer snapshotted first.  Either way nothing is
    copied, and the CRC is verified over the payload where it lies.
    """
    if isinstance(raw, WireFrame):
        header, payload = memoryview(raw.header), raw.payload
    else:
        view = memoryview(_stable(raw))
        header, payload = view[:FRAME_HEADER_BYTES], view[FRAME_HEADER_BYTES:]
    r = ByteReader(header, FrameError)
    magic, version, ftype, stream_id, seq, length, crc = r.unpack(_HEADER)
    r.end()
    if magic != FRAME_MAGIC:
        raise FrameError(f"bad frame magic {magic!r}")
    if version != FRAME_VERSION:
        raise FrameError(
            f"unsupported frame version {version} (this codec speaks "
            f"{FRAME_VERSION})"
        )
    if ftype not in FrameType.ALL:
        raise FrameError(f"unknown frame type {ftype}")
    if len(payload) != length:
        raise FrameError(
            f"frame payload is {len(payload)} bytes, its header says {length}"
        )
    if zlib.crc32(payload) != crc:
        raise FrameError(f"frame checksum mismatch on stream {stream_id} seq {seq}")
    return Frame(
        stream_id=stream_id, seq=seq, payload=payload, ftype=ftype, crc32=crc
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
        return _OPEN_FIXED.pack(
            self.total_size, self.chunk_bytes, self.chunk_count,
            self.total_crc32,
        ) + asn1.encode(self.context)

    @classmethod
    def decode(cls, raw: bytes | memoryview) -> "OpenInfo":
        r = ByteReader(memoryview(raw), FrameError)
        total, chunk, count, crc = r.unpack(_OPEN_FIXED)
        context = asn1.read(r)
        r.end()
        if not isinstance(context, dict):
            raise FrameError("OPEN context must be a map")
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
        chunks: typing.Sequence[memoryview] | None = None,
    ) -> None:
        self.stream_id = stream_id
        #: The views the DATA frames carry: the caller's, when it already
        #: holds ``data`` cut at ``chunk_bytes``.
        self.chunks = (
            chunk_payload(data, chunk_bytes) if chunks is None else chunks
        )
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
        if not cut or info.chunk_count != -(-size // cut):  # senders cut > 0
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
        # A duplicate OPEN carries no new data.
        return self.complete

    def edges(self, n: int) -> tuple[bytes, bytes]:
        """The first and the last ``n`` bytes of the payload (all of it
        when shorter), read from the chunks without joining them."""
        pieces = [self._chunks[i].payload for i in range(self.info.chunk_count)]
        head = tail = b""
        for piece in pieces:
            if len(head) >= n:
                break
            head += bytes(piece[: n - len(head)])
        for piece in reversed(pieces):
            if len(tail) >= n:
                break
            tail = bytes(piece[max(len(piece) - n + len(tail), 0):]) + tail
        return head, tail

    def payload(
        self, held: bytes | None = None, own: typing.Sequence[object] = ()
    ) -> bytes:
        """The reassembled bytes: ``held`` itself when every chunk equals
        it at the chunk's offset, else the one copy joined on this side.

        Verifies the whole-payload checksum first, by folding the chunk
        CRCs :func:`decode_frame` already verified.  ``own`` is ``held``
        cut at ``info.chunk_bytes``, one view per chunk, as the body that
        holds it handed them out: a chunk that *is* ``own[seq]`` is that
        memory at that offset, so it equals ``held`` there without a byte
        compare.  Any other chunk is compared (:func:`_equal_at`), so a
        chunk from a socket, from other bytes or moved to another seq is
        proven by its content; a ``held`` that matches only the checksums
        is not returned.
        """
        if not self.complete:
            missing = self.next_expected
            raise FrameError(
                f"stream {self.stream_id} incomplete: chunk {missing} of "
                f"{self.info.chunk_count} missing"
            )
        frames = [self._chunks[i] for i in range(self.info.chunk_count)]
        cut = self.info.chunk_bytes
        if self.info.total_crc32 != _fold_crc32(
            ((frame.payload, frame.crc32) for frame in frames), cut
        ):
            raise FrameError(
                f"stream {self.stream_id} payload checksum mismatch"
            )
        # Every chunk is sized by feed, so a held payload of the total
        # size that equals each chunk at its offset is the payload.
        if held is not None and len(held) == self.info.total_size:
            if len(own) != len(frames):
                own = (None,) * len(frames)
            if all(
                frame.payload is mine or _equal_at(held, frame.payload, seq * cut)
                for seq, (frame, mine) in enumerate(zip(frames, own))
            ):
                return held
        return b"".join(frame.payload for frame in frames)


def _equal_at(held: bytes, chunk: bytes | memoryview, offset: int) -> bool:
    """Does ``held`` carry ``chunk`` at ``offset``?  A memcmp that copies
    nothing (``bytes.startswith``)."""
    return held.startswith(chunk, offset)
