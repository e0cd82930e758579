"""Socket framing for the asyncio transport backend.

The simkernel backend moves Python objects between in-process inboxes;
the real-socket backend must put the *same* messages on a TCP stream.
This module is the codec between the two worlds: a
:class:`~repro.net.sim_transport.Message` (envelope metadata plus
payload) becomes one length-prefixed frame, and the payload itself — a
control-plane :class:`~repro.protocol.messages.Request`/``Reply``, a
data-plane ``bytes`` stream frame (already binary, PR 3), or one of the
small handshake tuples — is encoded with a tagged binary scheme that
round-trips every payload type the protocol actually sends.

Frame layout (network byte order)::

    +----+----+------+-------+-----------------+
    | 'UW'    | ver  | ftype | body length (u32)|  header: !2sBBI (8 bytes)
    +----+----+------+-------+-----------------+
    | body ...                                  |
    +-------------------------------------------+

Frame types:

``HELLO``
    Sent once by a connecting client: body is the UTF-8 host name the
    connection speaks for, so the acceptor can bind the socket to a
    workstation host.

``MSG``
    One transport message: body is the encoded envelope fields
    (msg_id, sender, recipient, channel, size_bytes, deliver) followed
    by the tagged payload.  ``size_bytes`` rides explicitly because the
    simulated wire size (what benchmarks charge for) is part of the
    protocol contract, independent of the encoding's framing overhead.

Malformed input raises :class:`~repro.net.errors.FrameDecodeError`
(code ``net.frame_decode``) — the MSG body is read through a
:class:`~repro.bytereader.ByteReader` — so both backends surface decode
failures through the same ``net.*`` hierarchy.
"""

from __future__ import annotations

import struct
import typing
from dataclasses import dataclass

from repro.bytereader import ByteReader
from repro.net.errors import FrameDecodeError
from repro.protocol.messages import Reply, Request

__all__ = [
    "FTYPE_HELLO",
    "FTYPE_MSG",
    "HEADER",
    "FrameSplitter",
    "WireMessage",
    "decode_frame",
    "encode_hello",
    "encode_message",
]

#: Frame header: magic, version, frame type, body length.
HEADER = struct.Struct("!2sBBI")
MAGIC = b"UW"
VERSION = 1

FTYPE_HELLO = 1
FTYPE_MSG = 2

#: Refuse absurd bodies before allocating (64 MiB covers every payload
#: the reproduction sends by orders of magnitude).
MAX_BODY = 64 * 1024 * 1024

# -- tagged payload encoding --------------------------------------------------
# One leading tag byte per value; containers encode a length then their
# items.  Only the types the protocol actually puts on the wire are
# supported — an unknown type at encode time is a programming error
# (TypeError), unknown tag at decode time is FrameDecodeError.

_T_NONE = 0x00
_T_TRUE = 0x01
_T_FALSE = 0x02
_T_INT = 0x03
_T_FLOAT = 0x04
_T_STR = 0x05
_T_BYTES = 0x06
_T_LIST = 0x07
_T_TUPLE = 0x08
_T_DICT = 0x09
_T_REQUEST = 0x0A
_T_REPLY = 0x0B

_U32 = struct.Struct("!I")
_F64 = struct.Struct("!d")


def _enc_str(out: list[bytes], s: str) -> None:
    raw = s.encode("utf-8")
    out.append(_U32.pack(len(raw)))
    out.append(raw)


def _encode_value(out: list[bytes], value: object) -> None:
    if value is None:
        out.append(bytes([_T_NONE]))
    elif value is True:
        out.append(bytes([_T_TRUE]))
    elif value is False:
        out.append(bytes([_T_FALSE]))
    elif isinstance(value, int):
        raw = value.to_bytes((value.bit_length() + 8) // 8 or 1, "big", signed=True)
        out.append(bytes([_T_INT, len(raw)]))
        out.append(raw)
    elif isinstance(value, float):
        out.append(bytes([_T_FLOAT]))
        out.append(_F64.pack(value))
    elif isinstance(value, str):
        out.append(bytes([_T_STR]))
        _enc_str(out, value)
    elif isinstance(value, (bytes, bytearray, memoryview)):
        raw = bytes(value)
        out.append(bytes([_T_BYTES]))
        out.append(_U32.pack(len(raw)))
        out.append(raw)
    elif isinstance(value, (list, tuple)):
        out.append(bytes([_T_LIST if isinstance(value, list) else _T_TUPLE]))
        out.append(_U32.pack(len(value)))
        for item in value:
            _encode_value(out, item)
    elif isinstance(value, dict):
        out.append(bytes([_T_DICT]))
        out.append(_U32.pack(len(value)))
        for k, v in value.items():
            _encode_value(out, k)
            _encode_value(out, v)
    elif isinstance(value, Request):
        out.append(bytes([_T_REQUEST]))
        # request_id rides the wire: correlation must survive the socket.
        _encode_value(out, value.request_id)
        _enc_str(out, value.kind)
        _enc_str(out, value.user_dn)
        _encode_value(out, value.payload)
        _enc_str(out, value.vsite)
        _enc_str(out, value.trace_id)
        _enc_str(out, value.parent_span_id)
    elif isinstance(value, Reply):
        out.append(bytes([_T_REPLY]))
        _encode_value(out, value.request_id)
        _encode_value(out, value.ok)
        _encode_value(out, value.payload)
        _enc_str(out, value.error)
        _enc_str(out, value.error_code)
    else:
        raise TypeError(
            f"payload type {type(value).__name__} is not wire-encodable"
        )


def _string(r: ByteReader[bytes]) -> str:
    return r.text(r.unpack(_U32)[0])


def _decode_value(r: ByteReader[bytes]) -> object:
    tag = r.u8()
    if tag == _T_NONE:
        return None
    if tag == _T_TRUE:
        return True
    if tag == _T_FALSE:
        return False
    if tag == _T_INT:
        return int.from_bytes(r.take(r.u8()), "big", signed=True)
    if tag == _T_FLOAT:
        return r.unpack(_F64)[0]
    if tag == _T_STR:
        return _string(r)
    if tag == _T_BYTES:
        return r.take(r.unpack(_U32)[0])
    with r.nest():
        if tag in (_T_LIST, _T_TUPLE):
            n = r.unpack(_U32)[0]
            items = [_decode_value(r) for _ in range(n)]
            return items if tag == _T_LIST else tuple(items)
        if tag == _T_DICT:
            n = r.unpack(_U32)[0]
            return {_decode_value(r): _decode_value(r) for _ in range(n)}
        if tag == _T_REQUEST:
            request_id = _decode_value(r)
            req = Request(  # keyword arguments are read in wire order
                kind=_string(r), user_dn=_string(r),
                payload=typing.cast(bytes, _decode_value(r)), vsite=_string(r),
                trace_id=_string(r), parent_span_id=_string(r),
            )
            # The dataclass default allocated a fresh local id; restore
            # the sender's so replies correlate end to end.
            req.request_id = typing.cast(int, request_id)
            return req
        if tag == _T_REPLY:
            return Reply(
                request_id=typing.cast(int, _decode_value(r)),
                ok=bool(_decode_value(r)),
                payload=typing.cast(bytes, _decode_value(r)),
                error=_string(r),
                error_code=_string(r),
            )
    raise FrameDecodeError(f"unknown payload tag 0x{tag:02x}")


# -- frames -------------------------------------------------------------------

@dataclass(slots=True)
class WireMessage:
    """A decoded MSG frame: envelope metadata plus payload."""

    msg_id: int
    sender: str
    recipient: str
    channel: str
    size_bytes: int
    deliver: bool
    payload: object


def _frame(ftype: int, body: bytes) -> bytes:
    return HEADER.pack(MAGIC, VERSION, ftype, len(body)) + body


def encode_hello(host_name: str) -> bytes:
    """HELLO frame binding a connection to a workstation host."""
    return _frame(FTYPE_HELLO, host_name.encode("utf-8"))


def encode_message(
    msg_id: int,
    sender: str,
    recipient: str,
    payload: object,
    size_bytes: int,
    channel: str,
    deliver: bool,
) -> bytes:
    """MSG frame carrying one transport message."""
    out: list[bytes] = []
    _encode_value(out, msg_id)
    _enc_str(out, sender)
    _enc_str(out, recipient)
    _enc_str(out, channel)
    _encode_value(out, size_bytes)
    _encode_value(out, deliver)
    _encode_value(out, payload)
    return _frame(FTYPE_MSG, b"".join(out))


def decode_frame(ftype: int, body: bytes) -> "str | WireMessage":
    """Decode a frame body: HELLO -> host name, MSG -> WireMessage."""
    if ftype == FTYPE_HELLO:
        try:
            return body.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FrameDecodeError(f"invalid HELLO host name: {exc}") from None
    if ftype == FTYPE_MSG:
        r = ByteReader(body, FrameDecodeError)
        try:
            msg_id = _decode_value(r)
            sender = _string(r)
            recipient = _string(r)
            channel = _string(r)
            size_bytes = _decode_value(r)
            deliver = bool(_decode_value(r))
            payload = _decode_value(r)
        except (TypeError, ValueError) as exc:
            # An unhashable dict key, a Request the protocol refuses: the
            # bytes are at fault, not the program.
            raise FrameDecodeError(f"undecodable MSG body: {exc}") from None
        if not (isinstance(msg_id, int) and isinstance(size_bytes, int)):
            raise FrameDecodeError("MSG id and size must be integers")
        r.end()
        return WireMessage(
            msg_id=msg_id, sender=sender, recipient=recipient,
            channel=channel, size_bytes=size_bytes, deliver=deliver,
            payload=payload,
        )
    raise FrameDecodeError(f"unknown frame type {ftype}")


class FrameSplitter:
    """Finds the frames in one byte stream, however the stream is cut.

    :meth:`feed` takes the bytes as a socket hands them over and yields
    each ``(ftype, body)`` whose last byte has arrived.  A header is
    judged as soon as its eight bytes are in: bad magic, then unknown
    version, then a body over :data:`MAX_BODY` raise
    :class:`FrameDecodeError` before a byte of that body is kept.  There
    is no resynchronising: a refused stream stays refused.
    """

    def __init__(self) -> None:
        #: Bytes received that are not yet part of a yielded frame.
        self._buf = bytearray()

    def feed(self, data: bytes) -> typing.Iterator[tuple[int, bytes]]:
        """Yield the frames ``data`` completes.  A generator: iterate it;
        the frames before a refusal are yielded before it is raised."""
        buf = self._buf
        buf += data
        while len(buf) >= HEADER.size:
            magic, version, ftype, length = HEADER.unpack_from(buf)
            if magic != MAGIC:
                refusal = f"bad frame magic {magic!r}"
            elif version != VERSION:
                refusal = f"unsupported frame version {version}"
            elif length > MAX_BODY:
                refusal = f"frame body {length} exceeds {MAX_BODY}"
            else:
                end = HEADER.size + length
                if len(buf) < end:
                    return
                body = bytes(memoryview(buf)[HEADER.size:end])
                del buf[:end]
                yield ftype, body
                continue
            del buf[HEADER.size:]  # hold the refused header, nothing behind it
            raise FrameDecodeError(refusal)

    def eof(self) -> None:
        """The stream has ended: refuse it unless it ended between frames."""
        if self._buf:
            part = "header" if len(self._buf) < HEADER.size else "body"
            raise FrameDecodeError(f"connection closed mid-{part}")
