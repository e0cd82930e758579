"""Socket framing for the asyncio transport backend.

The simkernel backend moves Python objects between in-process inboxes;
the real-socket backend must put the *same* messages on a TCP stream.
This module is the codec between the two worlds: a
:class:`~repro.net.sim_transport.Message` (envelope metadata plus
payload) becomes one length-prefixed frame whose body is a run of
:mod:`repro.asn1` values.  The payload — a control-plane
:class:`~repro.protocol.messages.Request`/``Reply``, a data-plane
stream frame, or one of the small handshake tuples — rides as
one form marker and that form's fields, so every payload type the
protocol sends comes back as itself (a tuple as a list: only
``deliver=False`` handshake tuples cross a socket; a
:class:`~repro.net.stream.WireFrame` as its joined ``bytes``).

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
    One transport message: body is the envelope fields (msg_id,
    sender, recipient, channel, size_bytes, deliver), the payload's form
    marker (plain value, ``Request``, ``Reply``) and that form's fields,
    each one value.  ``size_bytes`` rides explicitly because the
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

from repro import asn1
from repro.bytereader import ByteReader
from repro.net.errors import FrameDecodeError
from repro.net.stream import WireFrame
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
#: 1 encoded the MSG body in a tagged scheme of its own.
VERSION = 2

FTYPE_HELLO = 1
FTYPE_MSG = 2

#: Refuse absurd bodies before allocating (64 MiB covers every payload
#: the reproduction sends by orders of magnitude).
MAX_BODY = 64 * 1024 * 1024

# -- the MSG body ---------------------------------------------------------------
# The envelope fields, one form marker, then that form's fields: each one
# repro.asn1 value, back to back.

_PLAIN = 0
_REQUEST = 1
_REPLY = 2

#: The type of each envelope field, in wire order: msg_id, sender,
#: recipient, channel, size_bytes, deliver.
_ENVELOPE = (int, str, str, str, int, bool)
#: The type of each field a form carries after its marker.  A Request's
#: are request_id, kind, user_dn, payload, vsite, trace_id and
#: parent_span_id (request_id rides the wire: correlation must survive
#: the socket); a Reply's are request_id, ok, payload, error and
#: error_code.
_FORMS: dict[int, tuple[type, ...]] = {
    _PLAIN: (object,),
    _REQUEST: (int, str, str, bytes, str, str, str),
    _REPLY: (int, bool, object, str, str),
}


def _form(payload: object) -> tuple[object, ...]:
    """The form marker and fields that carry ``payload``."""
    if isinstance(payload, Request):
        return (
            _REQUEST, payload.request_id, payload.kind, payload.user_dn,
            payload.payload, payload.vsite, payload.trace_id,
            payload.parent_span_id,
        )
    if isinstance(payload, Reply):
        return (
            _REPLY, payload.request_id, payload.ok, payload.payload,
            payload.error, payload.error_code,
        )
    if isinstance(payload, WireFrame):
        # A stream frame crosses in-process as header + payload; a socket
        # carries it contiguous, joined here once.
        return (_PLAIN, bytes(payload))
    return (_PLAIN, payload)


def _fields(r: ByteReader[bytes], types: tuple[type, ...]) -> list[typing.Any]:
    """The next ``len(types)`` values, each refused unless of its type."""
    values = [asn1.read(r) for _ in types]
    for value, kind in zip(values, types, strict=True):
        if not isinstance(value, kind):
            raise FrameDecodeError(
                f"MSG field is {type(value).__name__}, not {kind.__name__}"
            )
    return values


def _payload(r: ByteReader[bytes]) -> object:
    marker = asn1.read(r)
    if type(marker) is not int or marker not in _FORMS:
        raise FrameDecodeError(f"unknown MSG form {marker!r}")
    fields = _fields(r, _FORMS[marker])
    if marker == _REQUEST:
        request_id, kind, user_dn, payload, vsite, trace_id, span_id = fields
        try:
            req = Request(
                kind=kind, user_dn=user_dn, payload=payload, vsite=vsite,
                trace_id=trace_id, parent_span_id=span_id,
            )
        except ValueError as exc:  # a kind the protocol does not know
            raise FrameDecodeError(f"undecodable MSG body: {exc}") from None
        # The dataclass default allocated a fresh local id; restore the
        # sender's so replies correlate end to end.
        req.request_id = request_id
        return req
    if marker == _REPLY:
        request_id, ok, payload, error, error_code = fields
        return Reply(
            request_id=request_id, ok=ok, payload=payload, error=error,
            error_code=error_code,
        )
    return fields[0]


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
    for value in (
        msg_id, sender, recipient, channel, size_bytes, deliver,
        *_form(payload),
    ):
        asn1.write(out, value)
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
        msg_id, sender, recipient, channel, size_bytes, deliver = _fields(
            r, _ENVELOPE
        )
        payload = _payload(r)
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
