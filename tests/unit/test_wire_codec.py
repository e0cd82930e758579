"""The socket framing codec: every payload the protocol sends must
round-trip a frame byte-exact, and garbage must fail as FrameDecodeError
(code ``net.frame_decode``) rather than a bare struct.error."""

import pytest

from repro import asn1
from repro.net.errors import FrameDecodeError
from repro.net.wire import (
    FTYPE_HELLO,
    FTYPE_MSG,
    HEADER,
    MAGIC,
    MAX_BODY,
    VERSION,
    FrameSplitter,
    WireMessage,
    decode_frame,
    encode_hello,
    encode_message,
)
from repro.protocol.messages import Reply, Request


def _roundtrip(payload):
    frame = encode_message(
        msg_id=7, sender="ws", recipient="gw", payload=payload,
        size_bytes=123, channel="ctl", deliver=True,
    )
    magic, version, ftype, length = HEADER.unpack(frame[:HEADER.size])
    assert (magic, version, ftype) == (MAGIC, VERSION, FTYPE_MSG)
    assert length == len(frame) - HEADER.size
    wm = decode_frame(ftype, frame[HEADER.size:])
    assert isinstance(wm, WireMessage)
    assert (wm.msg_id, wm.sender, wm.recipient) == (7, "ws", "gw")
    assert (wm.channel, wm.size_bytes, wm.deliver) == ("ctl", 123, True)
    return wm.payload


@pytest.mark.parametrize("payload", [
    None,
    True,
    False,
    0,
    -1,
    2**40,
    -(2**40),
    3.25,
    "",
    "ünïcode text",
    b"",
    b"\x00\xffbinary",
    [1, "two", None],
    [b"stream", 4, False],
    {"k": [1.5, [True]], "nested": {"a": None}},
])
def test_scalar_and_container_payloads_roundtrip(payload):
    assert _roundtrip(payload) == payload


def test_request_roundtrips_with_request_id():
    req = Request(
        kind="consign_job", user_dn="CN=Alice", payload=b'{"x": 1}',
        vsite="FZJ-T3E", trace_id="t-1", parent_span_id="s-0",
    )
    got = _roundtrip(req)
    assert isinstance(got, Request)
    # Correlation id must survive the socket, not be re-allocated.
    assert got.request_id == req.request_id
    assert (got.kind, got.user_dn, got.vsite) == (
        req.kind, req.user_dn, req.vsite)
    assert got.payload == b'{"x": 1}'
    assert (got.trace_id, got.parent_span_id) == ("t-1", "s-0")


def test_reply_roundtrips():
    rep = Reply(request_id=99, ok=False, payload=None,
                error="boom", error_code="njs.down")
    got = _roundtrip(rep)
    assert isinstance(got, Reply)
    assert (got.request_id, got.ok) == (99, False)
    assert (got.error, got.error_code) == ("boom", "njs.down")


def test_hello_roundtrips():
    frame = encode_hello("ws:Clara Grid")
    _, _, ftype, _ = HEADER.unpack(frame[:HEADER.size])
    assert ftype == FTYPE_HELLO
    assert decode_frame(ftype, frame[HEADER.size:]) == "ws:Clara Grid"


def test_unencodable_type_is_a_programming_error():
    with pytest.raises(TypeError):
        encode_message(1, "a", "b", object(), 0, "ctl", True)


def test_unknown_tag_raises_frame_decode_error():
    frame = encode_message(1, "a", "b", None, 0, "ctl", True)
    body = bytearray(frame[HEADER.size:])
    body[-2] = 0xEE  # the payload's tag byte
    with pytest.raises(FrameDecodeError) as ei:
        decode_frame(FTYPE_MSG, bytes(body))
    assert ei.value.code == "net.frame_decode"


def test_truncated_body_raises_frame_decode_error():
    frame = encode_message(1, "a", "b", b"x" * 32, 0, "ctl", True)
    with pytest.raises(FrameDecodeError):
        decode_frame(FTYPE_MSG, frame[HEADER.size:-5])


def test_trailing_bytes_raise_frame_decode_error():
    frame = encode_message(1, "a", "b", None, 0, "ctl", True)
    with pytest.raises(FrameDecodeError, match="trailing"):
        decode_frame(FTYPE_MSG, frame[HEADER.size:] + b"\x00")


def test_unknown_frame_type_raises():
    with pytest.raises(FrameDecodeError, match="frame type"):
        decode_frame(42, b"")


def test_invalid_hello_utf8_raises():
    with pytest.raises(FrameDecodeError, match="HELLO"):
        decode_frame(FTYPE_HELLO, b"\xff\xfe")


def _split(data, eof=True):
    splitter = FrameSplitter()
    frames = list(splitter.feed(data))
    if eof:
        splitter.eof()
    return frames


def test_frame_splitter_framing():
    """FrameSplitter: back-to-back frames parse; garbage headers raise."""
    hello = encode_hello("ws")
    msg = encode_message(5, "ws", "gw", "ping", 10, "ctl", True)
    frames = _split(hello + msg)
    assert [f[0] for f in frames] == [FTYPE_HELLO, FTYPE_MSG]
    assert frames[1][1] == msg[HEADER.size:]

    with pytest.raises(FrameDecodeError, match="magic"):
        _split(b"XX" + hello[2:])
    with pytest.raises(FrameDecodeError, match="version"):
        _split(HEADER.pack(MAGIC, 9, FTYPE_HELLO, 0))
    with pytest.raises(FrameDecodeError, match="mid-header"):
        _split(hello[:4])
    with pytest.raises(FrameDecodeError, match="mid-body"):
        _split(msg[:-3])
    with pytest.raises(FrameDecodeError, match="exceeds"):
        _split(HEADER.pack(MAGIC, VERSION, FTYPE_MSG, MAX_BODY + 1),
               eof=False)


def test_frames_before_a_refusal_are_yielded_and_the_stream_stays_refused():
    msg = encode_message(5, "ws", "gw", "ping", 10, "ctl", True)
    splitter = FrameSplitter()
    feed = splitter.feed(msg + b"XX" + msg)
    assert next(feed) == (FTYPE_MSG, msg[HEADER.size:])
    with pytest.raises(FrameDecodeError, match="magic"):
        next(feed)
    with pytest.raises(FrameDecodeError, match="magic"):
        list(splitter.feed(msg))


# -- hostile bodies: a value or FrameDecodeError, nothing else ----------------

def _msg_body(payload=b"\x05\x00", msg_id=b"\x02\x01\x07", size=b"\x02\x01\x00"):
    """A plain-form MSG body around raw, possibly malformed, encodings
    (the defaults: None, id 7, size 0)."""
    text = asn1.encode("a")
    return msg_id + text * 3 + size + asn1.encode(True) + asn1.encode(0) + payload


def test_unhashable_dict_key_raises_frame_decode_error():
    # {[]: None}: a list where a map key must be.
    body = _msg_body(b"\xa0\x04" + asn1.encode([]) + asn1.encode(None))
    with pytest.raises(FrameDecodeError, match="map key must decode to str"):
        decode_frame(FTYPE_MSG, body)


def test_request_the_protocol_refuses_raises_frame_decode_error():
    good = encode_message(
        1, "a", "b", Request(kind="query", user_dn="CN=A", payload=b""),
        0, "ctl", True,
    )
    bad = good.replace(b"query", b"qu3ry")
    with pytest.raises(FrameDecodeError, match="unknown request kind"):
        decode_frame(FTYPE_MSG, bad[HEADER.size:])


def test_bottomless_nesting_raises_frame_decode_error():
    # A sequence holding a sequence ... holding None, built inside out.
    heads, inner = [], 2
    for _ in range(100_000):
        length = inner.to_bytes(4, "big")
        heads.append(b"\x30\x84" + length)
        inner += len(heads[-1])
    body = _msg_body(b"".join(reversed(heads)) + b"\x05\x00")
    with pytest.raises(FrameDecodeError, match="nested deeper than"):
        decode_frame(FTYPE_MSG, body)


def test_non_integer_msg_id_or_size_raises_frame_decode_error():
    empty_list = asn1.encode([])
    for body in (_msg_body(msg_id=empty_list), _msg_body(size=empty_list)):
        with pytest.raises(FrameDecodeError, match="not int"):
            decode_frame(FTYPE_MSG, body)
    assert decode_frame(FTYPE_MSG, _msg_body()).msg_id == 7


def test_a_frame_of_the_previous_version_is_refused():
    """Version 1 spelled the MSG body in a tagged scheme of its own."""
    msg = encode_message(5, "ws", "gw", "ping", 10, "ctl", True)
    old = HEADER.pack(MAGIC, 1, FTYPE_MSG, len(msg) - HEADER.size)
    with pytest.raises(FrameDecodeError, match="unsupported frame version 1"):
        _split(old + msg[HEADER.size:])
