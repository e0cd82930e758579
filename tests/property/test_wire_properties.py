"""Property-based tests: the socket framing is total and cut-independent.

A TCP stream has no message boundaries, so :class:`FrameSplitter` must
find the same frames however the bytes are chunked, and anything a peer
can send — garbage, or a valid stream with bytes changed — must end in
frames or :class:`FrameDecodeError`, never in a bare ``struct.error``,
``IndexError``, ``UnicodeDecodeError``, ``ValueError`` or ``TypeError``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.errors import FrameDecodeError
from repro.net.wire import (
    FTYPE_MSG,
    HEADER,
    MAGIC,
    MAX_BODY,
    VERSION,
    FrameSplitter,
    decode_frame,
    encode_hello,
    encode_message,
)
from repro.protocol.messages import Reply, Request, RequestKind

names = st.text(max_size=12)
scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-(2**70), 2**70),
    st.floats(allow_nan=False), st.text(max_size=16), st.binary(max_size=64),
)
values = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=6), inner, max_size=4),
    ),
    max_leaves=12,
)
payloads = st.one_of(
    values,
    st.builds(
        Request, kind=st.sampled_from(RequestKind.ALL), user_dn=names,
        payload=st.binary(max_size=256), vsite=names, trace_id=names,
        parent_span_id=names,
    ),
    st.builds(
        Reply, request_id=st.integers(0, 2**40), ok=st.booleans(),
        payload=st.binary(max_size=256), error=names, error_code=names,
    ),
)
frames = st.one_of(
    names.map(encode_hello),
    st.builds(
        encode_message, msg_id=st.integers(0, 2**40), sender=names,
        recipient=names, payload=payloads, size_bytes=st.integers(0, 2**32),
        channel=names, deliver=st.booleans(),
    ),
)
streams = st.lists(frames, max_size=6).map(b"".join)


def _cut(data, cuts):
    """``data`` in the chunks the sorted offsets ``cuts`` leave."""
    edges = [0, *sorted(c % (len(data) + 1) for c in cuts), len(data)]
    return [data[a:b] for a, b in zip(edges, edges[1:], strict=False) if a != b]


def _frames(chunks):
    splitter = FrameSplitter()
    found = [frame for chunk in chunks for frame in splitter.feed(chunk)]
    splitter.eof()
    return found


@settings(max_examples=150, deadline=None)
@given(data=streams, cuts=st.lists(st.integers(0, 1 << 16), max_size=12))
def test_any_cut_of_the_stream_yields_the_same_frames(data, cuts):
    whole = _frames([data])
    assert b"".join(
        HEADER.pack(MAGIC, VERSION, ftype, len(body)) + body
        for ftype, body in whole
    ) == data
    assert _frames(_cut(data, cuts)) == whole
    assert _frames([data[i:i + 1] for i in range(len(data))]) == whole


@settings(max_examples=150, deadline=None)
@given(data=streams.filter(bool), flips=st.lists(
    st.tuples(st.integers(0, 1 << 16), st.integers(1, 255)),
    min_size=1, max_size=4,
), cuts=st.lists(st.integers(0, 1 << 16), max_size=4))
def test_a_mutated_stream_ends_in_frames_or_frame_decode_error(data, flips, cuts):
    raw = bytearray(data)
    for where, mask in flips:
        raw[where % len(raw)] ^= mask
    try:
        for ftype, body in _frames(_cut(bytes(raw), cuts)):
            decode_frame(ftype, body)
    except FrameDecodeError as refusal:
        assert refusal.code == "net.frame_decode"


@settings(max_examples=150, deadline=None)
@given(junk=st.binary(max_size=512), as_body=st.booleans())
def test_arbitrary_bytes_end_in_frames_or_frame_decode_error(junk, as_body):
    if as_body:  # get past the header, so the body decoder sees the junk
        junk = HEADER.pack(MAGIC, VERSION, FTYPE_MSG, len(junk)) + junk
    try:
        for ftype, body in _frames([junk]):
            decode_frame(ftype, body)
    except FrameDecodeError as refusal:
        assert refusal.code == "net.frame_decode"


@settings(max_examples=50, deadline=None)
@given(ftype=st.integers(0, 255), over=st.integers(1, (1 << 32) - 1 - MAX_BODY),
       split=st.integers(0, HEADER.size))
def test_an_oversized_body_is_refused_on_its_header_alone(ftype, over, split):
    header = HEADER.pack(MAGIC, VERSION, ftype, MAX_BODY + over)
    splitter = FrameSplitter()
    with pytest.raises(FrameDecodeError, match="exceeds"):
        for chunk in _cut(header, [split]):
            assert list(splitter.feed(chunk)) == []
    # Not one byte of the announced body was asked for, let alone kept:
    # what comes next is refused too, and only the header is held.
    with pytest.raises(FrameDecodeError, match="exceeds"):
        list(splitter.feed(b"\0" * 4096))
    with pytest.raises(FrameDecodeError, match="exceeds"):
        list(splitter.feed(b""))
