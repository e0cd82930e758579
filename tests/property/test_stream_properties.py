"""Property-based tests: frame codec totality, manifest roundtrips, and
adoption of held bytes (never other bytes than those received)."""

import string
import zlib

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FrameError, SerializationError
from repro.net.stream import (
    Frame,
    FrameType,
    OpenInfo,
    StreamReassembler,
    StreamSender,
    chunk_payload,
    crc32_combine,
    decode_frame,
    encode_frame,
)
from repro.protocol.consignment import (
    decode_consignment_envelope,
    encode_consignment,
)
from repro import asn1
from repro.protocol.datapath import FileEntry, decode_item, item_value
from repro.vfs.body import KEY_EDGE, FileBody, adopt, held_key, hold

payloads = st.binary(max_size=4096)
relative_paths = st.text(
    string.ascii_letters + string.digits + "_-.", min_size=1, max_size=16
).filter(lambda p: p not in (".", "..") and ".." not in p)


# ---------------------------------------------------------------- frames
@settings(max_examples=120, deadline=None)
@given(
    stream_id=st.integers(0, (1 << 64) - 1),
    seq=st.integers(0, (1 << 32) - 1),
    ftype=st.sampled_from(FrameType.ALL),
    payload=payloads,
)
def test_frame_encode_decode_roundtrip(stream_id, seq, ftype, payload):
    frame = Frame(stream_id=stream_id, seq=seq, ftype=ftype, payload=payload)
    assert decode_frame(encode_frame(frame)) == frame


@settings(max_examples=120, deadline=None)
@given(payload=payloads, flip=st.integers(0, 1 << 20))
def test_frame_decode_is_total_on_corruption(payload, flip):
    """Any single-byte corruption either decodes or raises FrameError."""
    raw = bytearray(bytes(encode_frame(Frame(stream_id=1, seq=0, payload=payload))))
    raw[flip % len(raw)] ^= 1 + (flip % 255)
    try:
        decode_frame(bytes(raw))
    except FrameError:
        pass  # rejection is the expected outcome for most flips


@settings(max_examples=120, deadline=None)
@given(
    data=payloads, start=st.integers(0, 4096), stop=st.integers(0, 4096),
    mutable=st.booleans(),
)
def test_a_wire_frame_is_the_joined_frame_in_two_pieces(data, start, stop, mutable):
    """Over bytes the payload object crosses as it is; over a mutable
    buffer it is snapshotted.  Either way the two pieces measure and
    decode like the joined frame, and a later write to the buffer is
    not seen."""
    buffer = bytearray(data) if mutable else data
    payload = memoryview(buffer)[start:stop]
    frame = Frame(stream_id=5, seq=1, payload=payload)
    wire = encode_frame(frame)
    assert (wire.payload is payload) is not mutable
    if mutable and len(buffer):
        buffer[:] = bytes(len(buffer))
    decoded = decode_frame(wire)
    assert decoded.payload is wire.payload
    assert len(wire) == len(bytes(wire))
    assert decoded == decode_frame(bytes(wire))
    assert bytes(decoded.payload) == data[start:stop]


@settings(max_examples=120, deadline=None)
@given(junk=st.binary(max_size=256))
def test_frame_decode_never_crashes_on_junk(junk):
    try:
        decode_frame(junk)
    except FrameError:
        pass


@settings(max_examples=120, deadline=None)
@given(data=st.binary(min_size=0, max_size=8192), chunk=st.integers(1, 1024))
def test_chunking_partitions_payload(data, chunk):
    chunks = chunk_payload(data, chunk)
    assert b"".join(chunks) == data
    assert all(1 <= len(c) <= chunk for c in chunks)


@settings(max_examples=120, deadline=None)
@given(
    data=st.binary(min_size=1, max_size=8192),
    chunk=st.integers(1, 1024),
    order=st.randoms(use_true_random=False),
)
def test_sender_reassembler_roundtrip_any_feed_order(data, chunk, order):
    """Shuffled (and duplicated) delivery still reassembles exactly."""
    sender = StreamSender(17, data, chunk, {"kind": "prop"})
    frames = list(sender.frames())
    open_frame, data_frames = frames[0], frames[1:]
    order.shuffle(data_frames)
    reassembler = StreamReassembler(decode_frame(encode_frame(open_frame)))
    for frame in data_frames:
        reassembler.feed(decode_frame(encode_frame(frame)))
    if data_frames:  # duplicates are idempotent
        reassembler.feed(data_frames[0])
    assert reassembler.complete
    assert reassembler.payload() == data
    assert reassembler.context == {"kind": "prop"}


# ----------------------------------------------------------- crc combine
@settings(max_examples=120, deadline=None)
@given(head=payloads, tail=payloads)
def test_crc32_combine_matches_zlib_on_any_split(head, tail):
    assert crc32_combine(
        zlib.crc32(head), zlib.crc32(tail), len(tail)
    ) == zlib.crc32(head + tail)


# Chunk sizes on every side of the payload size: single bytes, a short
# tail, an exact multiple, one chunk larger than the whole payload.
chunk_sizes = st.one_of(st.just(1), st.integers(1, 64), st.integers(1, 8192))


@settings(max_examples=120, deadline=None)
@given(data=payloads, chunk=chunk_sizes)
def test_sender_folds_whole_payload_crc_from_chunk_crcs(data, chunk):
    sender = StreamSender(3, data, chunk, {})
    assert sender.open_info.total_crc32 == zlib.crc32(data)
    assert sender.chunk_crcs == [zlib.crc32(c) for c in sender.chunks]


@settings(max_examples=120, deadline=None)
@given(
    data=payloads,
    chunk=chunk_sizes,
    order=st.randoms(use_true_random=False),
)
def test_reassembler_folds_whole_payload_crc_in_any_feed_order(
    data, chunk, order
):
    """The receiver's folded total is checked against an OPEN preamble
    whose checksum zlib computed over the whole payload — not one the
    sender under test folded."""
    chunks = chunk_payload(data, chunk)
    info = OpenInfo(
        total_size=len(data), chunk_bytes=chunk, chunk_count=len(chunks),
        total_crc32=zlib.crc32(data),
    )
    raw_frames = [
        encode_frame(Frame(stream_id=9, seq=seq, payload=bytes(c)))
        for seq, c in enumerate(chunks)
    ]
    raw_frames += raw_frames[:3]  # duplicates
    order.shuffle(raw_frames)
    reassembler = StreamReassembler(
        Frame(stream_id=9, seq=0, payload=info.encode(), ftype=FrameType.OPEN)
    )
    for raw in raw_frames:
        reassembler.feed(decode_frame(raw))
    assert reassembler.complete
    assert reassembler.payload() == data


def _variant(data, held):
    """``held`` drawn for ``data``: none, other bytes, the same bytes in
    another object, or them with one byte changed (the registry key
    stays the same when that byte is in the middle)."""
    if held == "same":
        return bytes(bytearray(data))
    if isinstance(held, int):
        changed = bytearray(data or b"\0")
        changed[held % len(changed)] ^= 1 + held % 255
        return bytes(changed)
    return held


held_variants = st.one_of(
    st.none(), payloads, st.just("same"), st.integers(0, 1 << 20)
)


@settings(max_examples=120, deadline=None)
@given(data=payloads, chunk=chunk_sizes, held=held_variants)
def test_reassembly_returns_the_sent_bytes_whatever_is_held(data, chunk, held):
    """For any held body — none, any other bytes, the sent bytes in
    another object, or those bytes with one byte changed — reassembly
    returns exactly the bytes sent, and the held object itself only
    when it equals them."""
    held = _variant(data, held)
    sender = StreamSender(23, data, chunk, {})
    open_frame, *data_frames = sender.frames()
    reassembler = StreamReassembler(decode_frame(encode_frame(open_frame)))
    for frame in data_frames:
        reassembler.feed(decode_frame(encode_frame(frame)))
    got = reassembler.payload(held)
    assert got == data
    assert (got is held) == (held == data)


@settings(max_examples=200, deadline=None)
@given(data=payloads, held=held_variants)
def test_adopt_returns_the_bytes_it_was_given_whatever_is_held(data, held):
    """``adopt`` returns bytes equal to its input, and the held object
    only when the two are equal; a receiver's body wraps those bytes."""
    held = _variant(data, held)
    body = None if held is None else FileBody(held)
    if body is not None:
        hold(body)
    got = adopt(data)
    assert got == data
    assert (body is not None and got is body.data) == (held == data)
    received = FileBody.received(data)
    assert received.data is got and received is not body


@settings(max_examples=120, deadline=None)
@given(data=payloads, chunk=chunk_sizes)
def test_a_streams_edges_are_its_payloads_registry_key(data, chunk):
    """The key a reassembler reads off its first and last chunks is the
    key of the payload they join to."""
    sender = StreamSender(24, data, chunk, {})
    open_frame, *data_frames = sender.frames()
    reassembler = StreamReassembler(decode_frame(encode_frame(open_frame)))
    for frame in data_frames:
        reassembler.feed(decode_frame(encode_frame(frame)))
    edges = reassembler.edges(KEY_EDGE)
    assert (len(data), *edges) == held_key(data)


# ----------------------------------------------------------- consignment
@settings(max_examples=120, deadline=None)
@given(
    ajo=st.binary(min_size=1, max_size=512),
    files=st.dictionaries(relative_paths, payloads, max_size=5),
)
def test_consignment_inline_roundtrip(ajo, files):
    back = decode_consignment_envelope(encode_consignment(ajo, files))
    assert back.ajo_bytes == ajo
    assert back.files == files


@settings(max_examples=120, deadline=None)
@given(
    ajo=st.binary(min_size=1, max_size=512),
    inline=st.dictionaries(relative_paths, payloads, max_size=4),
    streamed=st.lists(
        st.tuples(relative_paths, payloads, st.integers(0, (1 << 64) - 1)),
        max_size=4,
        unique_by=lambda t: t[0],
    ),
)
def test_consignment_streamed_roundtrip(ajo, inline, streamed):
    manifest = {
        path: FileEntry.of(StreamSender(stream_id, content, 1024))
        for path, content, stream_id in streamed
    }
    manifest.update(inline)
    payload = encode_consignment(ajo, manifest)
    back = decode_consignment_envelope(payload)
    assert back.ajo_bytes == ajo
    assert back.files == manifest
    # Equal manifests encode to equal bytes, whatever their order.
    assert encode_consignment(ajo, dict(reversed(manifest.items()))) == payload
    for path, content, stream_id in streamed:
        if path not in inline:
            assert back.files[path] == FileEntry(
                len(content), zlib.crc32(content), stream_id
            )
    # Each item alone is a bulk reply's value.
    for item in manifest.values():
        assert decode_item(asn1.encode(item_value(item))) == item


@settings(max_examples=120, deadline=None)
@given(junk=st.binary(max_size=512))
def test_consignment_decode_never_crashes_on_junk(junk):
    try:
        decode_consignment_envelope(junk)
    except SerializationError:
        pass
