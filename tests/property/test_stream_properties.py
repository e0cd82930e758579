"""Property-based tests: frame codec totality, consignment v2 roundtrips."""

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
    decode_consignment,
    decode_consignment_envelope,
    encode_consignment,
)
from repro.protocol.datapath import entry_for_sender

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
    raw = bytearray(encode_frame(Frame(stream_id=1, seq=0, payload=payload)))
    raw[flip % len(raw)] ^= 1 + (flip % 255)
    try:
        decode_frame(bytes(raw))
    except FrameError:
        pass  # rejection is the expected outcome for most flips


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


# ----------------------------------------------------------- consignment
@settings(max_examples=120, deadline=None)
@given(
    ajo=st.binary(min_size=1, max_size=512),
    files=st.dictionaries(relative_paths, payloads, max_size=5),
)
def test_consignment_inline_roundtrip(ajo, files):
    ajo_back, files_back = decode_consignment(encode_consignment(ajo, files))
    assert ajo_back == ajo
    assert files_back == files


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
    names = set(inline)
    streamed = [t for t in streamed if t[0] not in names]
    entries = [
        entry_for_sender(path, StreamSender(stream_id, content, 1024))
        for path, content, stream_id in streamed
    ]
    payload = encode_consignment(ajo, inline, streamed=entries)
    back = decode_consignment_envelope(payload)
    assert back.ajo_bytes == ajo
    assert back.files == inline
    # The codec canonicalizes entry order by path.
    assert list(back.streamed) == sorted(entries, key=lambda e: e.path)
    for (_, content, _), entry in zip(streamed, entries, strict=True):
        assert entry.size == len(content)
        assert entry.crc32 == zlib.crc32(content)
    if entries:
        try:
            decode_consignment(payload)
        except SerializationError:
            pass
        else:
            raise AssertionError("plain decoder accepted a streamed envelope")


@settings(max_examples=120, deadline=None)
@given(junk=st.binary(max_size=512))
def test_consignment_decode_never_crashes_on_junk(junk):
    try:
        decode_consignment_envelope(junk)
    except SerializationError:
        pass
