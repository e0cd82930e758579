"""FileBody: the memo never disagrees with the bytes it rides with.

Whatever way a body came by its digest and chunk CRCs — computed on
first request, seeded by the data-plane endpoint from the frames it
verified, seeded by the blob store from the key it read under — they
are what ``hashlib`` and ``zlib`` say about the raw bytes, and a stream
framed from them is the stream a fresh sender would frame.  The seeds
that cannot be honest are refused.
"""

import hashlib
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FrameError, VFSError
from repro.net.stream import (
    Frame,
    FrameType,
    OpenInfo,
    StreamReassembler,
    StreamSender,
    chunk_payload,
    encode_frame,
)
from repro.protocol.datapath import DataPlaneEndpoint
from repro.simkernel import Simulator
from repro.storage.memory import MemoryBackend
from repro.vfs import FileBody

# The empty body, a size that is an exact multiple of the chunk, a
# one-byte tail, and anything else.
payloads = st.one_of(
    st.just(b""),
    st.integers(1, 64).flatmap(lambda n: st.binary(min_size=4 * n, max_size=4 * n)),
    st.integers(1, 64).flatmap(
        lambda n: st.binary(min_size=4 * n + 1, max_size=4 * n + 1)
    ),
    st.binary(max_size=4096),
)
chunk_sizes = st.one_of(st.sampled_from([1, 4, 64]), st.integers(1, 8192))


def _received(data: bytes, chunk: int) -> FileBody:
    """``data`` as the body a site holds after receiving it as a stream."""
    endpoint = DataPlaneEndpoint(Simulator())
    for frame in StreamSender(5, data, chunk, {}).frames():
        assert endpoint.feed(encode_frame(frame))
    done = endpoint.take(5)
    assert done is not None
    return done.body


@settings(max_examples=150, deadline=None)
@given(data=payloads, chunk=chunk_sizes, other=chunk_sizes)
def test_seeded_unseeded_and_raw_bytes_agree(data, chunk, other):
    raw_crcs = tuple(zlib.crc32(c) for c in chunk_payload(data, chunk))
    fresh, seeded = FileBody(data), _received(data, chunk)
    assert seeded.data == data and seeded == fresh == data
    assert seeded.chunk_crcs(chunk) == fresh.chunk_crcs(chunk) == raw_crcs
    assert seeded.digest == fresh.digest == hashlib.sha256(data).hexdigest()
    # Asked for a split it does not hold, a body answers for that split —
    # and again for the first one afterwards.
    assert seeded.chunk_crcs(other) == tuple(
        zlib.crc32(c) for c in chunk_payload(data, other)
    )
    assert seeded.chunk_crcs(chunk) == raw_crcs
    # A blob read back knows the key it was read under.
    blobs = MemoryBackend().blobs
    assert blobs.body(blobs.put(seeded)).digest == fresh.digest


@settings(max_examples=150, deadline=None)
@given(data=payloads, chunk=chunk_sizes)
def test_resending_a_received_body_frames_the_same_stream(data, chunk):
    body = _received(data, chunk)
    resent = StreamSender(
        9, body.data, chunk, {"kind": "k"}, chunk_crcs=body.chunk_crcs(chunk)
    )
    fresh = StreamSender(9, data, chunk, {"kind": "k"})
    assert [encode_frame(f) for f in resent.frames()] == [
        encode_frame(f) for f in fresh.frames()
    ]


def test_held_checks_are_not_recomputed(monkeypatch):
    body = _received(b"x" * 1000, 256)
    stored = MemoryBackend().blobs
    stored = stored.body(stored.put(b"y" * 1000))

    def refuse(*args, **kwargs):
        raise AssertionError("the bytes were read again")

    monkeypatch.setattr(zlib, "crc32", refuse)
    monkeypatch.setattr(hashlib, "sha256", refuse)
    assert len(body.chunk_crcs(256)) == 4
    assert len(stored.digest) == 64


def test_seeds_that_cannot_cover_the_bytes_are_refused():
    with pytest.raises(VFSError):
        FileBody(b"x" * 10, chunk_bytes=4, chunk_crcs=[1, 2])  # needs 3
    with pytest.raises(VFSError):
        FileBody(b"", chunk_bytes=4, chunk_crcs=[0])
    with pytest.raises(VFSError):
        FileBody(b"x").chunk_crcs(0)
    with pytest.raises(ValueError):
        StreamSender(1, b"x" * 10, 4, chunk_crcs=[1, 2])


def _open_frame(total: int, chunk: int, count: int, crc: int) -> Frame:
    info = OpenInfo(
        total_size=total, chunk_bytes=chunk, chunk_count=count, total_crc32=crc
    )
    return Frame(stream_id=9, seq=0, payload=info.encode(), ftype=FrameType.OPEN)


@pytest.mark.parametrize("total, chunk, count", [
    (10, 4, 2), (10, 4, 4), (10, 0, 3), (0, 4, 1), (0, 0, 1), (10, 0, 0),
    (0, 0, 0),
])
def test_a_preamble_whose_split_does_not_add_up_is_refused(total, chunk, count):
    with pytest.raises(FrameError):
        StreamReassembler(_open_frame(total, chunk, count, 0))


def test_chunks_cut_elsewhere_than_the_preamble_says_are_refused():
    """Irregular pieces can still fold to the right whole-payload CRC, but
    their CRCs are not the ones a 4-byte split would carry: a body seeded
    with them would fail every receiver it was later sent to."""
    data = b"0123456789"
    reassembler = StreamReassembler(_open_frame(10, 4, 3, zlib.crc32(data)))
    reassembler.feed(Frame(stream_id=9, seq=0, payload=data[:4]))
    with pytest.raises(FrameError):
        reassembler.feed(Frame(stream_id=9, seq=1, payload=data[4:9]))
    with pytest.raises(FrameError):
        reassembler.feed(Frame(stream_id=9, seq=2, payload=data[8:] + b"!"))
    reassembler.feed(Frame(stream_id=9, seq=1, payload=data[4:8]))
    assert reassembler.feed(Frame(stream_id=9, seq=2, payload=data[8:]))
    assert reassembler.payload() == data
    assert reassembler.chunk_crcs == list(FileBody(data).chunk_crcs(4))
