"""Unit tests for the binary frame codec and the data-plane layer."""

import hashlib
import random
import struct
import zlib

import pytest

from repro.errors import FrameError, SerializationError, UnsafePathError
from repro.net.stream import (
    FRAME_HEADER_BYTES,
    FRAME_VERSION,
    Frame,
    FrameType,
    OpenInfo,
    StreamReassembler,
    StreamSender,
    chunk_payload,
    decode_frame,
    encode_frame,
)
from repro.net.errors import ConnectionLost
from repro.net.sim_transport import Network
from repro.observability import MetricsRegistry
from repro.protocol.consignment import (
    FileEntry,
    decode_consignment,
    decode_consignment_envelope,
    encode_consignment,
    validate_manifest_paths,
)
from repro.protocol.datapath import (
    DataPlaneEndpoint,
    StreamIdAllocator,
    decode_bulk_reply,
    encode_inline_reply,
    encode_stream_reply,
    entry_for_sender,
)
from repro.simkernel import Simulator


# ---------------------------------------------------------------- frames
def test_frame_roundtrip_data():
    frame = Frame(stream_id=7, seq=3, payload=b"\x00\x01binary\xff")
    raw = encode_frame(frame)
    assert len(raw) == FRAME_HEADER_BYTES + len(frame.payload)
    back = decode_frame(raw)
    assert back == frame
    assert back.version == FRAME_VERSION


def test_frame_payload_is_raw_not_base64():
    payload = bytes(range(256))
    raw = encode_frame(Frame(stream_id=1, seq=0, payload=payload))
    assert payload in raw  # carried verbatim: no base64 inflation


def test_frame_rejects_truncation_and_corruption():
    raw = encode_frame(Frame(stream_id=1, seq=0, payload=b"hello"))
    with pytest.raises(FrameError):
        decode_frame(raw[: FRAME_HEADER_BYTES - 1])
    with pytest.raises(FrameError):
        decode_frame(raw[:-1])  # payload shorter than header claims
    corrupted = raw[:-1] + bytes([raw[-1] ^ 0xFF])
    with pytest.raises(FrameError):
        decode_frame(corrupted)  # crc mismatch
    with pytest.raises(FrameError):
        decode_frame(b"XX" + raw[2:])  # bad magic


def test_frame_rejects_unknown_version_and_type():
    raw = bytearray(encode_frame(Frame(stream_id=1, seq=0, payload=b"x")))
    bad_version = bytes(raw[:2]) + bytes([99]) + bytes(raw[3:])
    with pytest.raises(FrameError):
        decode_frame(bad_version)
    bad_type = bytes(raw[:3]) + bytes([77]) + bytes(raw[4:])
    with pytest.raises(FrameError):
        decode_frame(bad_type)


def test_frame_range_validation_on_encode():
    with pytest.raises(FrameError):
        encode_frame(Frame(stream_id=1 << 64, seq=0))
    with pytest.raises(FrameError):
        encode_frame(Frame(stream_id=1, seq=-1))
    with pytest.raises(FrameError):
        encode_frame(Frame(stream_id=1, seq=0, ftype=42))


def test_open_info_roundtrip():
    info = OpenInfo(
        total_size=1000, chunk_bytes=256, chunk_count=4,
        total_crc32=zlib.crc32(b"x"), context={"kind": "test", "path": "a"},
    )
    back = OpenInfo.decode(info.encode())
    assert back.total_size == 1000
    assert back.chunk_count == 4
    assert back.context == {"kind": "test", "path": "a"}


def test_chunk_payload_covers_everything():
    data = b"abcdefghij"
    chunks = chunk_payload(data, 3)
    assert b"".join(chunks) == data
    assert [len(c) for c in chunks] == [3, 3, 3, 1]
    assert chunk_payload(b"", 3) == []


# ----------------------------------------------------------- reassembly
def test_sender_reassembler_roundtrip_out_of_order():
    data = bytes(range(251)) * 37
    sender = StreamSender(99, data, 128, {"kind": "t"})
    frames = list(sender.frames())
    open_frame, data_frames = frames[0], frames[1:]
    reassembler = StreamReassembler(decode_frame(encode_frame(open_frame)))
    # Feed in reverse, with a duplicate thrown in.
    for frame in reversed(data_frames):
        reassembler.feed(decode_frame(encode_frame(frame)))
    reassembler.feed(decode_frame(encode_frame(data_frames[0])))  # dup ok
    assert reassembler.complete
    assert reassembler.payload() == data
    assert reassembler.context == {"kind": "t"}


def test_reassembler_next_expected_tracks_lowest_gap():
    sender = StreamSender(5, b"a" * 10, 2, {})
    frames = list(sender.frames())
    reassembler = StreamReassembler(frames[0])
    assert reassembler.next_expected == 0
    reassembler.feed(frames[1])       # seq 0
    reassembler.feed(frames[3])       # seq 2
    assert reassembler.next_expected == 1
    assert not reassembler.complete
    with pytest.raises(FrameError):
        reassembler.payload()


def test_reassembler_rejects_foreign_and_out_of_range_frames():
    sender = StreamSender(5, b"a" * 10, 2, {})
    frames = list(sender.frames())
    reassembler = StreamReassembler(frames[0])
    with pytest.raises(FrameError):
        reassembler.feed(Frame(stream_id=6, seq=0, payload=b"aa"))
    with pytest.raises(FrameError):
        reassembler.feed(Frame(stream_id=5, seq=99, payload=b"aa"))


def test_wire_bytes_are_what_they_were_before_the_single_pass_sender():
    """Golden: sha256 of the concatenated encoded frames, recorded from
    the commit before chunk views and the folded whole-payload CRC."""

    def wire_hash(sender):
        wire = b"".join(encode_frame(frame) for frame in sender.frames())
        return hashlib.sha256(wire).hexdigest()

    data = random.Random(14).randbytes(700_001)  # ten full chunks + a tail
    sender = StreamSender(
        0x1234ABCD5678, data, 64 * 1024, {"kind": "golden", "path": "a/b.dat"}
    )
    assert sender.frame_count == 12
    assert wire_hash(sender) == (
        "86cad0c99188b1e65c4622148929e16a7a6d07d406a716c7928710fd90a09696"
    )
    assert wire_hash(StreamSender(7, b"", 1024, {})) == (
        "64355454a976f5ee93a1d7852a700fd7b10daec1a10f7113f8fe846003a3022b"
    )


# ------------------------------------------------------- path validation
def test_validate_rejects_traversal_duplicates_and_control_chars():
    with pytest.raises(UnsafePathError):
        validate_manifest_paths(["a/../b"])
    with pytest.raises(UnsafePathError):
        validate_manifest_paths([".."])
    with pytest.raises(UnsafePathError):
        validate_manifest_paths(["a", "a"])
    with pytest.raises(UnsafePathError):
        validate_manifest_paths([""])
    with pytest.raises(UnsafePathError):
        validate_manifest_paths(["evil\x00name"])


def test_validate_absolute_policy_depends_on_destination():
    # Workstation-namespace manifests legitimately use absolute paths.
    validate_manifest_paths(["/home/alice/solver.f90"])
    # Uspace-destined manifests must be relative.
    with pytest.raises(UnsafePathError):
        validate_manifest_paths(
            ["/etc/passwd"], uspace_destination=True
        )
    validate_manifest_paths(["result.dat"], uspace_destination=True)


def test_unsafe_path_error_code_is_stable():
    assert UnsafePathError.code == "ajo.unsafe_path"
    assert issubclass(UnsafePathError, SerializationError)
    with pytest.raises(SerializationError):
        encode_consignment(b"ajo", {"a/../b": b"x"})


# ----------------------------------------------------------- consignment
def test_consignment_streamed_entries_roundtrip():
    entry = FileEntry("big.dat", 1000, zlib.crc32(b"\x01" * 1000), 42)
    payload = encode_consignment(
        b"AJO", {"/home/u/small.txt": b"hi"}, streamed=[entry]
    )
    consignment = decode_consignment_envelope(payload)
    assert consignment.ajo_bytes == b"AJO"
    assert consignment.files == {"/home/u/small.txt": b"hi"}
    assert consignment.streamed == (entry,)
    # The plain decoder refuses envelopes that need a data plane.
    with pytest.raises(SerializationError):
        decode_consignment(payload)


def test_consignment_rejects_trailing_garbage():
    payload = encode_consignment(b"AJO", {"a": b"x"})
    with pytest.raises(SerializationError):
        decode_consignment_envelope(payload + b"junk")


# ------------------------------------------------------------- data plane
def test_stream_id_allocator_is_deterministic_and_origin_scoped():
    a1 = StreamIdAllocator("njs:FZJ")
    a2 = StreamIdAllocator("njs:FZJ")
    b = StreamIdAllocator("njs:ZIB")
    assert a1.next() == a2.next()
    assert a1.next() != b.next()
    assert a1.next() >> 32 == zlib.crc32(b"njs:FZJ")


def test_endpoint_reassembles_and_parks_payload():
    sim = Simulator()
    endpoint = DataPlaneEndpoint(sim)
    data = b"z" * 5000
    sender = StreamSender(11, data, 1024, {"kind": "t"})
    for frame in sender.frames():
        assert endpoint.feed(encode_frame(frame))
    context, payload, crc32 = endpoint.take(11)
    assert payload == data
    assert crc32 == zlib.crc32(data)
    assert context == {"kind": "t"}
    assert endpoint.take(11) is None  # claimed exactly once


def test_endpoint_on_complete_consumes():
    sim = Simulator()
    seen = []
    endpoint = DataPlaneEndpoint(
        sim, on_complete=lambda ctx, data: seen.append((ctx, data)) or True
    )
    sender = StreamSender(3, b"abc", 2, {"kind": "k"})
    for frame in sender.frames():
        endpoint.feed(encode_frame(frame))
    assert seen == [({"kind": "k"}, b"abc")]
    assert endpoint.take(3) is None


def test_a_waited_stream_leaves_no_timer_behind_it():
    sim = Simulator()
    endpoint = DataPlaneEndpoint(sim)
    frames = [encode_frame(f) for f in StreamSender(5, b"q" * 3000, 1024, {}).frames()]
    waiter = sim.process(endpoint.wait(5, timeout_s=600.0))
    for at, raw in enumerate(frames, start=1):
        sim.schedule_callback(float(at), endpoint.feed, raw)
    assert sim.run(until=waiter).data == b"q" * 3000
    # The limit went with the wait: nothing is due, so nothing holds on to
    # the file bytes until it is (a 600 s Timeout used to, and then ran).
    assert sim.profile()["heap_size"] == 0
    events = sim.processed_events
    sim.run(until=1000.0)
    assert sim.processed_events == events


def test_a_stream_that_never_completes_is_given_up_at_the_timeout():
    sim = Simulator()
    endpoint = DataPlaneEndpoint(sim)
    frames = [encode_frame(f) for f in StreamSender(5, b"q" * 3000, 1024, {}).frames()]
    waiter = sim.process(endpoint.wait(5, timeout_s=600.0))
    endpoint.feed(frames[0])
    with pytest.raises(ConnectionLost, match="did not complete within 600"):
        sim.run(until=waiter)
    assert sim.now == 600.0
    # Completing late parks the stream for a retry to take; the waiter
    # that gave up is not resolved a second time.
    for raw in frames[1:]:
        endpoint.feed(raw)
    assert endpoint.take(5).data == b"q" * 3000


def test_endpoint_ignores_non_frame_bytes():
    sim = Simulator()
    endpoint = DataPlaneEndpoint(sim)
    assert not endpoint.feed(b"not a frame at all")


def test_endpoint_rejects_flipped_byte_and_retransmission_repairs_it():
    metrics = MetricsRegistry()
    endpoint = DataPlaneEndpoint(Simulator(), metrics=metrics)
    data = bytes(range(256)) * 16
    raws = [encode_frame(f) for f in StreamSender(4, data, 1024, {}).frames()]
    damaged = bytearray(raws[2])
    damaged[FRAME_HEADER_BYTES + 100] ^= 0x01
    with pytest.raises(FrameError):
        decode_frame(bytes(damaged))
    for raw in raws[:2] + [bytes(damaged)] + raws[3:]:
        endpoint.feed(raw)
    assert metrics.counter_value("stream.bad_frames") == 1
    assert endpoint.pending(4)  # the damaged chunk is simply missing
    endpoint.feed(raws[2])
    assert endpoint.take(4).data == data


def test_endpoint_drops_stream_with_valid_chunk_of_another_payload():
    """Each frame passes its own CRC, so only the whole-payload check —
    folded from those CRCs — can see a chunk that belongs elsewhere."""
    metrics = MetricsRegistry()
    endpoint = DataPlaneEndpoint(Simulator(), metrics=metrics)
    data = bytes(range(256)) * 16
    other = bytes(reversed(data))
    raws = [encode_frame(f) for f in StreamSender(4, data, 1024, {}).frames()]
    foreign = encode_frame(StreamSender(4, other, 1024, {}).data_frame(1))
    decode_frame(foreign)  # well-formed on its own
    for raw in raws[:2] + [foreign] + raws[3:]:
        endpoint.feed(raw)
    assert metrics.counter_value("stream.bad_frames") == 1
    assert metrics.counter_value("stream.completed") == 0
    assert not endpoint.pending(4)
    assert endpoint.take(4) is None


# ------------------------------------------------------------ bulk replies
def test_bulk_reply_inline_roundtrip():
    kind, content = decode_bulk_reply(encode_inline_reply(b"data"))
    assert (kind, content) == ("inline", b"data")


def test_bulk_reply_streamed_roundtrip():
    entry = entry_for_sender("", StreamSender(77, b"payload", 1024))
    kind, ref = decode_bulk_reply(encode_stream_reply(entry))
    assert kind == "stream"
    assert (ref.stream_id, ref.size, ref.crc32) == (
        77, 7, zlib.crc32(b"payload")
    )


def test_bulk_reply_rejects_garbage():
    with pytest.raises(FrameError):
        decode_bulk_reply(b"")
    with pytest.raises(FrameError):
        decode_bulk_reply(struct.pack("!B", 9) + b"x")
    with pytest.raises(FrameError):
        decode_bulk_reply(b"\x01short")


# ------------------------------------------------- per-network message ids
def test_message_ids_are_per_network():
    def run_one():
        sim = Simulator()
        net = Network(sim, seed=7)
        net.add_host("a")
        net.add_host("b")
        net.link("a", "b", latency_s=0.01, bandwidth_Bps=1e6)
        ids = []

        def proc():
            for _ in range(3):
                ev = net.send("a", "b", "ping", 100)
                ids.append(ev)
                yield ev

        sim.process(proc())
        sim.run()
        return ids

    # Two independently built networks assign identical message ids:
    # the counter is per-Network, not a module global.
    first = [getattr(e, "name", "") for e in run_one()]
    second = [getattr(e, "name", "") for e in run_one()]
    assert first == second
    assert first[0] != first[1]
