"""Unit tests for the binary frame codec and the data-plane layer."""

import hashlib
import random
import zlib

import pytest

from repro import asn1
from repro.bytereader import MAX_DEPTH
from repro.errors import FrameError, SerializationError, UnsafePathError
from repro.net.stream import (
    FRAME_HEADER_BYTES,
    FRAME_VERSION,
    Frame,
    FrameType,
    OpenInfo,
    StreamReassembler,
    StreamSender,
    WireFrame,
    chunk_payload,
    decode_frame,
    encode_frame,
)
from repro.net import stream
from repro.net.errors import ConnectionLost
from repro.net.sim_transport import Network
from repro.observability import MetricsRegistry
from repro.protocol.consignment import (
    decode_consignment_envelope,
    encode_consignment,
    validate_manifest_paths,
)
from repro.protocol.datapath import (
    DataPlaneEndpoint,
    FileEntry,
    StreamIdAllocator,
    body_sender,
    decode_item,
    item_value,
)
from repro.simkernel import Simulator
from repro.vfs import FileBody


# ---------------------------------------------------------------- frames
def test_frame_roundtrip_data():
    frame = Frame(stream_id=7, seq=3, payload=b"\x00\x01binary\xff")
    raw = bytes(encode_frame(frame))
    assert len(raw) == FRAME_HEADER_BYTES + len(frame.payload)
    assert raw[2] == FRAME_VERSION
    assert decode_frame(raw) == frame


def test_frame_payload_is_raw_not_base64():
    payload = bytes(range(256))
    raw = bytes(encode_frame(Frame(stream_id=1, seq=0, payload=payload)))
    assert payload in raw  # carried verbatim: no base64 inflation


def test_frame_rejects_truncation_and_corruption():
    raw = bytes(encode_frame(Frame(stream_id=1, seq=0, payload=b"hello")))
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
    raw = bytearray(bytes(encode_frame(Frame(stream_id=1, seq=0, payload=b"x"))))
    bad_version = bytes(raw[:2]) + bytes([99]) + bytes(raw[3:])
    with pytest.raises(FrameError):
        decode_frame(bad_version)
    assert FrameType.ALL == (FrameType.OPEN, FrameType.DATA)
    for ftype in (3, 77):  # 3 was an ACK, which no sender writes
        bad_type = bytes(raw[:3]) + bytes([ftype]) + bytes(raw[4:])
        with pytest.raises(FrameError, match="unknown frame type"):
            decode_frame(bad_type)


def test_frame_range_validation_on_encode():
    with pytest.raises(FrameError):
        encode_frame(Frame(stream_id=1 << 64, seq=0))
    with pytest.raises(FrameError):
        encode_frame(Frame(stream_id=1, seq=-1))
    with pytest.raises(FrameError):
        encode_frame(Frame(stream_id=1, seq=0, ftype=42))


def test_a_frame_crosses_as_its_header_beside_the_senders_payload():
    """``encode_frame`` copies no payload that nothing can change (bytes,
    a view of bytes): the wire frame carries that object, measures what
    the joined frame measures, and decodes to that very object."""
    data = bytes(range(256)) * 4
    for payload in (data, memoryview(data)[100:700]):
        frame = Frame(stream_id=3, seq=1, payload=payload)
        wire = encode_frame(frame)
        assert wire.payload is payload
        assert len(wire) == len(bytes(wire)) == FRAME_HEADER_BYTES + len(payload)
        assert bytes(wire) == wire.header + bytes(payload)
        assert decode_frame(wire).payload is payload
        assert decode_frame(bytes(wire)) == decode_frame(wire) == frame


def test_a_payload_over_a_mutable_buffer_decodes_as_it_was_at_encode():
    """A view of a ``bytearray`` — read-only or not — is snapshotted by
    ``encode_frame``: writing to the buffer afterwards changes nothing on
    the wire, so the frame still decodes (its CRC holds) to the old bytes."""
    for view in (lambda b: b, memoryview, lambda b: memoryview(b).toreadonly()):
        buffer = bytearray(b"chunk of a file")
        frame = Frame(stream_id=4, seq=0, payload=view(buffer))
        wire = encode_frame(frame)
        buffer[:5] = b"XXXXX"
        assert bytes(decode_frame(wire).payload) == b"chunk of a file"
    contiguous = bytearray(bytes(encode_frame(Frame(stream_id=4, seq=0, payload=b"abc"))))
    decoded = decode_frame(contiguous)
    contiguous[-1:] = b"z"
    assert bytes(decoded.payload) == b"abc"


def test_a_wire_frame_whose_payload_is_not_its_headers_length_is_refused():
    wire = encode_frame(Frame(stream_id=1, seq=0, payload=b"hello"))
    for payload in (b"hell", b"hello!", memoryview(b"hello")[1:]):
        with pytest.raises(FrameError, match="its header says 5"):
            decode_frame(WireFrame(wire.header, payload))
    with pytest.raises(FrameError):
        decode_frame(WireFrame(wire.header[:-1], wire.payload))
    with pytest.raises(FrameError):
        decode_frame(WireFrame(wire.header + b"\x00", wire.payload))


def test_open_info_roundtrip():
    info = OpenInfo(
        total_size=1000, chunk_bytes=256, chunk_count=4,
        total_crc32=zlib.crc32(b"x"), context={"kind": "test", "path": "a"},
    )
    back = OpenInfo.decode(info.encode())
    assert back.total_size == 1000
    assert back.chunk_count == 4
    assert back.context == {"kind": "test", "path": "a"}


def test_open_info_refuses_a_context_nested_past_the_json_parser():
    """The context is one repro.asn1 value: nested past the reader's
    bound it is a FrameError, and anything but a map is one too."""
    fixed = OpenInfo(0, 1, 0, 0).encode()[:20]  # total, chunk, count, crc
    context: object = {}
    for _ in range(MAX_DEPTH):
        context = {"k": context}
    with pytest.raises(FrameError, match="nested deeper than"):
        OpenInfo.decode(fixed + asn1.encode(context))
    with pytest.raises(FrameError, match="must be a map"):
        OpenInfo.decode(fixed + b"\x05\x00")


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
    the commit before chunk views and the folded whole-payload CRC, and
    again when the OPEN context moved from JSON to repro.asn1 (the DATA
    frames' bytes did not move)."""

    def wire_hash(sender):
        wire = b"".join(bytes(encode_frame(frame)) for frame in sender.frames())
        return hashlib.sha256(wire).hexdigest()

    data = random.Random(14).randbytes(700_001)  # ten full chunks + a tail
    sender = StreamSender(
        0x1234ABCD5678, data, 64 * 1024, {"kind": "golden", "path": "a/b.dat"}
    )
    assert sender.frame_count == 12
    assert wire_hash(sender) == (
        "d91d543ac9af55c5b10ae82f411bbe77f26f53181c7a3e7bdf9ea2b3f29972cb"
    )
    assert wire_hash(StreamSender(7, b"", 1024, {})) == (
        "37c2598bd571754a005c43effd9390f537f8276fffbd03adc04da387477c8ee5"
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
    entry = FileEntry(1000, zlib.crc32(b"\x01" * 1000), 42)
    files = {"/home/u/small.txt": b"hi", "big.dat": entry}
    payload = encode_consignment(b"AJO", files)
    assert payload == asn1.encode(
        [b"AJO", {"/home/u/small.txt": b"hi", "big.dat": [1000, entry.crc32, 42]}]
    )
    consignment = decode_consignment_envelope(payload)
    assert consignment.ajo_bytes == b"AJO"
    assert consignment.files == files


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


def _counting_compares(monkeypatch):
    """Count the byte compares a reassembly makes against a held body."""
    compares = []
    equal_at = stream._equal_at

    def counted(held, chunk, offset):
        compares.append(offset)
        return equal_at(held, chunk, offset)

    monkeypatch.setattr(stream, "_equal_at", counted)
    return compares


def test_the_held_bodys_own_views_are_adopted_without_a_compare(monkeypatch):
    """Frames of a body framed in this process are its own chunk views:
    the receiver returns the body's bytes and compares none of them.  The
    same frames joined (as a socket delivers them) are each compared, and
    adopted all the same."""
    compares = _counting_compares(monkeypatch)
    body = FileBody(random.Random(3).randbytes(4 * 1024 - 9))
    sender = body_sender(21, body, {}, 1024)
    for wired in (False, True):
        endpoint = DataPlaneEndpoint(Simulator())
        for frame in sender.frames():
            raw = encode_frame(frame)
            assert endpoint.feed(bytes(raw) if wired else raw)
        assert endpoint.take(21).data is body.data
        assert compares == ([0, 1024, 2048, 3072] if wired else [])


def test_own_views_sent_in_another_order_are_not_adopted():
    """A stream framed from the held body's own views, but with two middle
    chunks swapped, keeps the held key (size and both edges) and carries
    an OPEN frame whose CRC is that of the swapped payload: every check on
    the wire passes.  Each chunk *is* one of the body's views, only not
    the one at its seq, so the receiver compares it, finds it differs, and
    joins the swapped bytes instead of returning the body's."""
    cut = 1024
    body = FileBody(random.Random(4).randbytes(4 * cut))
    body_sender(22, body, {}, cut)  # held, its views cut at this split
    views, crcs = body.chunks(cut), body.chunk_crcs(cut)
    order = [0, 2, 1, 3]
    swapped = b"".join(views[i] for i in order)
    assert swapped != body.data
    endpoint = DataPlaneEndpoint(Simulator())
    endpoint.feed(encode_frame(StreamSender(22, swapped, cut, {}).open_frame()))
    for seq, i in enumerate(order):
        endpoint.feed(encode_frame(
            Frame(stream_id=22, seq=seq, payload=views[i], crc32=crcs[i])
        ))
    done = endpoint.take(22)
    assert done.data == swapped
    assert done.data is not body.data


def test_endpoint_ignores_non_frame_bytes():
    sim = Simulator()
    endpoint = DataPlaneEndpoint(sim)
    assert not endpoint.feed(b"not a frame at all")


def test_endpoint_rejects_flipped_byte_and_retransmission_repairs_it():
    metrics = MetricsRegistry()
    endpoint = DataPlaneEndpoint(Simulator(), metrics=metrics)
    data = bytes(range(256)) * 16
    raws = [encode_frame(f) for f in StreamSender(4, data, 1024, {}).frames()]
    damaged = bytearray(bytes(raws[2]))
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
    assert decode_item(asn1.encode(item_value(b"data"))) == b"data"


def test_bulk_reply_streamed_roundtrip():
    entry = FileEntry.of(StreamSender(77, b"payload", 1024))
    assert entry == FileEntry(7, zlib.crc32(b"payload"), 77)
    assert decode_item(asn1.encode(item_value(entry))) == entry


def test_bulk_reply_rejects_garbage():
    for garbage in (
        b"",
        asn1.encode(b"data") + b"x",  # trailing bytes
        asn1.encode(b"data")[:-1],  # truncated
        asn1.encode("text"),
        asn1.encode([7, 1]),
        asn1.encode([7, -1, 77]),
        asn1.encode([7, True, 77]),
    ):
        with pytest.raises(FrameError):
            decode_item(garbage)


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
