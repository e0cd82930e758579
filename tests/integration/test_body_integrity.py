"""The checks a body holds are the ones taken when the bytes arrived.

A CRC recomputed at send time blesses whatever the site's copy has
become; the one taken at receipt lets the next receiver catch a copy
that went bad at rest.  Likewise a blob stored under a key its bytes do
not hash to is caught the next time a backend loads it.
"""

import hashlib
import random
import zlib

import pytest

from repro.api import GridSession
from repro.errors import ReproError, StorageError
from repro.grid import build_grid
from repro.net.stream import StreamSender, encode_frame
from repro.observability import telemetry_for
from repro.protocol import datapath
from repro.protocol.datapath import DEFAULT_CHUNK_BYTES
from repro.simkernel import Simulator
from repro.storage.memory import MemoryBackend
from repro.vfs import FileBody


def test_a_uspace_copy_that_went_bad_at_rest_is_never_served():
    grid = build_grid({"FZJ": ["FZJ-T3E"]}, seed=14)
    user = grid.add_user("Mover", logins={"FZJ": "mover"})
    content = random.Random(14).randbytes(3 * DEFAULT_CHUNK_BYTES + 1)
    user.workstation.fs.write("/home/mover/payload.dat", content)
    session = GridSession(grid, user, "FZJ")
    job = session.new_job("at-rest", "FZJ-T3E")
    job.import_from_workstation("/home/mover/payload.dat", "payload.dat")
    # Keeps the job running, so its files are served from its Uspace.
    job.script_task("busy", "#!/bin/sh\nbusy\n", simulated_runtime_s=3600.0)
    handle = session.submit(job)
    session.advance(600.0)
    run = grid.usites["FZJ"].njs.runs[handle.job_id]
    assert not run.status().is_terminal
    assert session.fetch_file(handle, "payload.dat") == content

    # One bit of the site's copy flips; the CRCs taken when the upload
    # was received stay what they were.
    uspace = next(iter(run.uspaces.values()))
    held = uspace.body("payload.dat").chunk_crcs(DEFAULT_CHUNK_BYTES)
    rotten = bytearray(content)
    rotten[DEFAULT_CHUNK_BYTES + 5] ^= 0x40
    uspace.write("payload.dat", FileBody(
        rotten, chunk_bytes=DEFAULT_CHUNK_BYTES, chunk_crcs=held,
    ))

    metrics = telemetry_for(grid.sim).metrics
    completed = metrics.counter_value("stream.completed")
    with pytest.raises(ReproError) as refused:
        session.fetch_file(handle, "payload.dat")
    assert refused.value.code.startswith("net.")
    # The client's own frame check refused the chunk, every time it came.
    assert metrics.counter_value("stream.bad_frames") >= 1
    assert metrics.counter_value("stream.completed") == completed


def test_a_blob_stored_under_a_key_it_does_not_hash_to_fails_the_next_load():
    honest = hashlib.sha256(b"honest").hexdigest()
    src = MemoryBackend()
    assert src.blobs.put(FileBody(b"evil", digest=honest)) == honest
    with pytest.raises(StorageError):
        MemoryBackend().load(src.dump())


def _forge(content: bytes, at: int, fix: int) -> bytes:
    """``content`` with byte ``at`` changed and the four bytes from
    ``fix`` chosen so that the CRC-32 is unchanged.

    CRC-32 is affine over GF(2): between messages of one length,
    ``crc(m ^ d) == crc(m) ^ crc(d) ^ crc(0)``, so each bit of the four
    free bytes flips a fixed set of CRC bits, and 32 of them reach any
    CRC.  Gaussian elimination picks the bits to flip.
    """
    size = len(content)

    def flip(offset: int, mask: bytes) -> int:
        """The CRC bits that xoring ``mask`` in at ``offset`` flips."""
        delta = bytearray(size)
        delta[offset:offset + len(mask)] = mask
        return zlib.crc32(bytes(delta)) ^ zlib.crc32(bytes(size))

    # Reduced rows: (leading CRC bit, CRC effect, which free bits make it).
    rows: list[tuple[int, int, int]] = []
    for bit in range(32):
        effect, made = flip(fix, (1 << bit).to_bytes(4, "little")), 1 << bit
        for lead, row_effect, row_made in rows:
            if effect & lead:
                effect, made = effect ^ row_effect, made ^ row_made
        rows.append((effect & -effect, effect, made))
    want, made = flip(at, b"\x01"), 0
    for lead, row_effect, row_made in rows:
        if want & lead:
            want, made = want ^ row_effect, made ^ row_made
    assert want == 0
    forged = bytearray(content)
    forged[at] ^= 1
    for i, byte in enumerate(made.to_bytes(4, "little")):
        forged[fix + i] ^= byte
    return bytes(forged)


def test_a_stream_that_only_collides_with_a_held_body_is_not_adopted():
    """A receiver adopts the bytes of a body this process already holds
    only after comparing them with every chunk it verified: a payload of
    the same size and whole-payload CRC-32, but other bytes, is joined
    from its own chunks.  Without the compare, forging four bytes would
    hand the receiver another user's content."""
    content = random.Random(16).randbytes(3 * DEFAULT_CHUNK_BYTES + 11)
    held = FileBody(content)
    datapath.body_sender(1, held, {})  # framed here: held for adoption
    # Only the middle chunk differs, so the first and last chunks match.
    forged = _forge(content, DEFAULT_CHUNK_BYTES + 5, DEFAULT_CHUNK_BYTES + 100)
    assert forged != content and len(forged) == len(content)
    assert zlib.crc32(forged) == zlib.crc32(content)

    endpoint = datapath.DataPlaneEndpoint(Simulator())
    # Framed as a sender in another process would: nothing held.
    for stream_id, payload in ((2, content), (3, forged)):
        for frame in StreamSender(
            stream_id, payload, DEFAULT_CHUNK_BYTES
        ).frames():
            assert endpoint.feed(encode_frame(frame))
    honest, spoof = endpoint.take(2), endpoint.take(3)
    assert spoof.crc32 == honest.crc32 == zlib.crc32(content)
    assert spoof.data == forged and spoof.data is not held.data
    assert honest.data is held.data  # the same bytes: adopted
    assert honest.body is not held  # in a body of the receiver's own
