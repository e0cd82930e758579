"""The checks a body holds are the ones taken when the bytes arrived.

A CRC recomputed at send time blesses whatever the site's copy has
become; the one taken at receipt lets the next receiver catch a copy
that went bad at rest.  Likewise a blob stored under a key its bytes do
not hash to is caught the next time a backend loads it.
"""

import hashlib
import random

import pytest

from repro.api import GridSession
from repro.errors import ReproError, StorageError
from repro.grid import build_grid
from repro.observability import telemetry_for
from repro.protocol.datapath import DEFAULT_CHUNK_BYTES
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
    handle = session.submit(job)
    assert session.wait(handle).status == "successful"
    assert session.fetch_file(handle, "payload.dat") == content

    # One bit of the site's copy flips; the CRCs taken when the upload
    # was received stay what they were.
    run = grid.usites["FZJ"].njs.runs[handle.job_id]
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
