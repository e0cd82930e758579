"""A file is held once per process, however it arrived: the copies of it
a site makes, by identity.

A file of at most ``INLINE_FILE_MAX`` bytes travels inside the message
that carries it, and a restored job's file is read from the blob store
on every fetch.  Each receiver — the gateway taking a consignment, a
blob read — wraps the bytes of a body this process already holds when
they are equal, and the gateway's reply cache keeps the body it answered
with, not an encoded copy.  So one inline file consigned, restarted over
and fetched twice is one ``bytes`` object everywhere it is held.

Adoption is proven by a byte compare, not by the registry key (size and
edges): bytes that share a held body's key but differ inside it are kept
as they were sent, inline or streamed.  Each test runs on the backend
``REPRO_STORAGE`` names; on SQLite a blob read is a fresh copy that only
adoption makes the one held.
"""

import random

import pytest

from repro.api import GridSession
from repro.grid import build_grid
from repro.protocol import datapath
from repro.protocol.datapath import INLINE_FILE_MAX
from repro.vfs.body import FileBody, held, held_key, hold

SITE = "FZJ"


def _site():
    grid = build_grid({SITE: ["FZJ-T3E"]}, seed=49)
    user = grid.add_user("Holder", logins={SITE: "holder"})
    return grid, user, GridSession(grid, user, SITE)


def _consign(session, user, content, name="held"):
    """A job that imports ``content`` from the workstation; its handle."""
    user.workstation.fs.write(f"/home/holder/{name}.dat", content)
    job = session.new_job(name, "FZJ-T3E")
    imp = job.import_from_workstation(f"/home/holder/{name}.dat", "kept.dat")
    work = job.script_task("work", "#!/bin/sh\nwc kept.dat\n",
                           simulated_runtime_s=30.0)
    job.depends(imp, work, files=["kept.dat"])
    handle = session.submit(job)
    assert session.wait(handle).status == "successful"
    return handle


def test_an_inline_file_is_held_once_through_a_restart_and_two_fetches(
    monkeypatch,
):
    grid, user, session = _site()
    content = random.Random(49).randbytes(INLINE_FILE_MAX)
    handle = _consign(session, user, content)
    usite = grid.usites[SITE]
    njs, gateway = usite.njs, usite.gateway
    uspace = njs.fetch_uspace_file(handle.job_id, "kept.dat")

    usite.crash_site()
    usite.restart_site()
    reads = []
    fetch = njs.fetch_uspace_file

    def recorded(job_id, path):
        reads.append(fetch(job_id, path))
        return reads[-1]

    monkeypatch.setattr(njs, "fetch_uspace_file", recorded)
    session = GridSession(grid, user, SITE)
    for _ in range(2):  # two requests, two request ids
        assert session.fetch_file(handle, "kept.dat") == content
    cached = [entry.body for entry in gateway._reply_cache.values()
              if entry.body is not None]
    assert len(reads) == len(cached) == 2
    held_by = [user.workstation.fs.body("/home/holder/held.dat"), uspace,
               *reads, *cached]
    assert len({id(body.data) for body in held_by}) == 1
    # Each restored read is a body of its own, under the key it was read by.
    assert reads[0] is not reads[1] and reads[0].digest == uspace.digest


@pytest.mark.parametrize("size", [4096, 3 * INLINE_FILE_MAX + 5],
                         ids=["inline", "streamed"])
def test_bytes_that_only_share_a_held_key_are_kept_as_sent(monkeypatch, size):
    """A body of other bytes under the same size and edges is held; the
    job's file, consigned by a sender that holds nothing for adoption (as
    one in another process would), reaches the Uspace and comes back as
    sent."""
    grid, user, session = _site()
    content = random.Random(size).randbytes(size)
    decoy = bytearray(content)
    decoy[size // 2] ^= 0xFF
    decoy_body = FileBody(bytes(decoy))
    hold(decoy_body)
    assert held_key(decoy_body.data) == held_key(content)
    monkeypatch.setattr(datapath, "hold", lambda body: None)

    handle = _consign(session, user, content)
    kept = grid.usites[SITE].njs.fetch_uspace_file(handle.job_id, "kept.dat")
    assert kept.data == content and kept.data is not decoy_body.data
    assert session.fetch_file(handle, "kept.dat") == content
    assert held(held_key(content)) is decoy_body.data  # still held


def test_a_blob_read_keeps_the_bytes_stored_under_its_digest():
    grid, _, _ = _site()
    blobs = grid.storage.blobs
    content = random.Random(7).randbytes(INLINE_FILE_MAX)
    decoy = bytearray(content)
    decoy[100] ^= 1
    digest = blobs.put(bytes(decoy))
    honest = FileBody(content)
    hold(honest)
    read = blobs.body(digest)
    assert read.data == decoy and read.data is not honest.data
    assert read.digest == digest
