"""A deterministic cost proxy for what a job persists: rows and blobs.

Every byte string an NJS persists is a blob.  A finished one-site
script job is two table rows — its consign row and its outcome row —
that name by digest the consigned AJO, the encoded outcome tree and the
task's stdout file, and three blobs holding those bytes raw.  So no row
holds a byte string, a cold start reads the rows and no
outcome, the first request for a restored job's outcome reads its one
blob and a second reads nothing, and disposal hands every blob back
without reading one; of the rows, it reads only the consign row, since
the finished job's outcome row is already in memory.  These tests meter
the blob store under the public session API on both backends.
"""

import pytest

from repro import asn1
from repro.api import GridSession
from repro.errors import StorageError
from repro.grid import build_grid

SITE = "FZJ"


def _byte_strings(value):
    """Every ``bytes`` inside a decoded row."""
    if isinstance(value, bytes):
        return [value]
    items = value.values() if isinstance(value, dict) else (
        value if isinstance(value, list) else ())
    return [found for item in items for found in _byte_strings(item)]


class _BlobReads:
    """Wraps a backend's blob store and records the digest of every read."""

    def __init__(self, blobs, monkeypatch):
        self.digests: list[str] = []
        get = blobs.get

        def counting(digest):
            self.digests.append(digest)
            return get(digest)

        monkeypatch.setattr(blobs, "get", counting)


def _finished_job(storage):
    grid = build_grid({SITE: ["FZJ-T3E"]}, seed=28, storage=storage)
    user = grid.add_user("Keeper", logins={SITE: "keeper"})
    session = GridSession(grid, user, SITE)
    blobs_before = len(grid.storage.blobs)
    job = session.new_job("kept")
    job.script_task("only", "#!/bin/sh\necho kept\n", simulated_runtime_s=30.0)
    handle = session.submit(job)
    assert session.wait(handle).status == "successful"
    return grid, user, handle, blobs_before


@pytest.mark.parametrize("storage", ["memory", "sqlite"])
def test_no_journal_or_outcome_row_carries_base64(storage):
    grid, _, handle, blobs_before = _finished_job(storage)
    backend = grid.storage
    for table in (f"{SITE}.journal", f"{SITE}.outcomes"):
        rows = backend._table_dump(table)
        assert [key for key, _ in rows] == [handle.job_id]
        for _, data in rows:
            assert _byte_strings(asn1.decode(data, StorageError)) == []
    # The job's blobs: its AJO, its outcome and its task's stdout file.
    record = grid.usites[SITE].njs.runs[handle.job_id].record
    consign = backend.table(f"{SITE}.journal").get(handle.job_id)
    assert consign["workstation_files"] == {} and len(record.files) == 1
    assert len(backend.blobs) == blobs_before + 3
    assert {consign["ajo"], record.outcome_digest, *record.files.values()} <= set(
        backend.blobs.digests()
    )


@pytest.mark.parametrize("storage", ["memory", "sqlite"])
def test_a_restored_outcome_is_read_once_on_first_request(storage, monkeypatch):
    grid, _, handle, _ = _finished_job(storage)
    usite = grid.usites[SITE]
    outcome = usite.njs.retrieve_outcome(handle.job_id)
    reads = _BlobReads(grid.storage.blobs, monkeypatch)

    usite.crash_site()
    usite.restart_site()
    njs = usite.njs
    assert reads.digests == []  # the restore read rows, no outcome

    assert njs.retrieve_outcome(handle.job_id) == outcome
    (read,) = reads.digests
    assert read == njs.runs[handle.job_id].record.outcome_digest
    assert njs.retrieve_outcome(handle.job_id) == outcome
    assert len(reads.digests) == 1


@pytest.mark.parametrize("storage", ["memory", "sqlite"])
def test_dispose_hands_every_blob_back_unread(storage, monkeypatch):
    grid, user, handle, blobs_before = _finished_job(storage)
    usite = grid.usites[SITE]
    usite.crash_site()
    usite.restart_site()
    reads = _BlobReads(grid.storage.blobs, monkeypatch)
    assert len(grid.storage.blobs) == blobs_before + 3

    GridSession(grid, user, SITE).dispose(handle)
    assert reads.digests == []
    assert len(grid.storage.blobs) == blobs_before


@pytest.mark.parametrize("storage", ["memory", "sqlite"])
def test_disposing_a_finished_job_reads_only_its_consign_row(storage):
    grid, user, handle, _ = _finished_job(storage)
    reads = grid.storage.reads
    GridSession(grid, user, SITE).dispose(handle)
    assert grid.storage.reads - reads == 1
