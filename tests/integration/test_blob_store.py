"""File bodies live once in the blob store and come back lazily.

The acceptance scenario of the content-addressed blob table, on both
backends: a two-site pipeline's hand-off is one stored body however many
records name it, a cold start reads metadata instead of history and
still serves every byte it served before, and disposal hands the space
back.
"""

import hashlib

import pytest

from repro.ajo import encode_outcome
from repro.api import GridSession
from repro.grid import GridSnapshot, build_grid
from repro.observability import telemetry_for
from repro.server.njs.incarnation import RESULT_FILE_BYTES
from repro.storage import OutcomeStore, SnapshotError, decode_value, encode_value

SITES = {"FZJ": ["FZJ-T3E"], "ZIB": ["ZIB-SP2"]}
IMPORTED = bytes(range(256)) * 512  # 128 KiB the pipeline's sibling imports


def _grid(storage):
    grid = build_grid(SITES, seed=31, storage=storage)
    user = grid.add_user(
        "Blob Tester", organization="Test",
        logins={site: "blob" for site in SITES},
    )
    user.workstation.fs.write("/home/blob/in.dat", IMPORTED)
    return grid, user, GridSession(grid, user, "FZJ")


def _pipeline(session):
    root = session.new_job("pipeline", vsite="FZJ-T3E")
    stage1 = root.script_task(
        "stage1", script="#!/bin/sh\ns1\n", simulated_runtime_s=300.0
    )
    remote = root.sub_job("stage2@ZIB", vsite="ZIB-SP2", usite="ZIB")
    remote.script_task(
        "stage2", script="#!/bin/sh\ns2\n", simulated_runtime_s=200.0
    )
    root.depends(stage1, remote.ajo, files=["hand.off"])
    return root


def _importer(session):
    job = session.new_job("importer", vsite="FZJ-T3E")
    imp = job.import_from_workstation("/home/blob/in.dat", "kept.dat")
    work = job.script_task(
        "work", script="#!/bin/sh\nwc kept.dat\n", simulated_runtime_s=60.0
    )
    job.depends(imp, work, files=["kept.dat"])
    return job


def _served(grid, user, reads):
    """What fresh sessions are served: (file bytes, outcome bytes) per read."""
    sessions = {site: GridSession(grid, user, site) for site in SITES}
    return [
        (
            sessions[site].fetch_file(job_id, path),
            encode_outcome(sessions[site].outcome(job_id)),
        )
        for site, job_id, path in reads
    ]


@pytest.mark.parametrize("storage", ["memory", "sqlite"])
def test_pipeline_handoff_is_stored_once_and_restored_lazily(storage):
    grid, user, session = _grid(storage)
    backend = grid.storage
    pipeline = session.submit(_pipeline(session))
    importer = session.submit(_importer(session))
    for handle in (pipeline, importer):
        assert session.wait(handle).status == "successful"

    # -- one body, three names ------------------------------------------
    handoff = hashlib.sha256(bytes(RESULT_FILE_BYTES)).hexdigest()
    # The forwarded group finished, so the child's journal holds it only
    # as its consign row.
    assert len(grid.usites["ZIB"].njs.journal) == 0
    ((forwarded_id, consigned),) = backend.table("ZIB.journal").items()
    assert consigned["parent_job_id"] == pipeline.job_id
    parent_outcome = OutcomeStore(backend, "FZJ.outcomes").get(pipeline.job_id)
    child_outcome = OutcomeStore(backend, "ZIB.outcomes").get(forwarded_id)
    assert parent_outcome.files["hand.off"] == handoff
    assert consigned["workstation_files"] == {"hand.off": handoff}
    assert child_outcome.files["hand.off"] == handoff
    assert backend.dump()["blobs"][handoff]["refs"] == 3
    assert backend.blobs.digests().count(handoff) == 1
    # The body reached the backend once; the other two puts were dedup hits.
    metrics = telemetry_for(grid.sim).metrics
    assert metrics.counter("storage.blob.dedup_hits").value >= 2
    assert backend.bytes_written < RESULT_FILE_BYTES + len(IMPORTED) + 64 * 1024

    # -- a cold start reads metadata, then serves the same bytes ---------
    reads = [
        ("FZJ", pipeline.job_id, "hand.off"),
        ("FZJ", importer.job_id, "kept.dat"),
        ("ZIB", forwarded_id, "hand.off"),
    ]
    before = _served(grid, user, reads)
    assert before[1][0] == IMPORTED

    read_before = metrics.counter("storage.bytes_read").value
    for usite in grid.usites.values():
        usite.crash_site()
    for usite in grid.usites.values():
        usite.restart_site()
    restart_read = metrics.counter("storage.bytes_read").value - read_before
    assert 0 < restart_read < 0.10 * backend.bytes_written
    assert metrics.counter("njs.restored_runs").value == 3

    assert _served(grid, user, reads) == before

    # -- disposal hands every body back ----------------------------------
    for site, job_id, _ in reads:
        GridSession(grid, user, site).dispose(job_id)
    assert backend.blobs.digests() == []
    assert backend.dump()["blobs"] == {}


@pytest.mark.parametrize("version", [1, 2])
def test_older_snapshot_is_refused_with_the_registered_code(tmp_path, version):
    grid, _, session = _grid("memory")
    assert session.wait(session.submit(_importer(session))).status == "successful"
    snap = grid.snapshot()
    assert sorted(snap.storage["blobs"]) == grid.storage.blobs.digests()
    assert sorted(snap.storage) == ["blobs", "tables"]

    # What the previous layouts wrote: version 1 had no "blobs" section,
    # version 2 kept the journal in a "logs" section.
    plain = decode_value(snap.to_bytes())
    plain["version"] = version
    if version == 1:
        del plain["storage"]["blobs"]
    plain["storage"]["logs"] = {"FZJ.journal": [{"kind": "done", "job_id": "U1"}]}
    path = tmp_path / "old.snapshot"
    path.write_bytes(encode_value(plain))

    for thaw in (
        lambda: GridSnapshot.load(str(path)),
        lambda: build_grid(restore_from=str(path)),
    ):
        with pytest.raises(SnapshotError) as caught:
            thaw()
        assert caught.value.code == "storage.snapshot"
