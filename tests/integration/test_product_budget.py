"""A deterministic cost proxy for the batch tier: what a declared product costs.

The third of the content budgets, beside ``test_checksum_budget.py``
(bytes a site receives) and ``test_digest_budget.py`` (bytes a site
persists): the bytes a site *invents*.  A task's declared product is the
one body its batch system keeps per product size, so at one site every
``result.dat`` is the same object — allocated once, hashed once, cut into
chunk CRCs once.  And never fewer than once per site: a product that
crosses to another site arrives as frames, the receiver CRC-verifies
every chunk, builds its own body and hashes what it accepted.
"""

import hashlib
import tracemalloc
import zlib

from repro.api import GridSession
from repro.grid import build_grid
from repro.server.njs.incarnation import RESULT_FILE_BYTES

from .test_checksum_budget import _CrcMeter
from .test_digest_budget import CONTENT_FLOOR, _Sha256Meter

SITES = {"FZJ": ["FZJ-T3E"], "ZIB": ["ZIB-SP2"]}
INPUT_BYTES = 4096
JOBS = 6


def _grid():
    grid = build_grid(SITES, seed=23)
    user = grid.add_user("Maker", logins={site: "maker" for site in SITES})
    return grid, {site: GridSession(grid, user, site) for site in SITES}


def _run_exporting_job(grid, session, name):
    """4 KiB import -> script -> ``result.dat`` exported; the job's
    Uspace and Xspace bodies of the product."""
    site = session.usite
    xspace = grid.usites[site].xspace.fs
    xspace.write(f"/data/{name}/input.dat", name.encode().ljust(INPUT_BYTES, b"."))
    job = session.new_job(name, SITES[site][0])
    imp = job.import_from_xspace(f"/data/{name}/input.dat", "input.dat")
    work = job.script_task(
        "work", "#!/bin/sh\n./application input.dat\n", simulated_runtime_s=60.0
    )
    exp = job.export_to_xspace("result.dat", f"/results/{name}.dat")
    job.depends(imp, work, files=["input.dat"])
    job.depends(work, exp, files=["result.dat"])
    handle = session.submit(job)
    assert session.wait(handle).status == "successful"
    njs = grid.usites[site].njs
    return (
        njs.fetch_uspace_file(handle.job_id, "result.dat"),
        xspace.body(f"/results/{name}.dat"),
    )


def _job_blobs(njs):
    """What the meter counts of each job's persisted AJO and outcome
    encodings: both are blobs, each hashed once when its row is written."""
    return sum(
        len(data)
        for job_id in njs.runs
        for data in (njs.journal.ajo_bytes(job_id), njs.retrieve_outcome(job_id))
        if len(data) >= CONTENT_FLOOR
    )


def test_a_product_is_made_and_hashed_once_per_site(monkeypatch):
    grid, sessions = _grid()
    meter = _Sha256Meter()
    monkeypatch.setattr(hashlib, "sha256", meter)

    tracemalloc.start()
    try:
        traced = tracemalloc.get_traced_memory()[0]
        bodies = [
            body
            for i in range(JOBS)
            for body in _run_exporting_job(grid, sessions["FZJ"], f"fzj{i}")
        ]
        traced = tracemalloc.get_traced_memory()[0] - traced
    finally:
        tracemalloc.stop()

    # Six outcomes name six inputs and one product (six before the batch
    # system kept the body it made).
    fzj, zib = grid.usites["FZJ"].njs, grid.usites["ZIB"].njs
    assert meter.bytes == RESULT_FILE_BYTES + JOBS * INPUT_BYTES + _job_blobs(fzj)
    assert all(body is bodies[0] for body in bodies)
    assert bodies[0] == bytes(RESULT_FILE_BYTES)
    assert traced < 2 * RESULT_FILE_BYTES

    # Another site shares nothing with this one: its own body, its own pass.
    hashed = meter.bytes
    theirs, _ = _run_exporting_job(grid, sessions["ZIB"], "zib0")
    assert theirs is not bodies[0] and theirs == bodies[0]
    assert meter.bytes - hashed == RESULT_FILE_BYTES + INPUT_BYTES + _job_blobs(zib)


def test_a_product_that_crosses_a_site_is_still_read_by_the_receiver(monkeypatch):
    grid, sessions = _grid()
    session = sessions["FZJ"]
    fzj, zib = grid.usites["FZJ"].njs, grid.usites["ZIB"].njs
    sha, crc = _Sha256Meter(), _CrcMeter()
    monkeypatch.setattr(hashlib, "sha256", sha)
    monkeypatch.setattr(zlib, "crc32", crc)

    received = []
    for n in range(2):
        hashed, summed = sha.bytes, crc.bytes
        root = session.new_job(f"pipeline{n}", "FZJ-T3E")
        stage1 = root.script_task(
            "stage1", "#!/bin/sh\ns1\n", simulated_runtime_s=300.0
        )
        remote = root.sub_job(f"stage2@ZIB-{n}", vsite="ZIB-SP2", usite="ZIB")
        remote.script_task("stage2", "#!/bin/sh\ns2\n", simulated_runtime_s=200.0)
        root.depends(stage1, remote, files=["hand.off"])
        handle = session.submit(root)
        assert session.wait(handle).status == "successful"

        sent = fzj.fetch_uspace_file(handle.job_id, "hand.off")
        group_id = zib.runs.serving(handle.job_id)[-1].job_id
        received.append(zib.fetch_uspace_file(group_id, "hand.off"))
        assert received[-1] is not sent and received[-1] == sent
        # FZJ reads its product the first time only (one hash, one cut
        # into chunks); ZIB reads every transfer: each chunk's CRC at
        # receipt, then the digest of the body it built from them.
        ours = RESULT_FILE_BYTES if n == 0 else 0
        assert sha.bytes - hashed == ours + RESULT_FILE_BYTES
        assert ours + RESULT_FILE_BYTES <= crc.bytes - summed
        assert crc.bytes - summed < ours + 2 * RESULT_FILE_BYTES
    assert received[0] is not received[1]
