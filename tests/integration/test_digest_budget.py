"""A deterministic cost proxy for persistence: bytes handed to sha256.

The twin of ``test_checksum_budget.py``.  A file body is hashed the
first time a site persists it (the consign row's blob) and keeps the
digest, so the outcome record naming the same Uspace file costs no
second pass: one pass per body per site.  And never fewer: a digest
does not cross a site inside a message — a peer handed a file inline
still hashes what *it* accepted — which the inline case below guards
(the simulated transport passes message objects by reference, so a
digest riding one would silently skip the peer's pass).
"""

import hashlib
import random

import pytest

from repro.api import GridSession
from repro.grid import build_grid
from repro.protocol.datapath import DEFAULT_CHUNK_BYTES, INLINE_FILE_MAX

STREAMED_BYTES = 3 * DEFAULT_CHUNK_BYTES + 40_001
INLINE_BYTES = 10 * 1024

#: Calls below this size are names, seeds and keys, not file content.
CONTENT_FLOOR = 1024


class _Sha256Meter:
    """Stands in for ``hashlib.sha256`` and sums the content bytes it is
    handed."""

    def __init__(self) -> None:
        self.bytes = 0
        self._sha256 = hashlib.sha256

    def __call__(self, data=b""):
        if len(data) >= CONTENT_FLOOR:
            self.bytes += len(data)
        return self._sha256(data)


@pytest.mark.parametrize("size", [STREAMED_BYTES, INLINE_BYTES])
def test_a_file_is_hashed_once_per_site_that_accepts_it(monkeypatch, size):
    assert INLINE_BYTES <= INLINE_FILE_MAX < STREAMED_BYTES
    grid = build_grid({"FZJ": ["FZJ-T3E"], "ZIB": ["ZIB-SP2"]}, seed=14)
    user = grid.add_user("Mover", logins={"FZJ": "mover", "ZIB": "mover"})
    content = random.Random(14).randbytes(size)
    user.workstation.fs.write("/home/mover/payload.dat", content)
    session = GridSession(grid, user, "FZJ")
    meter = _Sha256Meter()
    monkeypatch.setattr(hashlib, "sha256", meter)

    job = session.new_job("budget", "FZJ-T3E")
    imp = job.import_from_workstation("/home/mover/payload.dat", "payload.dat")
    sub = job.sub_job("budget-consume", vsite="ZIB-SP2", usite="ZIB")
    sub.script_task("consume", "#!/bin/sh\nwc payload.dat\n",
                    simulated_runtime_s=60.0)
    job.depends(imp, sub, files=["payload.dat"])
    handle = session.submit(job)
    assert session.wait(handle).status == "successful"

    hashed = meter.bytes
    # The file is in four durable records — consign row and outcome at
    # FZJ, forwarded consign row and outcome at ZIB — and was read for
    # them twice: once by each site (four times before bodies kept their
    # digest).
    fzj, zib = grid.usites["FZJ"].njs, grid.usites["ZIB"].njs
    digest = hashlib.sha256(content).hexdigest()
    group_id = zib.forwarding.foreign_run(handle.job_id).job_id
    for njs, job_id in ((fzj, handle.job_id), (zib, group_id)):
        assert njs.journal.entry(job_id) is None  # finished
        assert njs.outcomes.get(job_id).files["payload.dat"] == digest
    assert hashed == 2 * size
