"""A deterministic cost proxy for the data plane: bytes handed to CRC-32.

Wall time moves from run to run; the number of times a payload byte is
checksummed does not.  Each side of each hop reads a streamed byte once
(the per-chunk frame CRC) and derives the whole-payload CRC from the
chunk CRCs; only a stream's tail chunk is read a second time.  These
tests meter ``zlib.crc32`` under the public session API and hold the
data plane to that budget.
"""

import random
import zlib

import pytest

from repro.api import GridSession
from repro.grid import build_grid
from repro.protocol.datapath import DEFAULT_CHUNK_BYTES, INLINE_FILE_MAX

#: Three full chunks and a tail short enough that sender and receiver
#: re-reading it stays under one chunk per stream.
PAYLOAD_BYTES = 3 * DEFAULT_CHUNK_BYTES + 40_001


class _CrcMeter:
    """Stands in for ``zlib.crc32`` and sums the bytes it is handed."""

    def __init__(self) -> None:
        self.bytes = 0
        self._crc32 = zlib.crc32

    def __call__(self, data, value=0):
        self.bytes += len(data)
        return self._crc32(data, value)


@pytest.fixture()
def metered(monkeypatch):
    grid = build_grid({"FZJ": ["FZJ-T3E"], "ZIB": ["ZIB-SP2"]}, seed=14)
    user = grid.add_user("Mover", logins={"FZJ": "mover", "ZIB": "mover"})
    content = random.Random(14).randbytes(PAYLOAD_BYTES)
    assert len(content) > INLINE_FILE_MAX
    user.workstation.fs.write("/home/mover/payload.dat", content)
    session = GridSession(grid, user, "FZJ")
    meter = _CrcMeter()
    monkeypatch.setattr(zlib, "crc32", meter)
    return session, content, meter


def test_upload_hand_off_and_fetch_stay_inside_the_checksum_budget(metered):
    session, content, meter = metered
    job = session.new_job("budget", "FZJ-T3E")
    imp = job.import_from_workstation("/home/mover/payload.dat", "payload.dat")
    sub = job.sub_job("budget-consume", vsite="ZIB-SP2", usite="ZIB")
    sub.script_task("consume", "#!/bin/sh\nwc payload.dat\n",
                    simulated_runtime_s=60.0)
    job.depends(imp, sub, files=["payload.dat"])

    # Two streams: JPA -> gateway, then the NJS -> NJS staging hand-off.
    # Each has a sending and a receiving side: four passes (ten before
    # the single-pass data plane).
    handle = session.submit(job)
    assert session.wait(handle).status == "successful"
    uploaded = meter.bytes
    assert 4 * PAYLOAD_BYTES <= uploaded
    assert uploaded <= 4 * PAYLOAD_BYTES + 2 * DEFAULT_CHUNK_BYTES

    # One stream, gateway -> JMC: two passes (six before).
    assert session.fetch_file(handle, "payload.dat") == content
    fetched = meter.bytes - uploaded
    assert 2 * PAYLOAD_BYTES <= fetched
    assert fetched <= 2 * PAYLOAD_BYTES + DEFAULT_CHUNK_BYTES
