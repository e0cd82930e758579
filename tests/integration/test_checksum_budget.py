"""A deterministic cost proxy for the data plane: bytes handed to CRC-32.

Wall time moves from run to run; the number of times a payload byte is
checksummed does not.  A site reads a streamed byte once, when it
accepts it (the per-chunk frame CRC in ``decode_frame``) or the first
time it frames a file nobody there has cut before; the chunk CRCs then
ride with the file body, so sending it on reads only a stream's tail
chunk again (the whole-payload CRC is folded from the chunk CRCs).
These tests meter ``zlib.crc32`` under the public session API and hold
the data plane to that budget from both sides: the lower bounds fail
when a *receiver's* pass goes missing.
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
    # The client sends, FZJ receives, ZIB receives: three passes.  FZJ's
    # re-send carries the CRCs it verified at receipt and reads only the
    # tail, in the fold (four passes before bodies held their CRCs, ten
    # before the single-pass data plane).
    handle = session.submit(job)
    assert session.wait(handle).status == "successful"
    uploaded = meter.bytes
    assert 3 * PAYLOAD_BYTES <= uploaded
    assert uploaded <= 3 * PAYLOAD_BYTES + 2 * DEFAULT_CHUNK_BYTES

    # One stream, gateway -> JMC: the client's receiving pass only (two
    # passes before, six before the single-pass data plane).
    assert session.fetch_file(handle, "payload.dat") == content
    fetched = meter.bytes - uploaded
    assert PAYLOAD_BYTES <= fetched
    assert fetched <= PAYLOAD_BYTES + DEFAULT_CHUNK_BYTES
