"""A gateway that is down while a client uploads to it (sections 5.2, 5.6).

A workstation file rides ahead of its consignment on the data plane.  A
crashed gateway refuses each frame of it, as a crashed NJS refuses a
peer's (``test_peer_outage.py``): the client's stream resends the frame,
or starts again from its OPEN frame, on the stream's retry budget.  So a
short outage costs the upload time, not the job, and a long one fails
the submit with the refusal, having consigned nothing.
"""

import asyncio

import pytest

from repro.api import GridSession
from repro.api.aio import AsyncGridSession
from repro.grid import build_grid
from repro.net.errors import ConnectionRefused
from repro.net.stream import FrameType, decode_frame
from repro.protocol.datapath import STREAM_WAIT_TIMEOUT_S


def _crash_after_the_upload_opens(grid, gateway, after_s, outage_s):
    """Crash ``gateway`` ``after_s`` after the first stream opens at it,
    and restart it ``outage_s`` later; the list the stream's id goes to."""
    feed = gateway.datapath.feed
    opened: list[int] = []

    def watching(raw, **kwargs):
        frame = decode_frame(bytes(raw))
        if not opened and frame.ftype == FrameType.OPEN:
            opened.append(frame.stream_id)
            grid.sim.schedule_callback(after_s, gateway.crash)
            grid.sim.schedule_callback(after_s + outage_s, gateway.restart)
        return feed(raw, **kwargs)

    gateway.datapath.feed = watching
    return opened


def _upload_job(session, user, job):
    """``job`` importing a 4 MiB workstation file into its one task."""
    user.workstation.fs.write("/home/up/in.dat", b"\x5a" * (4 << 20))
    imp = job.import_from_workstation("/home/up/in.dat", "in.dat")
    work = job.script_task("use", "#!/bin/sh\nwc in.dat\n", simulated_runtime_s=30.0)
    job.depends(imp, work, files=["in.dat"])
    return job


@pytest.mark.parametrize("outage_s", [10.0, 60.0])
@pytest.mark.parametrize("after_s", [0.5, 2.0])
def test_an_upload_across_a_gateway_outage_arrives_or_fails_the_submit(
    after_s, outage_s
):
    """The FZJ gateway crashes 0.5 s or 2 s into a 4 MiB upload: after
    10 s down the job is consigned once and succeeds; after 60 s the
    submit raises the refusal and the NJS holds no run, and the gateway
    drops the abandoned stream when an upload opens 600 s later."""
    grid = build_grid({"FZJ": ["FZJ-T3E"]}, seed=29)
    user = grid.add_user("Uploader", logins={"FZJ": "up"})
    session = GridSession(grid, user, "FZJ")
    job = _upload_job(session, user, session.new_job("upload", vsite="FZJ-T3E"))
    gateway, njs = grid.usites["FZJ"].gateway, grid.usites["FZJ"].njs
    opened = _crash_after_the_upload_opens(grid, gateway, after_s, outage_s)

    if outage_s < 60.0:
        handle = session.submit(job, workstation=user.workstation)
        assert session.wait(handle).status == "successful"
    else:
        with pytest.raises(ConnectionRefused):
            session.submit(job, workstation=user.workstation)
    assert opened
    assert len(njs.runs) == (1 if outage_s < 60.0 else 0)
    if outage_s >= 60.0:
        grid.sim.run(until=grid.sim.now + STREAM_WAIT_TIMEOUT_S)
        again = _upload_job(session, user, session.new_job("again", vsite="FZJ-T3E"))
        handle = session.submit(again, workstation=user.workstation)
        assert session.wait(handle).status == "successful"
        assert not gateway.datapath.pending(opened[0])


def test_a_down_gateway_refuses_a_frame_alike_on_the_socket_transport():
    """On the real-socket transport the refusal fails the frame's send
    as it does in-process, and the upload arrives after a 10 s outage."""

    async def main():
        grid = build_grid({"FZJ": ["FZJ-T3E"]}, seed=29, transport="aio")
        user = grid.add_user("Uploader", logins={"FZJ": "up"})
        session = await AsyncGridSession.connect(grid, user, "FZJ")
        try:
            job = _upload_job(session, user, await session.new_job("upload"))
            usite = grid.usites["FZJ"]
            opened = _crash_after_the_upload_opens(grid, usite.gateway, 0.5, 10.0)
            handle = await session.submit(job, workstation=user.workstation)
            status = (await session.wait(handle)).status
            return status, len(usite.njs.runs), bool(opened)
        finally:
            await grid.network.aclose()

    assert asyncio.run(main()) == ("successful", 1, True)
