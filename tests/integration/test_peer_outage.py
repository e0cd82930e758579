"""An NJS that is down while a peer talks to it (sections 4.3, 5.3).

A crashed NJS refuses every peer message, which fails the sender's hop
as a lost message does: the hop's retries (``PEER_RETRIES`` x
``PEER_RETRY_DELAY_S``, 30 s) deliver it after a short outage, and a
long one fails the sending action once.  A restarted NJS also refuses
the DATA frames of a stream it lost, and the sender starts that stream
again from its OPEN frame, on the same budget.  A forwarded group is named
``(parent job id, group id)`` at both ends, so a parent NJS that
restarts and replays its job gets the group's result from the run that
already serves it at the child: the group is consigned and delivered
there once.
"""

import asyncio

import pytest

from repro.ajo.serialize import decode_outcome
from repro.api import GridSession
from repro.api.aio import AsyncGridSession
from repro.grid import build_grid
from repro.net.stream import FrameType, decode_frame
from repro.server.njs.peerlink import PeerFrame

SITES = {"FZJ": ["FZJ-T3E"], "ZIB": ["ZIB-SP2"]}
LOGINS = {"FZJ": "outage", "ZIB": "outage_b"}
HORIZON_S = 20_000.0


def _two_sites():
    grid = build_grid(SITES, seed=29)
    user = grid.add_user("Outage", logins=LOGINS)
    return grid, GridSession(grid, user, "FZJ")


def _spanning(session, runtime_s, job=None):
    """A job whose one group runs at ZIB, and the group's builder."""
    job = job or session.new_job("spanning", vsite="FZJ-T3E")
    sub = job.sub_job("remote", vsite="ZIB-SP2", usite="ZIB")
    sub.script_task("there", "#!/bin/sh\nx\n", simulated_runtime_s=runtime_s)
    return job, sub


def _finishes(njs):
    """Job id -> how often its outcome row was written, as it happens."""
    counted: dict[str, int] = {}
    put = njs.outcomes.put

    def counting(record, *args):
        counted[record.job_id] = counted.get(record.job_id, 0) + 1
        return put(record, *args)

    njs.outcomes.put = counting
    return counted


@pytest.mark.parametrize("outage_s, status", [(10.0, "successful"), (60.0, "failed")])
def test_a_group_sent_to_a_down_child_arrives_or_fails_once(outage_s, status):
    """The child NJS is down when the ForwardGroup arrives.  Within the
    hop's retry window the group is consigned there once and the job
    succeeds; past it the group fails once, as lost in transit."""
    grid, session = _two_sites()
    fzj, zib = grid.usites["FZJ"].njs, grid.usites["ZIB"].njs
    finishes = _finishes(fzj)
    job, sub = _spanning(session, 30.0)
    zib.crash()
    grid.sim.schedule_callback(outage_s, zib.restart)
    handle = session.submit(job)
    grid.sim.run(until=HORIZON_S)

    assert fzj.runs[handle.job_id].status().value == status
    assert finishes == {handle.job_id: 1}
    assert len(zib.runs) == (1 if status == "successful" else 0)
    if status == "failed":
        group = decode_outcome(fzj.retrieve_outcome(handle.job_id)).child(sub.ajo.id)
        assert "lost in transit after retries" in group.reason


def _crash_after_the_stream_opens(grid, njs, after_s, outage_s):
    """Crash ``njs`` ``after_s`` after the first peer stream opens at
    it, and restart it ``outage_s`` later."""
    dispatch = njs.dispatch_peer_message
    opened: list[float] = []

    def watching(payload):
        if (
            not opened and isinstance(payload, PeerFrame)
            and decode_frame(payload.raw).ftype == FrameType.OPEN
        ):
            opened.append(grid.sim.now)
            grid.sim.schedule_callback(after_s, njs.crash)
            grid.sim.schedule_callback(after_s + outage_s, njs.restart)
        return dispatch(payload)

    njs.dispatch_peer_message = watching
    return opened


@pytest.mark.parametrize("outage_s, status", [(10.0, "successful"), (60.0, "failed")])
@pytest.mark.parametrize("after_s", [0.5, 2.0, 4.0])
def test_a_child_restarted_mid_stream_takes_the_group_or_fails_it_once(
    after_s, outage_s, status
):
    """The child NJS crashes while a 4 MiB import streams to it ahead of
    the group, and forgets the stream.  It refuses the stream's next
    DATA frame, so the parent starts the stream again from its OPEN
    frame: within the retry budget the group arrives whole and is
    consigned once; past it the group fails once, as lost in transit."""
    grid, session = _two_sites()
    fzj, zib = grid.usites["FZJ"].njs, grid.usites["ZIB"].njs
    finishes = _finishes(fzj)
    session.user.workstation.fs.write("/home/outage/in.dat", b"\x5a" * (4 << 20))
    job = session.new_job("staged", vsite="FZJ-T3E")
    sub = job.sub_job("remote", vsite="ZIB-SP2", usite="ZIB")
    imp = sub.import_from_workstation("/home/outage/in.dat", "in.dat")
    work = sub.script_task("there", "#!/bin/sh\nwc in.dat\n", simulated_runtime_s=30.0)
    sub.depends(imp, work, files=["in.dat"])
    opened = _crash_after_the_stream_opens(grid, zib, after_s, outage_s)
    handle = session.submit(job)
    grid.sim.run(until=HORIZON_S)

    assert opened and zib.crashes == 1
    assert fzj.runs[handle.job_id].status().value == status
    assert finishes == {handle.job_id: 1}
    assert len(zib.runs) == (1 if status == "successful" else 0)
    if status == "failed":
        group = decode_outcome(fzj.retrieve_outcome(handle.job_id)).child(sub.ajo.id)
        assert "lost in transit after retries" in group.reason


@pytest.mark.parametrize("outage_s", [10.0, 60.0])
@pytest.mark.parametrize("crash_at", ["0.5s", "100s", "task-end"])
def test_a_parent_restart_runs_its_group_once(crash_at, outage_s):
    """The parent NJS crashes while its group is consigned at the child
    (just after, mid-task, or just after the task ended) and replays the
    job on restart.  The replay's ForwardGroup finds the run serving it:
    one consign and one batch job at the child, and the job succeeds."""
    grid, session = _two_sites()
    fzj, zib = grid.usites["FZJ"].njs, grid.usites["ZIB"].njs
    batch = grid.usites["ZIB"].vsites["ZIB-SP2"].batch
    job, _ = _spanning(session, 200.0)
    handle = session.submit(job)
    if crash_at == "task-end":
        while not (batch.all_records() and batch.all_records()[0].state.is_terminal):
            grid.sim.step()
    else:
        grid.sim.run(until=grid.sim.now + float(crash_at.removesuffix("s")))
        assert len(zib.runs) == 1  # the group is consigned at the child
    fzj.crash()
    grid.sim.schedule_callback(outage_s, fzj.restart)
    grid.sim.run(until=HORIZON_S)

    assert fzj.runs[handle.job_id].status().value == "successful"
    assert len(zib.runs) == 1
    assert len(batch.all_records()) == 1


def test_a_down_child_refuses_the_group_alike_on_the_socket_transport():
    """On the real-socket transport NJS-NJS traffic keeps the in-process
    links, so the refusal and the hop's retries behave alike there."""

    async def main():
        grid = build_grid(SITES, seed=29, transport="aio")
        user = grid.add_user("Outage", logins=LOGINS)
        session = await AsyncGridSession.connect(grid, user, "FZJ")
        try:
            zib = grid.usites["ZIB"].njs
            job, _ = _spanning(session, 30.0, await session.new_job("spanning"))
            zib.crash()
            grid.sim.schedule_callback(10.0, zib.restart)
            handle = await session.submit(job)
            return (await session.wait(handle)).status, len(zib.runs)
        finally:
            await grid.network.aclose()

    assert asyncio.run(main()) == ("successful", 1)
