"""An NJS that is down while a peer talks to it (sections 4.3, 5.3).

A crashed NJS refuses every peer message, which fails the sender's hop
as a lost message does: the hop's retries (``PEER_RETRIES`` x
``PEER_RETRY_DELAY_S``, 30 s) deliver it after a short outage, and a
long one fails the sending action once.  A forwarded group is named
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
