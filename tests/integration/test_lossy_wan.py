"""Failure injection: the whole stack on an unreliable WAN.

The paper chose an asynchronous protocol precisely to "protect against
any unreliability of the underlying communication mechanism"; these
tests inject message loss on every WAN link and verify the system still
delivers — client-to-gateway traffic via the async client's retries, and
NJS-to-NJS traffic via the supervisor's bounded resends.
"""

import pytest

from repro.ajo import ActionStatus
from repro.client import JobMonitorController, JobPreparationAgent
from repro.grid import build_grid
from repro.protocol import RetryPolicy


def _lossy_grid(loss: float, seed: int):
    grid = build_grid({"FZJ": ["FZJ-T3E"], "ZIB": ["ZIB-SP2"]}, seed=seed)
    user = grid.add_user("Lossy", logins={"FZJ": "loss", "ZIB": "loss_b"})
    user.browser.retry = RetryPolicy(max_attempts=20, base_delay_s=1.0,
                                     max_delay_s=10.0)
    session = grid.connect_user(user, "FZJ")
    # Inject loss on every WAN link *after* connection setup.
    for (a, b), link in grid.network._links.items():
        if ".gateway" in a and ".gateway" in b and a.split(".")[0] != b.split(".")[0]:
            link.loss_probability = loss
        if a.startswith("ws") or b.startswith("ws"):
            link.loss_probability = loss
    return grid, user, session


@pytest.mark.parametrize("loss", [0.05, 0.15])
def test_single_site_job_completes_on_lossy_access_link(loss):
    grid, user, session = _lossy_grid(loss, seed=101)
    jpa = JobPreparationAgent(session)
    jmc = JobMonitorController(session)
    session.client.poll_interval_s = 60.0
    job = jpa.new_job("lossy-job", vsite="FZJ-T3E")
    job.script_task("w", script="#!/bin/sh\nx\n", simulated_runtime_s=120.0)

    def scenario(sim):
        job_id = yield from jpa.submit(job)
        final = yield from jmc.wait_for_completion(job_id)
        return final

    p = grid.sim.process(scenario(grid.sim))
    final = grid.sim.run(until=p)
    assert final.status == "successful"
    assert session.client.retries >= 0  # retries may or may not trigger


def test_multisite_pipeline_survives_lossy_wan():
    grid, user, session = _lossy_grid(0.10, seed=103)
    jpa = JobPreparationAgent(session)
    jmc = JobMonitorController(session)
    session.client.poll_interval_s = 60.0

    root = jpa.new_job("lossy-pipeline", vsite="FZJ-T3E")
    work = root.script_task("produce", script="#!/bin/sh\nx\n",
                            simulated_runtime_s=60.0)
    sub = root.sub_job("remote", vsite="ZIB-SP2", usite="ZIB")
    sub.script_task("consume", script="#!/bin/sh\nx\n",
                    simulated_runtime_s=60.0)
    root.depends(work, sub.ajo, files=["hand.off"])

    def scenario(sim):
        job_id = yield from jpa.submit(root)
        final = yield from jmc.wait_for_completion(job_id)
        outcome = yield from jmc.outcome(job_id)
        return final, outcome

    p = grid.sim.process(scenario(grid.sim))
    final, outcome = grid.sim.run(until=p)
    assert final.status == "successful"
    assert outcome.rollup_status() is ActionStatus.SUCCESSFUL
    # The WAN really lost messages along the way.
    assert grid.network.total_messages_lost() > 0


def test_duplicate_consign_suppressed_under_reply_loss():
    """Reply loss forces consign retries; the gateway's idempotency cache
    must prevent duplicate jobs."""
    grid, user, session = _lossy_grid(0.25, seed=107)
    jpa = JobPreparationAgent(session)
    jmc = JobMonitorController(session)
    session.client.poll_interval_s = 60.0
    job = jpa.new_job("dedup", vsite="FZJ-T3E")
    job.script_task("w", script="#!/bin/sh\nx\n", simulated_runtime_s=30.0)

    def scenario(sim):
        job_id = yield from jpa.submit(job)
        final = yield from jmc.wait_for_completion(job_id)
        listing = yield from jmc.list_jobs()
        return job_id, final, listing

    p = grid.sim.process(scenario(grid.sim))
    job_id, final, listing = grid.sim.run(until=p)
    assert final.status == "successful"
    assert [j.job_id for j in listing] == [job_id]  # exactly one job
    assert grid.usites["FZJ"].njs.job_count == 1
