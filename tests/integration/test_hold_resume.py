"""Hold/resume control: delivery pauses, running work is untouched."""

import pytest

from repro.client import JobMonitorController, JobPreparationAgent
from repro.errors import ConsignError
from repro.grid import build_grid


@pytest.fixture()
def site():
    grid = build_grid({"FZJ": ["FZJ-T3E"]}, seed=37)
    user = grid.add_user("Holder", logins={"FZJ": "hold"})
    session = grid.connect_user(user, "FZJ")
    return grid, session


def _chain_job(jpa, n=3, stage_s=100.0):
    job = jpa.new_job("held-chain", vsite="FZJ-T3E")
    prev = None
    tasks = []
    for i in range(n):
        t = job.script_task(f"s{i}", script="#!/bin/sh\nx\n",
                            simulated_runtime_s=stage_s)
        if prev is not None:
            job.depends(prev, t)
        prev = t
        tasks.append(t)
    return job, tasks


def test_hold_pauses_delivery_resume_continues(site):
    grid, session = site
    jpa = JobPreparationAgent(session)
    jmc = JobMonitorController(session)
    session.client.poll_interval_s = 20.0
    job, tasks = _chain_job(jpa)

    def scenario(sim):
        job_id = yield from jpa.submit(job)
        # Hold while stage 0 runs: stage 1 must not be delivered.
        yield sim.timeout(50.0)
        yield from jmc.hold(job_id)
        yield sim.timeout(500.0)  # long after stage 0 finished
        batch = grid.usites["FZJ"].vsites["FZJ-T3E"].batch
        delivered_while_held = len(batch.all_records())
        yield from jmc.resume(job_id)
        final = yield from jmc.wait_for_completion(job_id)
        return delivered_while_held, final, sim.now

    p = grid.sim.process(scenario(grid.sim))
    delivered_while_held, final, end = grid.sim.run(until=p)
    assert delivered_while_held == 1  # only stage 0 reached the T3E
    assert final["status"] == "successful"
    # The held interval (~450s idle) shows up in the makespan.
    assert end > 3 * 100.0 + 400.0


def test_hold_does_not_touch_running_batch_job(site):
    grid, session = site
    jpa = JobPreparationAgent(session)
    jmc = JobMonitorController(session)
    job, tasks = _chain_job(jpa, n=1, stage_s=300.0)

    def scenario(sim):
        job_id = yield from jpa.submit(job)
        yield sim.timeout(10.0)
        yield from jmc.hold(job_id)
        final = yield from jmc.wait_for_completion(job_id)
        return final

    p = grid.sim.process(scenario(grid.sim))
    # The single already-delivered task runs to completion despite the
    # hold (UNICORE cannot influence the destination system).
    assert grid.sim.run(until=p)["status"] == "successful"


def test_cancel_wakes_held_job(site):
    grid, session = site
    jpa = JobPreparationAgent(session)
    jmc = JobMonitorController(session)
    session.client.poll_interval_s = 20.0
    job, tasks = _chain_job(jpa)

    def scenario(sim):
        job_id = yield from jpa.submit(job)
        yield sim.timeout(50.0)
        yield from jmc.hold(job_id)
        yield sim.timeout(200.0)
        yield from jmc.cancel(job_id)
        final = yield from jmc.wait_for_completion(job_id)
        return final

    p = grid.sim.process(scenario(grid.sim))
    assert grid.sim.run(until=p)["status"] == "killed"


def test_hold_terminal_job_rejected(site):
    grid, session = site
    jpa = JobPreparationAgent(session)
    jmc = JobMonitorController(session)
    job, _ = _chain_job(jpa, n=1, stage_s=10.0)

    def scenario(sim):
        job_id = yield from jpa.submit(job)
        yield from jmc.wait_for_completion(job_id)
        yield from jmc.hold(job_id)

    p = grid.sim.process(scenario(grid.sim))
    with pytest.raises(ConsignError, match="already terminal"):
        grid.sim.run(until=p)
