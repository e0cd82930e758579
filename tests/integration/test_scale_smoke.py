"""Scale smoke test: the six-site grid under a burst of concurrent jobs.

A lighter in-suite version of benchmark E10: thirty jobs submitted
back-to-back from three sessions, every one tracked to a terminal state,
with conservation checks across tiers.  Also guards wall-clock sanity:
the whole scenario must simulate quickly (event-count regression guard).
"""

import time

from repro.client import JobMonitorController, JobPreparationAgent
from repro.grid import build_german_grid
from repro.resources import ResourceRequest

VSITES = {
    "FZJ": "FZJ-T3E", "RUS": "RUS-T3E", "RUKA": "RUKA-SP2",
    "ZIB": "ZIB-SP2", "LRZ": "LRZ-VPP", "DWD": "DWD-SX4",
}


def test_thirty_concurrent_jobs_across_six_sites():
    grid = build_german_grid(seed=89)
    user = grid.add_user("Scale", logins={s: "scale" for s in grid.usites})
    sessions = {s: grid.connect_user(user, s) for s in ("FZJ", "ZIB", "DWD")}
    t0 = time.perf_counter()

    results = []

    def stream(home):
        session = sessions[home]
        session.client.poll_interval_s = 120.0
        jpa = JobPreparationAgent(session)
        jmc = JobMonitorController(session)
        pending = []
        for i in range(10):
            job = jpa.new_job(f"{home.lower()}-{i}", vsite=VSITES[home])
            job.script_task(
                "w", script="#!/bin/sh\nx\n",
                resources=ResourceRequest(cpus=4, time_s=3600),
                simulated_runtime_s=300.0 + 10 * i,
            )
            job_id = yield from jpa.submit(job)
            pending.append(job_id)
        for job_id in pending:
            final = yield from jmc.wait_for_completion(job_id)
            results.append((job_id, final.status))

    procs = [grid.sim.process(stream(h)) for h in ("FZJ", "ZIB", "DWD")]
    for p in procs:
        grid.sim.run(until=p)
    grid.sim.run()
    wall = time.perf_counter() - t0

    assert len(results) == 30
    assert all(status == "successful" for _, status in results)
    # Conservation at every tier.
    for usite in grid.usites.values():
        for run in usite.njs.runs.values():
            assert run.status().is_terminal
        for vsite in usite.vsites.values():
            assert all(r.state.is_terminal for r in vsite.batch.all_records())
    # Accounting saw all 30 jobs.
    billed = sum(len(u.accounting) for u in grid.usites.values())
    assert billed == 30
    # Wall-clock sanity: the whole scenario simulates in seconds.
    assert wall < 30.0
