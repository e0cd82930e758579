"""Bit-for-bit determinism: the foundation of every EXPERIMENTS.md number.

Two runs of the same seeded scenario must agree on *everything* —
simulated end time, processed event counts, per-job statuses, batch
utilizations, network byte counts — even with loss, background load, and
cross-site traffic in play.
"""

from repro.client import JobMonitorController, JobPreparationAgent
from repro.grid import LocalLoadGenerator, WorkloadProfile, build_grid
from repro.simkernel import derive_rng


def _run_scenario(seed: int) -> dict:
    grid = build_grid({"FZJ": ["FZJ-T3E"], "ZIB": ["ZIB-SP2"]}, seed=seed)
    user = grid.add_user("Det", logins={"FZJ": "det", "ZIB": "det_b"})
    session = grid.connect_user(user, "FZJ")
    # Loss on every WAN and access link (deterministic streams); the
    # intra-site firewall sockets stay reliable, like real LANs.
    for (a, b), link in grid.network._links.items():
        same_site = a.split(".")[0] == b.split(".")[0] and "." in a and "." in b
        if not same_site:
            link.loss_probability = 0.05
    from repro.protocol import RetryPolicy

    session.client.retry = RetryPolicy(max_attempts=30, base_delay_s=1.0)
    session.client.poll_interval_s = 60.0

    LocalLoadGenerator(
        grid.sim,
        grid.usites["ZIB"].vsites["ZIB-SP2"].batch,
        derive_rng(seed, "bg"),
        arrival_rate_per_s=1 / 300.0,
        profile=WorkloadProfile(mean_runtime_s=1200.0, max_cpus=64),
        horizon_s=4000.0,
    )

    jpa = JobPreparationAgent(session)
    jmc = JobMonitorController(session)
    statuses = []

    def scenario(sim):
        for i in range(4):
            root = jpa.new_job(f"det{i}", vsite="FZJ-T3E")
            work = root.script_task(
                "w", script="#!/bin/sh\nx\n", simulated_runtime_s=300.0 + i
            )
            sub = root.sub_job("r", vsite="ZIB-SP2", usite="ZIB")
            sub.script_task("rw", script="#!/bin/sh\nx\n",
                            simulated_runtime_s=200.0)
            root.depends(work, sub.ajo, files=["d.dat"])
            job_id = yield from jpa.submit(root)
            final = yield from jmc.wait_for_completion(job_id)
            statuses.append((job_id, final.status))

    grid.sim.run(until=grid.sim.process(scenario(grid.sim)))
    grid.sim.run()
    return {
        "now": grid.sim.now,
        "events": grid.sim.processed_events,
        "statuses": statuses,
        "bytes": grid.network.total_bytes_sent(),
        "lost": grid.network.total_messages_lost(),
        "utils": {
            name: usite.vsites[v].batch.utilization()
            for name, usite in grid.usites.items()
            for v in usite.vsites
        },
        "zib_jobs": len(
            grid.usites["ZIB"].vsites["ZIB-SP2"].batch.all_records()
        ),
    }


def test_identical_seeds_identical_worlds():
    a = _run_scenario(seed=73)
    b = _run_scenario(seed=73)
    assert a == b


def test_different_seeds_diverge():
    a = _run_scenario(seed=73)
    c = _run_scenario(seed=74)
    # The job statuses may coincide, but the stochastic fabric cannot.
    assert a["bytes"] != c["bytes"] or a["events"] != c["events"]
