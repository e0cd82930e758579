"""E10 — section 5.7: the production deployment, replayed.

Paper evidence: "UNICORE is running at different German sites including
[FZJ, RUS, RUKA, LRZ, ZIB, DWD].  The systems covered are Cray T3E,
Fujitsu VPP/700, IBM SP-2, and NEC SX-4."

Setup: the full six-site grid; three users with different home sites
each run one submission stream of mixed UNICORE workloads (single-site
jobs plus cross-site pipelines) while every machine also carries its
own local load, for two simulated days.

Expected shape: the system sustains the offered load with zero lost
jobs — every consigned job reaches a terminal state, job-state
accounting is consistent across tiers, and every site shows nonzero
utilization from both populations.

The run also prints simulator events, wire bytes and wall seconds per
job; they are a description of the run, not a gate —
``benchmarks/perf``'s ``replay`` workload is what a performance claim is
measured with.
"""

import time

import pytest

from benchmarks._util import print_table
from repro.client import JobMonitorController, JobPreparationAgent
from repro.grid import (
    LocalLoadGenerator,
    WorkloadProfile,
    build_german_grid,
    synth_job,
)
from repro.resources import ResourceRequest
from repro.simkernel import derive_rng

HORIZON = 2 * 24 * 3600.0
VSITES = {
    "FZJ": "FZJ-T3E", "RUS": "RUS-T3E", "RUKA": "RUKA-SP2",
    "ZIB": "ZIB-SP2", "LRZ": "LRZ-VPP", "DWD": "DWD-SX4",
}


def _replay():
    grid = build_german_grid(seed=10)
    logins = {s: "prod" for s in grid.usites}
    users = [
        grid.add_user(f"Prod User {i}", logins=logins) for i in range(3)
    ]
    sessions = {
        (u.name, site): grid.connect_user(u, site)
        for u in users
        for site in ("FZJ", "ZIB", "DWD")
    }

    # Local background load everywhere.
    for site, vsite_name in VSITES.items():
        LocalLoadGenerator(
            grid.sim,
            grid.usites[site].vsites[vsite_name].batch,
            derive_rng(10, f"local:{site}"),
            arrival_rate_per_s=1 / 1800.0,
            profile=WorkloadProfile(mean_runtime_s=5400.0, max_cpus=32),
            horizon_s=HORIZON,
        )

    stats = {"submitted": 0, "terminal": 0, "successful": 0, "rejected": 0}
    # Seed every site's Xspace with the input data synth jobs import.
    for site in grid.usites.values():
        for i in range(200):
            site.xspace.fs.write(f"/data/job{i}/input.dat", b"x" * 4096)
            site.xspace.fs.write(f"/data/job{i}/job{i}.f90", b"program x\nend\n")

    def user_stream(user, home_site, seed_name):
        rng = derive_rng(10, seed_name)
        session = sessions[(user.name, home_site)]
        jpa = JobPreparationAgent(session)
        jmc = JobMonitorController(session)
        i = 0
        while grid.sim.now < HORIZON:
            yield grid.sim.timeout(float(rng.exponential(3000.0)))
            if grid.sim.now >= HORIZON:
                break
            i += 1
            roll = rng.random()
            try:
                if roll < 0.7:
                    builder = synth_job(
                        jpa, rng, f"job{i}", vsite=VSITES[home_site],
                        profile=WorkloadProfile(
                            mean_runtime_s=2700.0, max_cpus=32
                        ),
                    )
                else:
                    # Cross-site pipeline home -> another site.
                    other = "LRZ" if home_site != "LRZ" else "RUKA"
                    builder = jpa.new_job(f"pipe{i}", vsite=VSITES[home_site])
                    stage1 = builder.script_task(
                        "stage1", script="#!/bin/sh\ns1\n",
                        resources=ResourceRequest(cpus=8, time_s=7200),
                        simulated_runtime_s=float(rng.uniform(600, 3600)),
                    )
                    sub = builder.sub_job(
                        f"remote{i}", vsite=VSITES[other], usite=other
                    )
                    sub.script_task(
                        "stage2", script="#!/bin/sh\ns2\n",
                        resources=ResourceRequest(cpus=8, time_s=7200),
                        simulated_runtime_s=float(rng.uniform(600, 3600)),
                    )
                    builder.depends(stage1, sub.ajo, files=["hand.off"])
                stats["submitted"] += 1
                job_id = yield from jpa.submit(builder)
            except Exception:
                stats["rejected"] += 1
                continue
            final = yield from jmc.wait_for_completion(job_id)
            stats["terminal"] += 1
            if final.status == "successful":
                stats["successful"] += 1

    for i, (user, home) in enumerate(
        zip(users, ("FZJ", "ZIB", "DWD"), strict=True)
    ):
        grid.sim.process(user_stream(user, home, f"user{i}.0"))

    grid.sim.run(until=HORIZON + 12 * 3600.0)  # drain period
    # Let remaining waits finish.
    grid.sim.run()
    return grid, stats


@pytest.mark.benchmark(group="E10-production-replay")
def test_e10_two_day_replay(benchmark):
    holder = {}

    def run():
        started = time.perf_counter()
        holder["grid"], holder["stats"] = _replay()
        holder["wall_s"] = time.perf_counter() - started

    benchmark.pedantic(run, rounds=1, iterations=1)
    grid, stats = holder["grid"], holder["stats"]

    rows = []
    for site, vsite_name in VSITES.items():
        batch = grid.usites[site].vsites[vsite_name].batch
        records = batch.all_records()
        local = [r for r in records if r.spec.origin == "local"]
        unicore = [r for r in records if r.spec.origin == "unicore"]
        nonterminal = [r for r in records if not r.state.is_terminal]
        rows.append((
            vsite_name, len(local), len(unicore),
            f"{batch.utilization():6.1%}", len(nonterminal),
        ))
    print_table(
        "E10: production replay, six sites",
        ["vsite", "local jobs", "unicore jobs", "utilization", "stuck"],
        rows,
    )
    print(f"  UNICORE jobs: {stats['submitted']} submitted, "
          f"{stats['terminal']} reached terminal state, "
          f"{stats['successful']} successful, "
          f"{stats['rejected']} rejected at submission")

    # No lost jobs: everything submitted reached a terminal state.
    assert stats["submitted"] > 25
    assert stats["terminal"] == stats["submitted"]
    assert stats["successful"] >= 0.9 * stats["terminal"]
    # NJS-side accounting agrees: every run at every site terminal.
    for site in grid.usites.values():
        for run in site.njs.runs.values():
            assert run.status().is_terminal, run.job_id
    # Every machine saw UNICORE work and did real local work too.
    for _, local_n, _unicore_n, _, stuck in rows:
        assert stuck == 0
        assert local_n > 0
    assert sum(r[2] for r in rows) > 25

    jobs = max(1, stats["submitted"])
    print(
        f"  throughput: {grid.sim.profile()['events_processed'] / jobs:.0f} "
        f"events/job, {grid.network.total_bytes_sent() / jobs:.0f} wire "
        f"bytes/job, {holder['wall_s'] / jobs * 1000:.1f} wall ms/job"
    )
