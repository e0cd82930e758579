"""E10 — section 5.7: the production deployment, replayed.

Paper evidence: "UNICORE is running at different German sites including
[FZJ, RUS, RUKA, LRZ, ZIB, DWD].  The systems covered are Cray T3E,
Fujitsu VPP/700, IBM SP-2, and NEC SX-4."

Setup: the full six-site grid; three users with different home sites
each run ``--jobs N`` concurrent submission streams of mixed UNICORE
workloads (single-site jobs plus cross-site pipelines) while every
machine also carries its own local load, for two simulated days.

Expected shape: the system sustains the offered load with zero lost
jobs — every consigned job reaches a terminal state, job-state
accounting is consistent across tiers, and every site shows nonzero
utilization from both populations.

The run also prints simulator events, wire bytes and wall seconds per
job and writes them to ``BENCH_e10.json``; they are a description of the
run, not a gate — ``benchmarks/perf``'s ``replay`` workload is what a
performance claim is measured with.

Run directly for the CI smoke gate or at scale:

    python -m benchmarks.bench_e10_production_replay --smoke
    python -m benchmarks.bench_e10_production_replay --jobs 10
"""

import sys
import time

import pytest

from benchmarks._util import (
    print_table,
    run_as_script,
    smoke_mode,
    write_bench_artifact,
)
from repro.client import JobMonitorController, JobPreparationAgent
from repro.grid import (
    LocalLoadGenerator,
    WorkloadProfile,
    build_german_grid,
    synth_job,
)
from repro.observability import telemetry_for
from repro.resources import ResourceRequest
from repro.simkernel import derive_rng

HORIZON = 2 * 24 * 3600.0
SMOKE_HORIZON = 6 * 3600.0
VSITES = {
    "FZJ": "FZJ-T3E", "RUS": "RUS-T3E", "RUKA": "RUKA-SP2",
    "ZIB": "ZIB-SP2", "LRZ": "LRZ-VPP", "DWD": "DWD-SX4",
}
#: Counters worth tracking run over run (all land in the artifact).
TRACKED_COUNTERS = (
    "njs.index.hits",
    "njs.index.rebuilds",
    "njs.incarnation_cache.hits",
    "njs.incarnation_cache.misses",
    "jmc.delta_views",
    "gateway.subscribe_holds",
    "protocol.requests_sent",
    "protocol.retries",
)


def _streams_arg(default: int = 1) -> int:
    """The ``--jobs N`` scale factor (streams per user)."""
    argv = sys.argv
    for i, arg in enumerate(argv):
        if arg == "--jobs" and i + 1 < len(argv):
            return max(1, int(argv[i + 1]))
        if arg.startswith("--jobs="):
            return max(1, int(arg.split("=", 1)[1]))
    return default


def _replay(scale: int = 1, horizon: float = HORIZON):
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
            horizon_s=horizon,
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
        while grid.sim.now < horizon:
            yield grid.sim.timeout(float(rng.exponential(3000.0)))
            if grid.sim.now >= horizon:
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
            if final["status"] == "successful":
                stats["successful"] += 1

    for i, (user, home) in enumerate(
        zip(users, ("FZJ", "ZIB", "DWD"), strict=True)
    ):
        for stream in range(scale):
            grid.sim.process(user_stream(user, home, f"user{i}.{stream}"))

    grid.sim.run(until=horizon + 12 * 3600.0)  # drain period
    # Let remaining waits finish.
    grid.sim.run()
    return grid, stats


def _run_replay(benchmark, scale: int, horizon: float):
    holder = {}

    def run():
        started = time.perf_counter()
        holder["grid"], holder["stats"] = _replay(scale=scale, horizon=horizon)
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
        f"E10: production replay, six sites (scale={scale})",
        ["vsite", "local jobs", "unicore jobs", "utilization", "stuck"],
        rows,
    )
    print(f"  UNICORE jobs: {stats['submitted']} submitted, "
          f"{stats['terminal']} reached terminal state, "
          f"{stats['successful']} successful, "
          f"{stats['rejected']} rejected at submission")

    # No lost jobs: everything submitted reached a terminal state.
    min_submitted = (2 if smoke_mode() else 25) * scale
    assert stats["submitted"] > min_submitted
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
    assert sum(r[2] for r in rows) > min_submitted

    profile = grid.sim.profile()
    jobs = max(1, stats["submitted"])
    metrics = telemetry_for(grid.sim).metrics
    throughput = {
        "jobs": stats["submitted"],
        "events_per_job": profile["events_processed"] / jobs,
        "wire_bytes_per_job": grid.network.total_bytes_sent() / jobs,
        "wall_s_per_job": holder["wall_s"] / jobs,
    }
    print(
        f"  throughput: {throughput['events_per_job']:.0f} events/job, "
        f"{throughput['wire_bytes_per_job']:.0f} wire bytes/job, "
        f"{throughput['wall_s_per_job'] * 1000:.1f} wall ms/job"
    )

    write_bench_artifact("e10", {
        "horizon_s": horizon,
        "scale": scale,
        "stats": stats,
        "throughput": throughput,
        "sim_profile": profile,
        "counters": {
            name: metrics.counter_value(name) for name in TRACKED_COUNTERS
        },
        "sites": {
            vsite: {
                "local_jobs": local_n,
                "unicore_jobs": unicore_n,
                "utilization": util.strip(),
                "stuck": stuck,
            }
            for vsite, local_n, unicore_n, util, stuck in rows
        },
    })


@pytest.mark.benchmark(group="E10-production-replay")
def test_e10_two_day_replay(benchmark):
    _run_replay(
        benchmark,
        scale=_streams_arg(1),
        horizon=SMOKE_HORIZON if smoke_mode() else HORIZON,
    )


if __name__ == "__main__":
    run_as_script(test_e10_two_day_replay)
