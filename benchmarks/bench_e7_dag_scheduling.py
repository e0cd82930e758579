"""E7 — section 5.5: NJS scheduling is sequenced delivery only.

Paper: "The scheduling done by the NJS is limited to the delivery of the
generated batch jobs to the destination systems in the specified
sequence."

Setup: jobs shaped as chains, fans, and diamonds on one idle T3E; each
task runs STAGE_S seconds.  Because the machine is idle and wide enough,
makespan should equal (critical path length x stage time) plus a small,
per-dependency-edge constant of NJS overhead.

Expected shape: chain makespan grows linearly with depth; a fan of width
w costs ~one stage (parallel delivery) while a chain of length w costs
~w stages; measured NJS overhead per edge is constant and small.
"""

import pytest

from benchmarks._util import print_table, single_site_session
from repro.ajo import critical_path_length
from repro.client import JobMonitorController, JobPreparationAgent
from repro.resources import ResourceRequest

STAGE_S = 300.0
CPUS = 4  # 128 tasks x 4 cpus < 512: width never binds


def _run_shape(name: str, shape: str, n: int) -> tuple[float, int, float]:
    """Returns (makespan, edges, critical_path_stages)."""
    grid, user, session = single_site_session(seed=5)
    jpa = JobPreparationAgent(session)
    jmc = JobMonitorController(session)
    session.client.poll_interval_s = 10.0
    job = jpa.new_job(name, vsite="FZJ-T3E")

    def task(label):
        return job.script_task(
            label, script="#!/bin/sh\nstage\n",
            resources=ResourceRequest(cpus=CPUS, time_s=STAGE_S * 3),
            simulated_runtime_s=STAGE_S,
        )

    if shape == "chain":
        prev = None
        for i in range(n):
            t = task(f"c{i}")
            if prev is not None:
                job.depends(prev, t)
            prev = t
    elif shape == "fan":
        src = task("src")
        sink = task("sink")
        for i in range(n):
            mid = task(f"f{i}")
            job.depends(src, mid)
            job.depends(mid, sink)
    elif shape == "diamond":
        # n layered diamonds in sequence.
        prev = task("start")
        for i in range(n):
            left, right = task(f"l{i}"), task(f"r{i}")
            join = task(f"j{i}")
            job.depends(prev, left)
            job.depends(prev, right)
            job.depends(left, join)
            job.depends(right, join)
            prev = join

    edges = len(job.ajo.dependencies)
    stages = critical_path_length(job.ajo)

    def scenario(sim):
        t0 = sim.now
        job_id = yield from jpa.submit(job)
        final = yield from jmc.wait_for_completion(job_id)
        assert final.status == "successful"
        return sim.now - t0

    process = grid.sim.process(scenario(grid.sim))
    makespan = grid.sim.run(until=process)
    return makespan, edges, stages


@pytest.mark.benchmark(group="E7-dag-scheduling")
def test_e7_sequenced_delivery(benchmark):
    cases = [
        ("chain", 1), ("chain", 4), ("chain", 8), ("chain", 16),
        ("fan", 4), ("fan", 16), ("fan", 32),
        ("diamond", 2), ("diamond", 4),
    ]
    results = {}

    def run():
        for shape, n in cases:
            results[(shape, n)] = _run_shape(f"{shape}{n}", shape, n)

    benchmark.pedantic(run, rounds=1, iterations=1)

    rows = []
    overheads = []
    for (shape, n), (makespan, edges, stages) in results.items():
        ideal = stages * STAGE_S
        overhead = makespan - ideal
        per_edge = overhead / edges if edges else float("nan")
        if edges:
            overheads.append(per_edge)
        rows.append((
            f"{shape}({n})", f"{stages:.0f}", edges,
            f"{makespan:9.1f}", f"{ideal:9.1f}",
            f"{overhead:7.2f}", f"{per_edge:7.3f}" if edges else "-",
        ))
    print_table(
        f"E7: DAG delivery on an idle T3E (stage = {STAGE_S:.0f}s)",
        ["shape", "crit.path", "edges", "makespan", "ideal", "overhead",
         "ovh/edge"],
        rows,
    )

    # Chain scales linearly with depth.
    chain = {n: results[("chain", n)][0] for n in (1, 4, 8, 16)}
    assert chain[16] / chain[1] == pytest.approx(16, rel=0.15)
    # Fans deliver in parallel: width-32 fan ~ 3 stages, not 34.
    fan32 = results[("fan", 32)][0]
    assert fan32 < 4 * STAGE_S
    # NJS overhead per dependency edge is bounded by a couple of seconds
    # (incarnation + status-poll quantization), and total sequencing
    # overhead stays under 5% of every job's makespan.
    assert max(overheads) < 2.0
    for (_shape, _n), (makespan, _edges, stages) in results.items():
        assert makespan - stages * STAGE_S < 0.05 * makespan
