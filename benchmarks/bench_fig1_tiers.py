"""E1 — Figure 1: per-tier latency breakdown of one end-to-end job.

Paper artifact: the three-tier architecture diagram.  The measured claim:
the user and server tiers (UNICORE's additions) cost little next to the
batch tier — "the effort to learn how to use them is minimal" only pays
off if the middleware itself is cheap.

Expected shape: middleware overhead (handshake, applet load, consignment,
gateway auth, incarnation, outcome return) is a small fraction of batch
wait + execution for any realistically sized job.

The breakdown is derived from the per-job trace
(:meth:`TierTimes.from_trace`), not from hand-placed timers: the same
spans the ``repro trace`` CLI renders.
"""

import pytest

from benchmarks._util import print_table
from repro.client import JobMonitorController, JobPreparationAgent
from repro.grid import build_grid
from repro.grid.metrics import TierTimes
from repro.observability import telemetry_for
from repro.resources import ResourceRequest

#: Simulated execution times measured.
RUNTIMES = (60.0, 600.0, 6000.0)


def _measure(runtime_s: float) -> TierTimes:
    grid = build_grid({"FZJ": ["FZJ-T3E"]}, seed=1)
    user = grid.add_user("Tier User", logins={"FZJ": "tier"})
    sim = grid.sim
    session = grid.connect_user(user, "FZJ")

    jpa = JobPreparationAgent(session)
    jmc = JobMonitorController(session)
    session.client.poll_interval_s = 30.0
    job = jpa.new_job("tiered", vsite="FZJ-T3E")
    job.script_task(
        "work", script="#!/bin/sh\n./app\n",
        resources=ResourceRequest(cpus=16, time_s=max(60.0, runtime_s * 3)),
        simulated_runtime_s=runtime_s,
    )

    def scenario(sim):
        job_id = yield from jpa.submit(job)
        yield from jmc.wait_for_completion(job_id)
        yield from jmc.outcome(job_id)
        return job_id

    job_id = sim.run(until=sim.process(scenario(sim)))
    sim.run()

    tracer = telemetry_for(sim).tracer
    return TierTimes.from_trace(
        tracer.trace(job_id), session_trace=tracer.trace(session.trace_id)
    )


@pytest.mark.benchmark(group="E1-fig1-tiers")
def test_e1_tier_breakdown(benchmark):
    results = {}

    def run():
        for runtime in RUNTIMES:
            results[runtime] = _measure(runtime)

    benchmark.pedantic(run, rounds=1, iterations=1)

    rows = []
    for runtime, times in results.items():
        for label, value in times.rows():
            rows.append((f"{runtime:.0f}s job", label, f"{value:10.3f}"))
        overhead = times.middleware_total()
        busy = times.batch_wait_s + times.execution_s
        rows.append(
            (f"{runtime:.0f}s job", "MIDDLEWARE / BATCH",
             f"{overhead:8.2f} / {busy:8.2f} ({overhead / busy:6.1%})")
        )
    print_table(
        "E1: per-tier latency breakdown (simulated seconds)",
        ["job", "tier component", "seconds"],
        rows,
    )

    # Shape assertions: middleware is small and does not grow with the job.
    overheads = [t.middleware_total() for t in results.values()]
    assert max(overheads) - min(overheads) < 0.5 * max(overheads) + 5.0
    for times in results.values():
        assert times.execution_s > 0.0
        assert times.middleware_total() > 0.0
    long_job = results[6000.0]
    assert long_job.middleware_total() < 0.05 * (
        long_job.batch_wait_s + long_job.execution_s
    )
    # Auth is real but bounded; incarnation is trivial next to handshake.
    assert long_job.incarnation_s < long_job.handshake_s
