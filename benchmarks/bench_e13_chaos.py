"""E13 — chaos sweep: completion and turnaround under injected faults.

The resilience claim of the fault subsystem: with deterministic faults
injected across the six-site production grid — lossy links, latency
spikes, gateway and NJS crash-restarts, Vsite outages, node failures —
jobs submitted through the :class:`repro.api.GridSession` facade still
complete, because every layer has a recovery mechanism (protocol
retries + circuit breaker, broker failover, NJS journal replay, batch
resubmission and outage queueing).

Setup: one arm per fault intensity.  Each arm builds a fresh grid,
arms a :class:`~repro.faults.FaultPlan` at that intensity, submits a
fixed batch of jobs spread across the fault window, and waits for all
of them.  Turnaround is measured from the per-job trace (``client.submit``
start to the last ``njs.job`` end — replays reopen the job span in the
same trace).

Expected shape: intensity 0 matches the clean E1 pipeline exactly (no
faults, no recoveries, everything completes).  At moderate intensity
(1.0) at least 95% of jobs complete, with recovery events visible in
the metrics and traces; turnaround p99 degrades gracefully rather than
jobs being lost.
"""

import pytest

from benchmarks._util import print_table
from repro.api import GridSession
from repro.faults import FaultInjector, FaultPlan, FaultTargets
from repro.grid import build_german_grid
from repro.observability import telemetry_for

JOB_RUNTIME_S = 600.0
SUBMIT_SPACING_S = 300.0
HORIZON_S = 2 * 3600.0
SEED = 113

INTENSITIES = (0.0, 0.5, 1.0, 2.0)
JOBS = 10

#: Recovery activity counted per arm (all zero on a healthy grid).
RECOVERY_COUNTERS = (
    "njs.journal_replays",
    "njs.task_resubmissions",
    "njs.task_retry_waits",
    "njs.dropped_peer_messages",
    "gateway.dropped_requests",
    "resilience.breaker_open",
    "api.failovers",
    "api.wait_retries",
    "client.stale_status_serves",
)


def _turnaround_s(tracer, handle) -> float | None:
    trace = tracer.trace(handle.trace_id)
    if trace is None:
        return None
    starts = [s.start for s in trace.spans if s.name == "client.submit"]
    ends = [s.end for s in trace.spans
            if s.name == "njs.job" and s.end is not None]
    if not starts or not ends:
        return None
    return max(ends) - min(starts)


def _run_arm(intensity: float, jobs: int) -> dict:
    grid = build_german_grid(seed=SEED)
    user = grid.add_user(
        "Chaos Bench", organization="GMD",
        logins={name: "chaos" for name in grid.usites},
    )
    plan = FaultPlan.generate(
        FaultTargets.from_grid(grid), intensity=intensity,
        seed=SEED, horizon_s=HORIZON_S,
    )
    FaultInjector(grid, plan).arm()
    session = GridSession(grid, user, "FZJ")

    handles = []
    for i in range(jobs):
        job = session.new_job(f"chaos-{i}")
        job.script_task("work", "#!/bin/sh\n./app\n",
                        simulated_runtime_s=JOB_RUNTIME_S)
        handles.append(session.submit(job))
        session.advance(SUBMIT_SPACING_S)
    finals = [session.wait(h) for h in handles]

    telemetry = telemetry_for(grid.sim)
    completed = sum(1 for v in finals if v.status == "successful")
    turnarounds = sorted(
        t for h in handles
        if (t := _turnaround_s(telemetry.tracer, h)) is not None
    )
    recoveries = sum(
        telemetry.metrics.counter(name).value for name in RECOVERY_COUNTERS
    )
    replay_spans = sum(
        1 for h in handles
        if (tr := telemetry.tracer.trace(h.trace_id)) is not None
        and any(s.name == "njs.replay" for s in tr.spans)
    )

    def pctl(q: float) -> float:
        if not turnarounds:
            return float("nan")
        return turnarounds[min(len(turnarounds) - 1,
                               int(q * (len(turnarounds) - 1) + 0.999))]

    return {
        "intensity": intensity,
        "faults": len(plan),
        "injected": telemetry.metrics.counter("faults.injected").value,
        "completed": completed,
        "jobs": jobs,
        "rate": completed / jobs,
        "p50_s": pctl(0.50),
        "p99_s": pctl(0.99),
        "recoveries": recoveries,
        "replayed_jobs": replay_spans,
    }


@pytest.mark.benchmark(group="E13-chaos")
def test_e13_chaos_sweep(benchmark):
    arms: list[dict] = []

    def run():
        arms.clear()
        for intensity in INTENSITIES:
            arms.append(_run_arm(intensity, JOBS))

    benchmark.pedantic(run, rounds=1, iterations=1)

    print_table(
        f"E13: fault-intensity sweep — {JOBS} jobs of {JOB_RUNTIME_S:.0f}s, "
        f"{HORIZON_S/3600:.0f}h fault window, seed {SEED}",
        ["intensity", "faults", "applied", "done", "rate",
         "p50 [s]", "p99 [s]", "recoveries", "replayed"],
        [
            (f"{a['intensity']:.1f}", a["faults"], f"{a['injected']:.0f}",
             f"{a['completed']}/{a['jobs']}", f"{a['rate']:.2f}",
             f"{a['p50_s']:7.1f}", f"{a['p99_s']:7.1f}",
             f"{a['recoveries']:.0f}", a["replayed_jobs"])
            for a in arms
        ],
    )

    by_intensity = {a["intensity"]: a for a in arms}
    clean = by_intensity[0.0]
    moderate = by_intensity[1.0]

    # Zero intensity is the control arm: the E1 pipeline, untouched.
    assert clean["faults"] == 0 and clean["injected"] == 0
    assert clean["rate"] == 1.0
    assert clean["recoveries"] == 0
    # Clean turnaround is the job runtime plus middleware overhead and
    # poll granularity — nowhere near a retry or crash window.
    assert clean["p99_s"] < JOB_RUNTIME_S + 120.0

    # The headline gate: moderate chaos, >= 95% completion, visible
    # recovery work rather than silent luck.
    assert moderate["rate"] >= 0.95
    assert moderate["recoveries"] > 0
    # Degradation is graceful: faults cost time, not jobs.
    assert moderate["p99_s"] >= clean["p99_s"]
