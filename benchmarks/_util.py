"""Shared helpers for the benchmark harness.

Each ``bench_*.py`` regenerates one experiment from DESIGN.md section 5,
at the one size EXPERIMENTS.md reports, and asserts its expected shape:
those assertions are the experiment's only gate.  Simulation-clock
experiments print their table from a single simulated run (wrapped in
``benchmark.pedantic(rounds=1)`` so they appear in the pytest-benchmark
report); implementation-cost experiments use pytest-benchmark in the
ordinary way.

Run every experiment (what CI runs):  pytest -q benchmarks/ --benchmark-disable
With the tables and timings:          pytest benchmarks/ --benchmark-only -s
"""

from __future__ import annotations

import typing

from repro.client import JobMonitorController, JobPreparationAgent
from repro.grid import build_grid
from repro.resources import ResourceRequest

__all__ = [
    "print_table",
    "single_site_session",
    "run_simple_job",
]


def print_table(
    title: str,
    headers: typing.Sequence[str],
    rows: typing.Sequence[typing.Sequence[object]],
) -> None:
    """A plain fixed-width table, like the paper era's tooling."""
    widths = [
        max(len(str(h)), *(len(f"{row[i]}") for row in rows)) if rows else len(str(h))
        for i, h in enumerate(headers)
    ]
    print(f"\n=== {title} ===")
    print("  ".join(
        str(h).ljust(w) for h, w in zip(headers, widths, strict=True)
    ))
    print("  ".join("-" * w for w in widths))
    for row in rows:
        print("  ".join(
            f"{cell}".ljust(w) for cell, w in zip(row, widths, strict=False)
        ))


def single_site_session(seed: int = 0, machine: str = "FZJ-T3E", site: str = "FZJ"):
    """A one-site grid with a connected user; returns (grid, user, session)."""
    grid = build_grid({site: [machine]}, seed=seed)
    user = grid.add_user("Bench User", logins={site: "bench"})
    session = grid.connect_user(user, site)
    return grid, user, session


def run_simple_job(
    grid, session, name: str, vsite: str, runtime_s: float = 600.0,
    cpus: int = 8, poll_interval_s: float = 30.0,
):
    """Submit one script-task job and wait for completion; returns the
    (job_id, final_status_tree) pair."""
    jpa = JobPreparationAgent(session)
    jmc = JobMonitorController(session)
    session.client.poll_interval_s = poll_interval_s
    job = jpa.new_job(name, vsite=vsite)
    job.script_task(
        "work", script="#!/bin/sh\n./app\n",
        resources=ResourceRequest(cpus=cpus, time_s=max(60.0, runtime_s * 3)),
        simulated_runtime_s=runtime_s,
    )

    def scenario(sim):
        job_id = yield from jpa.submit(job)
        final = yield from jmc.wait_for_completion(job_id)
        return job_id, final

    process = grid.sim.process(scenario(grid.sim))
    return grid.sim.run(until=process)
