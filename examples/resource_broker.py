#!/usr/bin/env python
"""The section-6 resource broker, with accounting, on a loaded grid.

The paper's outlook: "the broker finds the appropriate execution server
... Together with accounting functions and load information the resource
broker can find the best system for an application with given time
constraints."

This example loads the FZJ T3E with site-local jobs, then lets the broker
place ten UNICORE jobs across the German grid by estimated turnaround.
One :class:`repro.api.GridSession` submits everywhere: the facade opens
sessions to the other gateways on demand.  It prints where each job went
and the accounting totals afterwards.

Run:  python examples/resource_broker.py
"""

from repro import GridSession
from repro.broker import ResourceBroker
from repro.ext import AccountingLog
from repro.grid import LocalLoadGenerator, WorkloadProfile, build_german_grid
from repro.resources import ResourceRequest
from repro.simkernel import derive_rng


def main() -> None:
    grid = build_german_grid(seed=17)
    logins = {name: "weiss" for name in grid.usites}
    user = grid.add_user("Dr. Weiss", organization="GMD", logins=logins)

    # Heavy local load on the FZJ T3E — its own users come first.
    fzj_batch = grid.usites["FZJ"].vsites["FZJ-T3E"].batch
    LocalLoadGenerator(
        grid.sim, fzj_batch, derive_rng(17, "local-load"),
        arrival_rate_per_s=1 / 120.0,
        profile=WorkloadProfile(mean_runtime_s=7200.0, max_cpus=256),
        horizon_s=4 * 3600.0,
    )
    grid.sim.run(until=3600.0)  # let the backlog build for an hour

    broker = ResourceBroker.for_grid(
        grid,
        cost_per_cpu_hour={
            "FZJ-T3E": 1.0, "RUS-T3E": 1.0, "RUKA-SP2": 0.6,
            "ZIB-SP2": 0.6, "LRZ-VPP": 3.0, "DWD-SX4": 4.0,
        },
    )
    session = GridSession(grid, user, "FZJ")

    # Submit all ten back to back: each placement sees the backlog the
    # previous ones created (that's the "load information").
    placements = []
    handles = []
    for i in range(10):
        request = ResourceRequest(cpus=16, time_s=7200, memory_mb=2048)
        decision = broker.choose(request, baseline_runtime_s=1800.0)
        placements.append(decision)
        job = session.new_job(
            f"brokered-{i}", vsite=decision.vsite, usite=decision.usite
        )
        job.script_task(
            "work", script="#!/bin/sh\n./app\n",
            resources=request, simulated_runtime_s=1800.0,
        )
        handles.append(session.submit(job))
    for handle in handles:
        session.wait(handle)

    print("broker placements (with the T3E under heavy local load):")
    for i, d in enumerate(placements):
        print(f"  job {i}: {d.vsite:9} est wait {d.estimated_wait_s:8.0f}s  "
              f"est run {d.estimated_runtime_s:6.0f}s  rate {d.cost_rate:.1f}")

    log = AccountingLog(cost_per_cpu_hour=broker._cost)
    for usite in grid.usites.values():
        for vname, vsite in usite.vsites.items():
            log.charge_all(vname, vsite.batch.all_records())
    print("\naccounting: cpu-hours by vsite")
    for vsite, hours in sorted(log.cpu_hours_by_vsite().items()):
        print(f"  {vsite:9} {hours:10.1f}")
    weiss = log.cost_by_user().get("weiss", 0.0)
    print(f"\nDr. Weiss's bill: {weiss:.1f} units "
          f"({log.cpu_hours_by_user().get('weiss', 0):.1f} cpu-hours)")


if __name__ == "__main__":
    main()
