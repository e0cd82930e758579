"""E11 — section 6 outlook, ablation: does a resource broker help?

Paper motivation: without a broker, users pick destinations by habit —
"scientists often continue to work at the site and on the system they
know" (section 1), causing "sub-optimal use of expensive resources".

Setup: the FZJ T3E carries heavy local load while the rest of the grid
is quiet.  Twenty UNICORE jobs are placed (a) the habit way — always the
home T3E — and (b) by the section-6 broker using live load information.
A third arm repeats both under *uniform* load everywhere.

The **brokered federation** arm goes further than the one-shot
placement broker: every Usite runs two load-balanced gateways, jobs
enter the :class:`~repro.broker.service.FederationBroker` task queue
*without* a destination, and binding happens at dispatch time against
capacity reports the broker polls from every site, under fair-share
quotas; a steal is a RECLAIM sent through the job owner's session.  It measures
makespan against habit placement and Jain's fairness index across
users, with one deliberately over-quota user exercising the
``broker.quota_exceeded`` rejection path.  Fairness is judged on a
*contended* run (10 jobs per user), where the queue the broker keeps
matters: with 3 jobs per user every job finds a free slot at once, and
Jain's index reads ~1.0 whatever the matcher does.

Expected shape: under skewed load the broker cuts mean turnaround by a
large factor; under uniform load the two placements are comparable (the
broker cannot manufacture capacity, it can only avoid hotspots).  The
federation arm beats habit on makespan and serves users near-equally.
"""

import numpy as np
import pytest

from benchmarks._util import print_table
from repro.ajo.services import ControlVerb
from repro.broker import BrokerQuotaError, FairSharePolicy, attach_broker
from repro.broker.placement import ResourceBroker
from repro.client import JobMonitorController, JobPreparationAgent
from repro.grid import LocalLoadGenerator, WorkloadProfile, build_grid
from repro.resources import ResourceRequest
from repro.simkernel import derive_rng

SITES = {
    "FZJ": ["FZJ-T3E"], "RUS": ["RUS-T3E"],
    "RUKA": ["RUKA-SP2"], "ZIB": ["ZIB-SP2"],
}
N_JOBS = 20
RUNTIME = 1800.0


def _turnarounds(placement: str, skewed: bool) -> list[float]:
    grid = build_grid(SITES, seed=11)
    user = grid.add_user("Habit User", logins={s: "hab" for s in SITES})
    sessions = {s: grid.connect_user(user, s) for s in SITES}
    broker = ResourceBroker.for_grid(grid)

    load_profile = WorkloadProfile(mean_runtime_s=7200.0, max_cpus=256)
    load_sites = list(SITES) if not skewed else ["FZJ"]
    rate = 1 / 400.0 if skewed else 1 / 1600.0
    for site in load_sites:
        LocalLoadGenerator(
            grid.sim,
            grid.usites[site].vsites[SITES[site][0]].batch,
            derive_rng(11, f"load:{site}:{skewed}"),
            arrival_rate_per_s=rate,
            profile=load_profile,
            horizon_s=2 * 3600.0,
        )
    grid.sim.run(until=2 * 3600.0)  # build the backlog

    turnarounds = []

    def stream(sim):
        rng = derive_rng(11, f"jobs:{placement}:{skewed}")
        pending = []
        for i in range(N_JOBS):
            request = ResourceRequest(cpus=64, time_s=RUNTIME * 3,
                                      memory_mb=4096)
            if placement == "habit":
                site, vsite = "FZJ", "FZJ-T3E"
            else:
                decision = broker.choose(request, baseline_runtime_s=RUNTIME)
                site, vsite = decision.usite, decision.vsite
            session = sessions[site]
            jpa = JobPreparationAgent(session)
            job = jpa.new_job(f"{placement}{i}", vsite=vsite)
            job.script_task(
                "work", script="#!/bin/sh\n./app\n", resources=request,
                simulated_runtime_s=RUNTIME,
            )
            t0 = sim.now
            job_id = yield from jpa.submit(job)
            pending.append((session, job_id, t0))
            yield sim.timeout(float(rng.uniform(30.0, 120.0)))
        for session, job_id, t0 in pending:
            jmc = JobMonitorController(session)
            session.client.poll_interval_s = 120.0
            yield from jmc.wait_for_completion(job_id)
            turnarounds.append(sim.now - t0)

    grid.sim.run(until=grid.sim.process(stream(grid.sim)))
    return turnarounds


@pytest.mark.benchmark(group="E11-broker-ablation")
def test_e11_broker_vs_habit(benchmark):
    results = {}

    def run():
        for skewed in (True, False):
            for placement in ("habit", "broker"):
                results[(placement, skewed)] = _turnarounds(placement, skewed)

    benchmark.pedantic(run, rounds=1, iterations=1)

    rows = []
    means = {}
    for (placement, skewed), values in results.items():
        arr = np.asarray(values)
        means[(placement, skewed)] = float(arr.mean())
        rows.append((
            "skewed" if skewed else "uniform", placement,
            f"{arr.mean():9.0f}", f"{np.median(arr):9.0f}",
            f"{arr.max():9.0f}",
        ))
    print_table(
        f"E11: turnaround (s) of {N_JOBS} jobs, habit (home T3E) vs broker",
        ["load", "placement", "mean", "median", "max"],
        rows,
    )

    # Under skew the broker wins big.
    assert means[("broker", True)] < 0.5 * means[("habit", True)]
    # Under uniform load it does not *hurt* much (within 2x).
    assert means[("broker", False)] < 2.0 * means[("habit", False)]


# -- brokered federation: late binding, fair share, multi-gateway -----------

FEDERATION = {"users": 8, "jobs": 3, "runtime": RUNTIME, "backlog": 2 * 3600.0}
#: More jobs than the quiet sites run at once: who waits is the broker's call.
CONTENDED = {**FEDERATION, "jobs": 10}
#: Jain's index across the non-greedy users on the contended run.  It
#: reads 0.995; with the capacity reports' queue depth zeroed it falls
#: to 0.63, and without the matcher's fair-share re-ranking to 0.92.
FAIRNESS_MIN = 0.97


def _skew_fzj(grid, backlog_s, tag):
    # Heavy enough that the habit machine is saturated with hours of
    # queued local work when the UNICORE jobs arrive.
    LocalLoadGenerator(
        grid.sim,
        grid.usites["FZJ"].vsites["FZJ-T3E"].batch,
        derive_rng(11, f"fedload:{tag}"),
        arrival_rate_per_s=1 / 150.0,
        profile=WorkloadProfile(mean_runtime_s=7200.0, max_cpus=256),
        horizon_s=backlog_s,
    )
    grid.sim.run(until=backlog_s)


def _federation_grid(n_users, tag):
    grid = build_grid(SITES, seed=11, gateways=2)
    logins = {s: "fed" for s in SITES}
    users = [
        grid.add_user(f"Fed User {i} {tag}", logins=logins)
        for i in range(n_users)
    ]
    return grid, users


def _job_specs(params):
    return [
        (u, ResourceRequest(cpus=32, time_s=params["runtime"] * 3,
                            memory_mb=2048), params["runtime"])
        for u in range(params["users"])
        for _ in range(params["jobs"])
    ]


def _habit_makespan(params):
    """Everyone submits everything to the home T3E, through one session."""
    grid, users = _federation_grid(params["users"], "habit")
    sessions = [grid.connect_user(u, "FZJ") for u in users]
    _skew_fzj(grid, params["backlog"], "habit")
    t0 = grid.sim.now

    def one(i, user_idx, request, runtime):
        session = sessions[user_idx]
        jpa = JobPreparationAgent(session)
        jmc = JobMonitorController(session)
        session.client.poll_interval_s = 120.0
        job = jpa.new_job(f"habit{i}", vsite="FZJ-T3E")
        job.script_task(
            "work", script="#!/bin/sh\n./app\n", resources=request,
            simulated_runtime_s=runtime,
        )
        job_id = yield from jpa.submit(job)
        yield from jmc.wait_for_completion(job_id)

    procs = [
        grid.sim.process(one(i, user_idx, request, runtime))
        for i, (user_idx, request, runtime) in enumerate(_job_specs(params))
    ]
    for proc in procs:
        grid.sim.run(until=proc)
    return grid.sim.now - t0


def _federated_run(params):
    """Late binding through the FederationBroker across 2-gateway sites."""
    grid, users = _federation_grid(params["users"], "fed")
    greedy_dn = str(users[0].browser.user_cert.subject)
    broker = attach_broker(
        grid,
        policy=FairSharePolicy(
            default_max_active=100,
            # The greedy user's cap admits exactly their planned jobs;
            # everything they push beyond that is rejected up front.
            max_active={greedy_dn: params["jobs"]},
        ),
        advertise_interval_s=60.0,
        dispatch_interval_s=30.0,
    )
    sessions = {
        (i, site): grid.connect_user(u, site)
        for i, u in enumerate(users)
        for site in SITES
    }
    _skew_fzj(grid, params["backlog"], "fed")
    t0 = grid.sim.now

    def make_dispatch(i, user_idx, request, runtime):
        def dispatch(usite, vsite):
            session = sessions[(user_idx, usite)]
            jpa = JobPreparationAgent(session)
            job = jpa.new_job(f"fed{i}", vsite=vsite)
            job.script_task(
                "work", script="#!/bin/sh\n./app\n", resources=request,
                simulated_runtime_s=runtime,
            )
            return jpa.submit(job)

        return dispatch

    def make_reclaim(user_idx):
        def reclaim(usite, job_id):
            jmc = JobMonitorController(sessions[(user_idx, usite)])
            return jmc.control(job_id, ControlVerb.RECLAIM)

        return reclaim

    entries = []
    rejected = 0
    for i, (user_idx, request, runtime) in enumerate(_job_specs(params)):
        user_dn = str(users[user_idx].browser.user_cert.subject)
        entry = broker.submit(
            user_dn, f"fed{i}", request,
            dispatch=make_dispatch(i, user_idx, request, runtime),
            reclaim=make_reclaim(user_idx),
            bind_timeout_s=48 * 3600.0,
        )
        entry.meta["user"] = user_idx
        entries.append(entry)
    # The greedy user keeps pushing past their concurrency cap: every
    # extra submission is rejected up front with the stable code.
    for extra in range(3):
        try:
            broker.submit(
                greedy_dn, f"greedy-extra{extra}",
                ResourceRequest(cpus=32, time_s=params["runtime"] * 3),
                dispatch=make_dispatch(-1, 0, ResourceRequest(cpus=32),
                                       params["runtime"]),
                reclaim=make_reclaim(0),
            )
        except BrokerQuotaError:
            rejected += 1

    grid.sim.run(until=grid.sim.process(broker.drain(entries, poll_s=60.0)))
    makespan = grid.sim.now - t0
    return grid, broker, entries, makespan, rejected


def _jain(values):
    arr = np.asarray(values, dtype=float)
    return float(arr.sum() ** 2 / (len(arr) * (arr ** 2).sum()))


def _fairness(entries):
    """Jain's index of the non-greedy users' mean turnarounds."""
    by_user = {}
    for entry in entries:
        if entry.meta["user"] != 0:
            by_user.setdefault(entry.meta["user"], []).append(
                entry.done_at - entry.enqueued_at
            )
    return _jain([float(np.mean(v)) for v in by_user.values()])


@pytest.mark.benchmark(group="E11-broker-ablation")
def test_e11_federated_broker(benchmark):
    holder = {}

    def run():
        holder["habit"] = _habit_makespan(FEDERATION)
        (holder["grid"], holder["broker"], holder["entries"],
         holder["federated"], holder["rejected"]) = _federated_run(FEDERATION)
        holder["contended"] = _federated_run(CONTENDED)[2]

    benchmark.pedantic(run, rounds=1, iterations=1)
    grid, broker, entries = holder["grid"], holder["broker"], holder["entries"]
    counters = broker.counters()

    # Every accepted job finished; the greedy extras were all rejected
    # with the stable code and show up in the rejection counter.
    assert all(e.state.name == "DONE" for e in entries)
    assert holder["rejected"] == 3
    assert counters["rejections"] == 3

    # Late binding beats habit placement under skewed load.
    assert holder["federated"] < holder["habit"]
    assert counters["matches"] >= len(entries)

    # Both gateways of at least one load-balanced Usite served traffic.
    assert any(
        all(gw.requests_served > 0 for gw in usite.gateways)
        for usite in grid.usites.values()
    )

    # Fair share: per-user mean turnaround is near-uniform across the
    # non-greedy users (Jain's index of 1.0 = perfectly equal), also when
    # they wait for slots.
    jain = _fairness(entries)
    contended = _fairness(holder["contended"])
    assert contended >= FAIRNESS_MIN

    print_table(
        "E11+: brokered federation vs habit placement (skewed load)",
        ["arm", "makespan (s)", "matches", "steals", "rejections", "jain",
         "jain, 10 jobs/user"],
        [
            ("habit", f"{holder['habit']:9.0f}", "-", "-", "-", "-", "-"),
            ("federated", f"{holder['federated']:9.0f}",
             counters["matches"], counters["steals"],
             counters["rejections"], f"{jain:.3f}", f"{contended:.3f}"),
        ],
    )
