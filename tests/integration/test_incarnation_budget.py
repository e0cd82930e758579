"""What a dependency edge may add to a job's critical path: no incarnation.

Section 5.5 has the NJS sequence the *delivery* of a job's batch jobs.
Translating a task into its batch job (``njs.incarnate``, one
``INCARNATION_CPU_S`` timer) needs only the task, its Vsite and its
Uspace, so it runs as the task's group starts, beside its predecessors.
A chain of k tasks then runs its batch jobs back to back: each successor
is delivered the instant its predecessor ends.  The turnaround still
grows a little with k, because the consignment and the status tree that
carry the chain grow; that is less than half an incarnation per edge.
"""

import itertools

import pytest

from repro.api import GridSession
from repro.grid import build_grid
from repro.observability import telemetry_for
from repro.server.njs.executor import INCARNATION_CPU_S

#: Simulated runtime of every task of a chain.
RUNTIME_S = 100.0

#: Float slack on a sum of simulated seconds.
EPS = 1e-9

#: Queue entries from submit to the wait's reply, by chain length.  No
#: process start is one: a task's child process runs to its first yield
#: as its group starts.  A task adds its incarnation timer and its batch
#: run's end; its predecessor's ``done`` wakes it with no entry.
EVENTS = {1: 10, 2: 12, 4: 16}


def _chain(k):
    """Run a chain of ``k`` script tasks at one site; returns the turnaround
    minus the tasks' runtime, the queue entries it took, the incarnations
    made and the job's trace."""
    grid = build_grid({"FZJ": ["FZJ-T3E"]}, seed=16)
    user = grid.add_user("Chain Runner", logins={"FZJ": "chain"})
    session = GridSession(grid, user, "FZJ")
    job = session.new_job(f"chain{k}", "FZJ-T3E")
    prev = None
    for i in range(k):
        task = job.script_task(
            f"step{i}", "#!/bin/sh\nx\n", simulated_runtime_s=RUNTIME_S
        )
        if prev is not None:
            job.depends(prev, task)
        prev = task
    telemetry = telemetry_for(grid.sim)
    start, events = grid.sim.now, grid.sim.profile()["events_processed"]
    handle = session.submit(job)
    assert session.wait(handle).status == "successful"
    return (
        grid.sim.now - start - k * RUNTIME_S,
        grid.sim.profile()["events_processed"] - events,
        telemetry.metrics.counter_value("njs.incarnations"),
        telemetry.tracer.trace(handle.job_id),
    )


@pytest.fixture(scope="module")
def chains():
    return {k: _chain(k) for k in EVENTS}


@pytest.mark.parametrize("k", sorted(EVENTS))
def test_a_chain_runs_its_batch_jobs_back_to_back(chains, k):
    _, events, incarnations, trace = chains[k]
    runs = trace.find("batch.execute")
    assert len(runs) == k
    assert runs[-1].end - runs[0].start == pytest.approx(k * RUNTIME_S, abs=EPS)
    for pred, succ in itertools.pairwise(runs):
        assert succ.start == pytest.approx(pred.end, abs=EPS)
    # One translation per task, and the overlap costs no queue entry.
    assert incarnations == k
    assert events == EVENTS[k]


@pytest.mark.parametrize("k", sorted(EVENTS))
def test_a_successor_is_incarnated_while_its_predecessor_runs(chains, k):
    _, _, _, trace = chains[k]
    runs = trace.find("batch.execute")
    incarnations = trace.find("njs.incarnate")
    for pred, succ_incarnation in zip(runs[:-1], incarnations[1:], strict=True):
        assert succ_incarnation.end < pred.end


def test_an_edge_adds_less_than_half_an_incarnation(chains):
    single = chains[1][0]
    for k in sorted(EVENTS)[1:]:
        per_edge = (chains[k][0] - single) / (k - 1)
        assert 0 < per_edge < INCARNATION_CPU_S / 2
