"""Randomized end-to-end property: any valid job reaches a consistent
terminal state.

Hypothesis generates random (valid) job shapes — tasks, sub-groups,
forward-only dependencies, mixed failure injection via nonexistent
imports — submits them through the full stack, and checks the global
invariants:

* the job reaches a terminal status;
* outcome statuses are consistent (successors of failures NOT_ATTEMPTED,
  successful groups have no failed children);
* no batch record is left non-terminal;
* jobs are conserved (everything consigned is accounted for).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ajo import ActionStatus
from repro.analysis import AnalysisContext, AnalysisError, analyze_ajo
from repro.client import JobMonitorController, JobPreparationAgent
from repro.grid import build_grid


@st.composite
def job_plans(draw):
    """A compact random plan: list of (kind, fails?) plus random edges."""
    n = draw(st.integers(1, 5))
    tasks = [
        (
            draw(st.sampled_from(["script", "import", "export"])),
            draw(st.booleans()),
        )
        for _ in range(n)
    ]
    edges = []
    for j in range(1, n):
        for i in range(j):
            if draw(st.integers(0, 3)) == 0:
                edges.append((i, j))
    has_remote = draw(st.booleans())
    return tasks, edges, has_remote


@given(job_plans())
@settings(max_examples=25, deadline=None)
def test_any_valid_job_terminates_consistently(plan):
    tasks, edges, has_remote = plan
    grid = build_grid({"FZJ": ["FZJ-T3E"], "ZIB": ["ZIB-SP2"]}, seed=61)
    user = grid.add_user("Rand", logins={"FZJ": "r", "ZIB": "rb"})
    session = grid.connect_user(user, "FZJ")
    jpa = JobPreparationAgent(session)
    jmc = JobMonitorController(session)
    session.client.poll_interval_s = 60.0

    # Seed Xspace inputs for the non-failing imports.
    grid.usites["FZJ"].xspace.fs.write("/in/ok.dat", b"seed")

    job = jpa.new_job("random-job", vsite="FZJ-T3E")
    built = []
    for i, (kind, fails) in enumerate(tasks):
        if kind == "script":
            t = job.script_task(
                f"t{i}", script="#!/bin/sh\nx\n",
                simulated_runtime_s=30.0,
            )
        elif kind == "import":
            src = "/in/missing.dat" if fails else "/in/ok.dat"
            t = job.import_from_xspace(src, f"in{i}.dat", name=f"t{i}")
        else:
            # Exports fail when their source was never produced.
            src = f"ghost{i}.dat" if fails else f"made{i}.dat"
            t = job.export_to_xspace(src, f"/out/{i}.dat", name=f"t{i}")
        built.append(t)
    for i, j in edges:
        # Annotate some edges with files so producers materialize them.
        files = [f"made{j}.dat"] if tasks[j][0] == "export" and not tasks[j][1] else []
        job.depends(built[i], built[j], files=files)
    if has_remote:
        sb = job.sub_job("remote", vsite="ZIB-SP2", usite="ZIB")
        sb.script_task("rt", script="#!/bin/sh\nx\n", simulated_runtime_s=30.0)

    def scenario(sim):
        job_id = yield from jpa.submit(job)
        final = yield from jmc.wait_for_completion(job_id)
        outcome = yield from jmc.outcome(job_id)
        return job_id, final, outcome

    # The static analyzer's verdict decides the property being checked:
    # plans with dataflow errors (ghost exports, write-write races on a
    # shared made-file) must be rejected at submit time with a stable
    # code; clean plans must run to a consistent terminal state.
    report = analyze_ajo(job.ajo, AnalysisContext.for_session(session))
    if not report.ok:
        p = grid.sim.process(scenario(grid.sim))
        with pytest.raises(AnalysisError) as exc_info:
            grid.sim.run(until=p)
        assert exc_info.value.code.startswith("AJO")
        assert exc_info.value.report.errors
        # Rejected client-side: nothing may have reached the NJS.
        assert grid.usites["FZJ"].njs.job_count == 0
        return

    p = grid.sim.process(scenario(grid.sim))
    job_id, final, outcome = grid.sim.run(until=p)

    # 1. Terminal.
    assert final.status in ("successful", "failed", "killed")
    assert outcome.rollup_status().is_terminal

    # 2. Consistency: failed predecessors imply NOT_ATTEMPTED successors.
    statuses = {t.id: outcome.child(t.id).status for t in built}
    pred_of = {}
    for i, j in edges:
        pred_of.setdefault(built[j].id, []).append(built[i].id)
    for t in built:
        for pred in pred_of.get(t.id, []):
            if statuses[pred] in (
                ActionStatus.FAILED, ActionStatus.NOT_ATTEMPTED,
                ActionStatus.KILLED,
            ):
                assert statuses[t.id] is ActionStatus.NOT_ATTEMPTED

    # 3. Batch records all terminal.
    for usite in grid.usites.values():
        for vsite in usite.vsites.values():
            assert all(r.state.is_terminal for r in vsite.batch.all_records())

    # 4. Conservation: exactly one job known at FZJ for this user.
    assert grid.usites["FZJ"].njs.job_count == 1
