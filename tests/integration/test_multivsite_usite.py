"""Section 4.3: 'One NJS can support multiple destination systems
(Vsites) at one UNICORE site.'  Job groups for different Vsites of the
same Usite run locally (no NJS-to-NJS forwarding), with dependency files
staged between the Vsites' Uspaces as local copies."""

import pytest

from repro.ajo import ActionStatus
from repro.client import JobMonitorController, JobPreparationAgent
from repro.grid import build_grid


@pytest.fixture()
def fzj_two_vsites():
    # One Usite offering both a T3E and an SX-4 behind a single NJS.
    grid = build_grid({"FZJ": ["FZJ-T3E", "DWD-SX4"]}, seed=67)
    user = grid.add_user("Multi", logins={"FZJ": "multi"})
    session = grid.connect_user(user, "FZJ")
    return grid, user, session


def test_resource_pages_for_both_vsites(fzj_two_vsites):
    grid, user, session = fzj_two_vsites
    assert set(session.resource_pages) == {"FZJ-T3E", "DWD-SX4"}
    assert session.resource_pages["DWD-SX4"].architecture == "NEC SX-4"


def test_cross_vsite_pipeline_within_one_usite(fzj_two_vsites):
    grid, user, session = fzj_two_vsites
    jpa = JobPreparationAgent(session)
    jmc = JobMonitorController(session)

    # Main run on the T3E, vector post-processing on the SX-4 — same site.
    root = jpa.new_job("hybrid", vsite="FZJ-T3E")
    main_run = root.script_task(
        "solve", script="#!/bin/sh\nsolve\n", simulated_runtime_s=200.0
    )
    post = root.sub_job("vector-post", vsite="DWD-SX4", usite="FZJ")
    render = post.script_task(
        "vectorize", script="#!/bin/sh\nvec field.dat\n",
        simulated_runtime_s=100.0,
    )
    root.depends(main_run, post.ajo, files=["field.dat"])

    def scenario(sim):
        job_id = yield from jpa.submit(root)
        final = yield from jmc.wait_for_completion(job_id)
        outcome = yield from jmc.outcome(job_id)
        return job_id, final, outcome

    p = grid.sim.process(scenario(grid.sim))
    job_id, final, outcome = grid.sim.run(until=p)
    assert final["status"] == "successful"
    sub_outcome = outcome.child(post.ajo.id)
    assert sub_outcome.child(render.id).status is ActionStatus.SUCCESSFUL

    usite = grid.usites["FZJ"]
    # No forwarding happened: both parts ran under this NJS.
    assert usite.njs.forwarding.forwarded_groups == 0
    # Both machines executed work, in their own dialects.
    t3e = usite.vsites["FZJ-T3E"].batch.all_records()
    sx4 = usite.vsites["DWD-SX4"].batch.all_records()
    assert len(t3e) == 1 and "#QSUB" in t3e[0].spec.script
    assert len(sx4) == 1 and "#QSUB" in sx4[0].spec.script
    # The dependency file crossed from the T3E uspace to the SX-4 uspace.
    run = usite.njs.get_run(job_id)
    sx4_uspace = run.uspaces[post.ajo.id]
    assert sx4_uspace.exists("field.dat")
    # Sequencing respected: the SX-4 job started after the T3E job ended.
    assert sx4[0].submit_time >= t3e[0].end_time


def test_vsite_specific_uudb_mapping_applies(fzj_two_vsites):
    grid, user, session = fzj_two_vsites
    # Different login on the SX-4 partition.
    grid.usites["FZJ"].add_user(
        user.browser.user_cert.subject, "multi_sx", vsite="DWD-SX4"
    )
    jpa = JobPreparationAgent(session)
    jmc = JobMonitorController(session)
    root = jpa.new_job("split-identity", vsite="FZJ-T3E")
    root.script_task("a", script="#!/bin/sh\nx\n", simulated_runtime_s=10.0)
    sub = root.sub_job("on-sx4", vsite="DWD-SX4", usite="FZJ")
    sub.script_task("b", script="#!/bin/sh\nx\n", simulated_runtime_s=10.0)

    def scenario(sim):
        job_id = yield from jpa.submit(root)
        final = yield from jmc.wait_for_completion(job_id)
        return final

    p = grid.sim.process(scenario(grid.sim))
    assert grid.sim.run(until=p)["status"] == "successful"
    usite = grid.usites["FZJ"]
    assert usite.vsites["FZJ-T3E"].batch.all_records()[0].spec.owner == "multi"
    assert usite.vsites["DWD-SX4"].batch.all_records()[0].spec.owner == "multi_sx"
