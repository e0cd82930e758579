"""Figure 2 reproduction: multiple interconnected Usites exchanging
(parts of) UNICORE jobs, data, and control information."""

import pytest

from repro.ajo import ActionStatus
from repro.client import JobMonitorController, JobPreparationAgent
from repro.grid import build_german_grid, build_grid


@pytest.fixture()
def two_sites():
    grid = build_grid({"FZJ": ["FZJ-T3E"], "ZIB": ["ZIB-SP2"]}, seed=13)
    user = grid.add_user(
        "Clara Schmidt",
        organization="FZ Juelich",
        logins={"FZJ": "clara", "ZIB": "cschmidt"},
    )
    session = grid.connect_user(user, "FZJ")
    return grid, user, session


def test_multisite_pipeline_with_file_transfer(two_sites):
    """Pre-process at FZJ, post-process at ZIB, data handed over by the
    NJS-to-NJS dependency-file mechanism."""
    grid, user, session = two_sites
    jpa = JobPreparationAgent(session)
    jmc = JobMonitorController(session)

    root = jpa.new_job("coupled", vsite="FZJ-T3E")
    pre = root.script_task(
        "preprocess", script="#!/bin/sh\nprep\n", simulated_runtime_s=600.0
    )
    post_group = root.sub_job("postprocess@ZIB", vsite="ZIB-SP2", usite="ZIB")
    post = post_group.script_task(
        "render", script="#!/bin/sh\nrender field.dat\n",
        simulated_runtime_s=300.0,
    )
    root.depends(pre, post_group.ajo, files=["field.dat"])

    def scenario(sim):
        job_id = yield from jpa.submit(root)
        final = yield from jmc.wait_for_completion(job_id)
        outcome = yield from jmc.outcome(job_id)
        return job_id, final, outcome

    p = grid.sim.process(scenario(grid.sim))
    job_id, final, outcome = grid.sim.run(until=p)

    assert final["status"] == "successful"
    # The remote group's outcome was merged back into the job tree.
    sub_outcome = outcome.child(post_group.ajo.id)
    assert sub_outcome.rollup_status() is ActionStatus.SUCCESSFUL
    assert sub_outcome.child(post.id).status is ActionStatus.SUCCESSFUL
    # The ZIB SP-2 really executed the render task under the ZIB login.
    zib_batch = grid.usites["ZIB"].vsites["ZIB-SP2"].batch
    records = zib_batch.all_records()
    assert len(records) == 1
    assert records[0].spec.owner == "cschmidt"
    assert "#@" in records[0].spec.script  # LoadLeveler dialect
    # The FZJ side ran the preprocess under the FZJ login.
    fzj_batch = grid.usites["FZJ"].vsites["FZJ-T3E"].batch
    assert fzj_batch.all_records()[0].spec.owner == "clara"
    # The dependency file was materialized at ZIB before the render ran.
    assert grid.usites["FZJ"].njs.forwarding.forwarded_groups == 1


def test_transfer_task_moves_uspace_data_between_sites(two_sites):
    grid, user, session = two_sites
    jpa = JobPreparationAgent(session)
    jmc = JobMonitorController(session)

    root = jpa.new_job("xfer", vsite="FZJ-T3E")
    work = root.script_task(
        "produce", script="#!/bin/sh\nmake data\n", simulated_runtime_s=60.0
    )
    remote = root.sub_job("consume@ZIB", vsite="ZIB-SP2", usite="ZIB")
    remote.script_task(
        "consume", script="#!/bin/sh\nread big.dat\n", simulated_runtime_s=60.0
    )
    xfer = root.transfer_to_usite("big.dat", "ZIB")
    root.depends(work, xfer, files=["big.dat"])
    root.depends(xfer, remote.ajo)

    def scenario(sim):
        job_id = yield from jpa.submit(root)
        final = yield from jmc.wait_for_completion(job_id)
        outcome = yield from jmc.outcome(job_id)
        return final, outcome, xfer.id

    p = grid.sim.process(scenario(grid.sim))
    final, outcome, xfer_id = grid.sim.run(until=p)
    assert final["status"] == "successful"
    xfer_outcome = outcome.child(xfer_id)
    assert xfer_outcome.status is ActionStatus.SUCCESSFUL
    assert xfer_outcome.bytes_moved > 0
    assert xfer_outcome.effective_bandwidth > 0
    assert grid.usites["FZJ"].njs.forwarding.transfers_bytes == xfer_outcome.bytes_moved


def test_user_without_remote_mapping_fails_remote_group(two_sites):
    grid, user, session = two_sites
    dave = grid.add_user("Dave", logins={"FZJ": "dave"})  # no ZIB account
    d_session = grid.connect_user(dave, "FZJ")
    jpa = JobPreparationAgent(d_session)
    jmc = JobMonitorController(d_session)

    root = jpa.new_job("denied", vsite="FZJ-T3E")
    root.script_task("ok-here", script="#!/bin/sh\nx\n", simulated_runtime_s=10.0)
    remote = root.sub_job("not-there", vsite="ZIB-SP2", usite="ZIB")
    remote.script_task("t", script="#!/bin/sh\nx\n", simulated_runtime_s=10.0)

    def scenario(sim):
        job_id = yield from jpa.submit(root)
        final = yield from jmc.wait_for_completion(job_id)
        outcome = yield from jmc.outcome(job_id)
        return final, outcome, remote.ajo.id

    p = grid.sim.process(scenario(grid.sim))
    final, outcome, remote_id = grid.sim.run(until=p)
    assert final["status"] == "failed"
    assert outcome.child(remote_id).status is ActionStatus.FAILED
    assert "no local account" in outcome.child(remote_id).reason


def test_german_grid_builds_with_six_sites():
    grid = build_german_grid(seed=1)
    assert sorted(grid.usites) == ["DWD", "FZJ", "LRZ", "RUKA", "RUS", "ZIB"]
    dialects = {
        vsite.machine.dialect
        for usite in grid.usites.values()
        for vsite in usite.vsites.values()
    }
    assert dialects == {"nqs", "loadleveler", "vpp"}


def test_user_can_contact_any_unicore_server(two_sites):
    """Section 4.3: 'allow the user to contact any UNICORE server'."""
    grid, user, session = two_sites
    zib_session = grid.connect_user(user, "ZIB")
    jpa = JobPreparationAgent(zib_session)
    jmc = JobMonitorController(zib_session)
    job = jpa.new_job("direct-at-zib", vsite="ZIB-SP2")
    job.script_task("t", script="#!/bin/sh\nx\n", simulated_runtime_s=30.0)

    def scenario(sim):
        job_id = yield from jpa.submit(job)
        final = yield from jmc.wait_for_completion(job_id)
        return job_id, final

    p = grid.sim.process(scenario(grid.sim))
    job_id, final = grid.sim.run(until=p)
    assert job_id.endswith("@ZIB")
    assert final["status"] == "successful"


def test_three_site_scatter(two_sites):
    """One job fanning sub-groups to two remote sites simultaneously."""
    grid = build_grid(
        {"FZJ": ["FZJ-T3E"], "ZIB": ["ZIB-SP2"], "LRZ": ["LRZ-VPP"]}, seed=3
    )
    user = grid.add_user(
        "Eva", logins={"FZJ": "eva", "ZIB": "eva_b", "LRZ": "eva_m"}
    )
    session = grid.connect_user(user, "FZJ")
    jpa = JobPreparationAgent(session)
    jmc = JobMonitorController(session)

    root = jpa.new_job("scatter", vsite="FZJ-T3E")
    for site, vsite in (("ZIB", "ZIB-SP2"), ("LRZ", "LRZ-VPP")):
        sub = root.sub_job(f"part@{site}", vsite=vsite, usite=site)
        sub.script_task(
            f"work-{site}", script="#!/bin/sh\nwork\n", simulated_runtime_s=120.0
        )

    def scenario(sim):
        job_id = yield from jpa.submit(root)
        final = yield from jmc.wait_for_completion(job_id)
        return final

    p = grid.sim.process(scenario(grid.sim))
    final = grid.sim.run(until=p)
    assert final["status"] == "successful"
    assert grid.usites["ZIB"].vsites["ZIB-SP2"].batch.all_records()
    assert grid.usites["LRZ"].vsites["LRZ-VPP"].batch.all_records()
    # Both remote parts ran concurrently: the VPP is 4x faster but both
    # finished; total time bounded by the slower remote + overheads.
    assert grid.sim.now < 600.0


def test_workstation_files_ship_with_forwarded_groups(two_sites):
    """Section 5.6: workstation files ride inside the AJO — including for
    sub-jobs executed at a remote Usite."""
    grid, user, session = two_sites
    user.workstation.fs.write("/home/clara/params.nml", b"&config n=3 /")
    jpa = JobPreparationAgent(session)
    jmc = JobMonitorController(session)

    root = jpa.new_job("ws-ship", vsite="FZJ-T3E")
    root.script_task("local", script="#!/bin/sh\nx\n", simulated_runtime_s=10.0)
    remote = root.sub_job("remote", vsite="ZIB-SP2", usite="ZIB")
    imp = remote.import_from_workstation("/home/clara/params.nml", "params.nml")
    work = remote.script_task("use-params", script="#!/bin/sh\nread params\n",
                              simulated_runtime_s=10.0)
    remote.depends(imp, work, files=["params.nml"])

    def scenario(sim):
        # jpa.submit needs the workstation for the staged import.
        job_id = yield from jpa.submit(root, workstation=user.workstation)
        final = yield from jmc.wait_for_completion(job_id)
        return job_id, final

    p = grid.sim.process(scenario(grid.sim))
    job_id, final = grid.sim.run(until=p)
    assert final["status"] == "successful"
    # The file physically landed in the remote (ZIB) uspace.
    zib_njs = grid.usites["ZIB"].njs
    (remote_run,) = zib_njs.runs.values()
    uspace = next(iter(remote_run.uspaces.values()))
    assert uspace.read("params.nml") == b"&config n=3 /"
