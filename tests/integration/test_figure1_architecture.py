"""Figure 1 reproduction: one Usite wired browser -> gateway -> NJS -> batch.

Drives the complete single-site flow of the paper: mutual https
authentication, signed-applet loading, JPA job building with live
resource checks, consignment, incarnation, batch execution, dependency
sequencing with file guarantees, output collection, JMC monitoring,
and outcome retrieval.
"""

import pytest

from repro.ajo import ActionStatus
from repro.client import JobMonitorController, JobPreparationAgent
from repro.errors import ServerError
from repro.grid import build_grid
from repro.resources import ResourceRequest


@pytest.fixture()
def single_site():
    grid = build_grid({"FZJ": ["FZJ-T3E"]}, seed=7)
    user = grid.add_user(
        "Alice Adams", organization="FZ Juelich", logins={"FZJ": "alice01"}
    )
    session = grid.connect_user(user, "FZJ")
    return grid, user, session


def test_connect_authenticates_and_loads_applets(single_site):
    grid, user, session = single_site
    assert session.usite == "FZJ"
    assert set(session.applets) == {"JPA", "JMC"}
    assert "FZJ-T3E" in session.resource_pages
    page = session.resource_pages["FZJ-T3E"]
    assert page.architecture.startswith("Cray")
    assert page.software.has("compiler", "f90")


def test_unmapped_user_rejected_at_consign(single_site):
    grid, user, session = single_site
    mallory = grid.add_user("Mallory", logins={})  # no UUDB entry anywhere
    m_session = grid.connect_user(mallory, "FZJ")
    jpa = JobPreparationAgent(m_session)
    job = jpa.new_job("evil", vsite="FZJ-T3E")
    job.script_task("t", script="#!/bin/sh\nwhoami\n")

    def submit(sim):
        yield from jpa.submit(job)

    p = grid.sim.process(submit(grid.sim))
    from repro.errors import MappingError

    with pytest.raises(MappingError, match="no local account"):
        grid.sim.run(until=p)


def test_compile_link_execute_end_to_end(single_site):
    grid, user, session = single_site
    user.workstation.fs.write("/home/alice/solver.f90", b"program solver\nend\n")

    jpa = JobPreparationAgent(session)
    jmc = JobMonitorController(session)
    job = jpa.new_job("cfd", vsite="FZJ-T3E", account_group="zam")
    src = job.import_from_workstation("/home/alice/solver.f90", "solver.f90")
    compile_t, link_t, run_t = job.compile_link_execute(
        "solver",
        sources=["solver.f90"],
        executable="solver.exe",
        run_resources=ResourceRequest(cpus=64, time_s=7200, memory_mb=4096),
        simulated_runtime_s=1800.0,
    )
    job.depends(src, compile_t, files=["solver.f90"])
    exp = job.export_to_xspace("result.dat", "/arch/cfd/result.dat")
    job.depends(run_t, exp, files=["result.dat"])

    def scenario(sim):
        job_id = yield from jpa.submit(job, workstation=user.workstation)
        final = yield from jmc.wait_for_completion(job_id)
        outcome = yield from jmc.outcome(job_id)
        return job_id, final, outcome

    session.client.poll_interval_s = 60.0
    p = grid.sim.process(scenario(grid.sim))
    job_id, final, outcome = grid.sim.run(until=p)

    assert final.status == "successful"
    assert outcome.rollup_status() is ActionStatus.SUCCESSFUL
    # The export landed the result on the site's Xspace.
    usite = grid.usites["FZJ"]
    assert usite.xspace.fs.exists("/arch/cfd/result.dat")
    # Output was collected for the run task.
    run_outcome = outcome.child(run_t.id)
    assert "Cray" in run_outcome.stdout
    assert run_outcome.exit_code == 0
    # The batch job really went through the T3E's NQS with the mapped uid.
    batch = usite.vsites["FZJ-T3E"].batch
    records = batch.all_records()
    assert len(records) == 3  # compile, link, run
    assert all(r.spec.owner == "alice01" for r in records)
    assert all("#QSUB" in r.spec.script for r in records)


def test_dependency_sequencing_is_strict(single_site):
    grid, user, session = single_site
    jpa = JobPreparationAgent(session)
    job = jpa.new_job("chain", vsite="FZJ-T3E")
    t1 = job.script_task("first", script="#!/bin/sh\nstep1\n",
                         simulated_runtime_s=100.0)
    t2 = job.script_task("second", script="#!/bin/sh\nstep2\n",
                         simulated_runtime_s=100.0)
    job.depends(t1, t2)

    def scenario(sim):
        job_id = yield from jpa.submit(job)
        return job_id

    p = grid.sim.process(scenario(grid.sim))
    grid.sim.run(until=p)
    grid.sim.run()
    batch = grid.usites["FZJ"].vsites["FZJ-T3E"].batch
    recs = {r.spec.name: r for r in batch.all_records()}
    assert recs["second"].submit_time >= recs["first"].end_time


def test_failed_predecessor_skips_successor(single_site):
    grid, user, session = single_site
    jpa = JobPreparationAgent(session)
    jmc = JobMonitorController(session)
    job = jpa.new_job("failing", vsite="FZJ-T3E")
    # Import of a nonexistent Xspace file fails...
    imp = job.import_from_xspace("/no/such/file.dat", "input.dat")
    work = job.script_task("work", script="#!/bin/sh\nwork\n",
                           simulated_runtime_s=10.0)
    job.depends(imp, work, files=["input.dat"])

    def scenario(sim):
        job_id = yield from jpa.submit(job)
        final = yield from jmc.wait_for_completion(job_id)
        outcome = yield from jmc.outcome(job_id)
        return final, outcome

    p = grid.sim.process(scenario(grid.sim))
    final, outcome = grid.sim.run(until=p)
    assert final.status == "failed"
    assert outcome.child(imp.id).status is ActionStatus.FAILED
    assert outcome.child(work.id).status is ActionStatus.NOT_ATTEMPTED


def test_jmc_list_status_and_cancel(single_site):
    grid, user, session = single_site
    jpa = JobPreparationAgent(session)
    jmc = JobMonitorController(session)
    job = jpa.new_job("longrun", vsite="FZJ-T3E")
    job.script_task("forever", script="#!/bin/sh\nsleep\n",
                    resources=ResourceRequest(cpus=1, time_s=80000),
                    simulated_runtime_s=72000.0)

    def scenario(sim):
        job_id = yield from jpa.submit(job)
        listing = yield from jmc.list_jobs()
        tree = yield from jmc.status(job_id)
        yield from jmc.cancel(job_id)
        final = yield from jmc.wait_for_completion(job_id)
        return job_id, listing, tree, final

    p = grid.sim.process(scenario(grid.sim))
    job_id, listing, tree, final = grid.sim.run(until=p)
    assert any(j.job_id == job_id for j in listing)
    assert tree.name == "longrun"
    assert final.status == "killed"
    # The batch job was really cancelled on the T3E.
    batch = grid.usites["FZJ"].vsites["FZJ-T3E"].batch
    from repro.batch import BatchState

    assert batch.all_records()[0].state is BatchState.CANCELLED


def test_users_cannot_touch_others_jobs(single_site):
    grid, user, session = single_site
    bob = grid.add_user("Bob", logins={"FZJ": "bob7"})
    bob_session = grid.connect_user(bob, "FZJ")
    jpa = JobPreparationAgent(session)
    job = jpa.new_job("private", vsite="FZJ-T3E")
    job.script_task("t", script="#!/bin/sh\nx\n", simulated_runtime_s=5000.0)

    def submit(sim):
        job_id = yield from jpa.submit(job)
        return job_id

    p = grid.sim.process(submit(grid.sim))
    job_id = grid.sim.run(until=p)

    bob_jmc = JobMonitorController(bob_session)

    def snoop(sim):
        yield from bob_jmc.status(job_id)

    p2 = grid.sim.process(snoop(grid.sim))
    with pytest.raises(ServerError, match="another user"):
        grid.sim.run(until=p2)


def test_jmc_render_tree_shows_colors(single_site):
    grid, user, session = single_site
    jpa = JobPreparationAgent(session)
    jmc = JobMonitorController(session)
    job = jpa.new_job("viz", vsite="FZJ-T3E")
    job.script_task("quick", script="#!/bin/sh\nx\n", simulated_runtime_s=1.0)

    def scenario(sim):
        job_id = yield from jpa.submit(job)
        yield from jmc.wait_for_completion(job_id)
        tree = yield from jmc.status(job_id)
        return tree

    p = grid.sim.process(scenario(grid.sim))
    tree = grid.sim.run(until=p)
    text = JobMonitorController.render_tree(tree)
    assert "green" in text  # successful icons are green
    assert "viz" in text and "quick" in text


def test_save_and_resubmit_job(single_site):
    """Section 5.7: loading an old UNICORE job for resubmission."""
    grid, user, session = single_site
    jpa = JobPreparationAgent(session)
    jmc = JobMonitorController(session)
    job = jpa.new_job("repeat", vsite="FZJ-T3E")
    job.script_task("t", script="#!/bin/sh\nx\n", simulated_runtime_s=10.0)
    saved = job.save()

    reloaded = jpa.load_job(saved)
    assert reloaded.ajo.name == "repeat"

    def scenario(sim):
        first = yield from jpa.submit(job)
        second = yield from jpa.submit(reloaded)
        yield from jmc.wait_for_completion(first)
        final = yield from jmc.wait_for_completion(second)
        return first, second, final

    p = grid.sim.process(scenario(grid.sim))
    first, second, final = grid.sim.run(until=p)
    assert first != second
    assert final.status == "successful"
