"""Integration tests for the JMC data-return and disposal lifecycle
(section 5.6), plus site-specific authentication at the gateway."""

import pytest

from repro.client import JobMonitorController, JobPreparationAgent
from repro.errors import ConsignError, MappingError, UnknownUnicoreJobError
from repro.grid import build_grid
from repro.resources import ResourceRequest


@pytest.fixture()
def site():
    grid = build_grid({"FZJ": ["FZJ-T3E"]}, seed=23)
    user = grid.add_user("Rita", logins={"FZJ": "rita"})
    session = grid.connect_user(user, "FZJ")
    return grid, user, session


def _finished_job(grid, session, name="lifecycle"):
    jpa = JobPreparationAgent(session)
    jmc = JobMonitorController(session)
    job = jpa.new_job(name, vsite="FZJ-T3E")
    work = job.script_task("produce", script="#!/bin/sh\nmake out\n",
                           simulated_runtime_s=30.0)
    exp = job.export_to_xspace("result.dat", f"/res/{name}.dat")
    job.depends(work, exp, files=["result.dat"])

    def scenario(sim):
        job_id = yield from jpa.submit(job)
        yield from jmc.wait_for_completion(job_id)
        return job_id

    p = grid.sim.process(scenario(grid.sim))
    return jmc, grid.sim.run(until=p)


def test_fetch_file_returns_to_workstation(site):
    grid, user, session = site
    jmc, job_id = _finished_job(grid, session)

    def fetch(sim):
        content = yield from jmc.fetch_file(
            job_id, "result.dat", workstation=user.workstation,
            save_as="/home/rita/result.dat",
        )
        return content

    p = grid.sim.process(fetch(grid.sim))
    content = grid.sim.run(until=p)
    assert len(content) == 1 << 20
    assert user.workstation.fs.read("/home/rita/result.dat") == content


def test_fetch_missing_file_fails_cleanly(site):
    grid, user, session = site
    jmc, job_id = _finished_job(grid, session)

    def fetch(sim):
        yield from jmc.fetch_file(job_id, "nope.dat")

    p = grid.sim.process(fetch(grid.sim))
    with pytest.raises(UnknownUnicoreJobError, match="no Uspace file"):
        grid.sim.run(until=p)


def test_dispose_destroys_uspace_and_forgets_job(site):
    grid, user, session = site
    jmc, job_id = _finished_job(grid, session)
    vsite = grid.usites["FZJ"].vsites["FZJ-T3E"]
    assert vsite.uspaces.active_jobs  # uspace exists while job retained

    def dispose(sim):
        ack = yield from jmc.dispose(job_id)
        return ack

    p = grid.sim.process(dispose(grid.sim))
    ack = grid.sim.run(until=p)
    assert ack["disposed"] == job_id
    assert vsite.uspaces.active_jobs == []

    # The job is gone: further queries fail.
    def query(sim):
        yield from jmc.status(job_id)

    p2 = grid.sim.process(query(grid.sim))
    with pytest.raises(UnknownUnicoreJobError, match="unknown UNICORE job"):
        grid.sim.run(until=p2)


def test_dispose_refuses_running_job(site):
    grid, user, session = site
    jpa = JobPreparationAgent(session)
    jmc = JobMonitorController(session)
    job = jpa.new_job("running", vsite="FZJ-T3E")
    job.script_task("slow", script="#!/bin/sh\nsleep\n",
                    resources=ResourceRequest(cpus=1, time_s=80000),
                    simulated_runtime_s=70000.0)

    def scenario(sim):
        job_id = yield from jpa.submit(job)
        yield from jmc.dispose(job_id)

    p = grid.sim.process(scenario(grid.sim))
    with pytest.raises(ConsignError, match="cancel it before"):
        grid.sim.run(until=p)


def test_site_specific_auth_hook_blocks_at_gateway(site):
    """Sites requiring smart cards / DCE (section 4.2) refuse the mapping."""
    grid, user, session = site
    grid.usites["FZJ"].uudb.install_site_check(lambda cert: False)
    jpa = JobPreparationAgent(session)
    job = jpa.new_job("blocked", vsite="FZJ-T3E")
    job.script_task("t", script="#!/bin/sh\nx\n", simulated_runtime_s=1.0)

    def submit(sim):
        yield from jpa.submit(job)

    p = grid.sim.process(submit(grid.sim))
    with pytest.raises(MappingError, match="site-specific"):
        grid.sim.run(until=p)
    assert grid.usites["FZJ"].gateway.auth_failures >= 1


def test_accounting_charges_unicore_jobs_automatically(site):
    grid, user, session = site
    jmc, job_id = _finished_job(grid, session, name="billed")
    log = grid.usites["FZJ"].accounting
    assert len(log) >= 1
    hours = log.cpu_hours_by_user()
    assert hours.get("rita", 0) > 0
    assert "FZJ-T3E" in log.cpu_hours_by_vsite()
