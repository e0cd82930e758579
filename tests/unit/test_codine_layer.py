"""Unit + integration tests for the Codine internal job-control layer."""

import pytest

from repro.batch.base import BatchJobSpec, BatchState
from repro.resources import ResourceSet
from repro.server.njs.codine_layer import CodineJobControl


def spec(name="j", queue="batch"):
    return BatchJobSpec(
        name=name, owner="u", queue=queue, script="#$ -N x\n",
        resources=ResourceSet(cpus=4, time_s=600),
    )


def test_register_produces_codine_format():
    control = CodineJobControl()
    record = control.register("U1@FZJ", "act1", "FZJ-T3E", spec(), now=0.0)
    assert record.state == "qw"
    assert "#$ -N j" in record.internal_script
    assert "#$ -q batch" in record.internal_script
    assert "destination: FZJ-T3E" in record.internal_script
    assert record.history == [(0.0, "qw")]


def test_state_transitions_mirror_vendor_lifecycle():
    control = CodineJobControl()
    control.register("U1@FZJ", "act1", "V", spec(), now=0.0)
    assert control.transition("act1", BatchState.RUNNING, 5.0) == "r"
    assert control.transition("act1", BatchState.DONE, 50.0) == "d"
    record = control.for_action("act1")
    assert [s for _, s in record.history] == ["qw", "r", "d"]


def test_failed_and_cancelled_map_to_error_state():
    control = CodineJobControl()
    control.register("U1@FZJ", "a", "V", spec(), now=0.0)
    control.register("U1@FZJ", "b", "V", spec(), now=0.0)
    assert control.transition("a", BatchState.FAILED, 1.0) == "Eqw"
    assert control.transition("b", BatchState.CANCELLED, 1.0) == "Eqw"


def test_qstat_and_in_flight():
    control = CodineJobControl()
    control.register("U1@FZJ", "a", "V1", spec("one"), now=0.0)
    control.register("U2@FZJ", "b", "V2", spec("two"), now=0.0)
    control.transition("a", BatchState.DONE, 9.0)
    listing = control.qstat()
    assert len(listing) == 2
    assert control.in_flight() == 1
    assert len(control) == 2


def test_unknown_action_raises():
    with pytest.raises(KeyError):
        CodineJobControl().for_action("ghost")


def test_vendor_binding():
    control = CodineJobControl()
    control.register("U1@FZJ", "a", "V", spec(), now=0.0)
    control.bind_vendor_job("a", "fzj-t3e.7")
    assert control.for_action("a").vendor_job_id == "fzj-t3e.7"


def test_njs_routes_every_job_through_codine():
    """End to end: the NJS's Codine ledger matches the vendor batch log."""
    from repro.client import JobMonitorController, JobPreparationAgent
    from repro.grid import build_grid

    grid = build_grid({"FZJ": ["FZJ-T3E"]}, seed=53)
    user = grid.add_user("Codine", logins={"FZJ": "cod"})
    session = grid.connect_user(user, "FZJ")
    jpa = JobPreparationAgent(session)
    jmc = JobMonitorController(session)
    job = jpa.new_job("ledgered", vsite="FZJ-T3E")
    a = job.script_task("a", script="#!/bin/sh\nx\n", simulated_runtime_s=10.0)
    b = job.script_task("b", script="#!/bin/sh\nx\n", simulated_runtime_s=10.0)
    job.depends(a, b)

    def scenario(sim):
        job_id = yield from jpa.submit(job)
        yield from jmc.wait_for_completion(job_id)
        return job_id

    p = grid.sim.process(scenario(grid.sim))
    job_id = grid.sim.run(until=p)
    njs = grid.usites["FZJ"].njs
    assert len(njs.codine) == 2
    assert njs.codine.in_flight() == 0
    states = {s for _, _, s, _ in njs.codine.qstat()}
    assert states == {"d"}
    # Vendor ids bound for both.
    assert njs.codine.for_action(a.id).vendor_job_id.startswith("fzj-t3e.")


def test_a_disposed_job_leaves_the_ledger():
    """Bounded state: the ledger holds what the NJS still answers for
    (at the parent commit both records outlived the job)."""
    from repro.api import GridSession
    from repro.grid import build_grid

    grid = build_grid({"FZJ": ["FZJ-T3E"]}, seed=53)
    grid.add_user("Codine", logins={"FZJ": "cod"})
    session = GridSession(grid, "Codine", "FZJ")
    job = session.new_job("ledgered", vsite="FZJ-T3E")
    for name in "ab":
        job.script_task(name, script="#!/bin/sh\nx\n", simulated_runtime_s=10.0)
    handle = session.submit(job)
    session.wait(handle)
    njs = grid.usites["FZJ"].njs
    assert len(njs.codine) == 2
    session.dispose(handle)
    assert len(njs.codine) == 0
