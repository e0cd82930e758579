"""A finished job's status at every detail level, just finished and restored.

A finished run answers status queries from the three replies it keeps
(``repro.server.njs.finished``), not from its AJO and outcome tree.  Each
reply must be the tree those two render
(:func:`~repro.server.njs.jobrun.status_view`): for a job that finished
in this life of its site and for one a cold restart brought back, at
one site and at two, over either storage backend.  The JMC's cache of a
finished job's last reply serves it, marked stale, through an outage.
"""

import gc

import pytest

from repro.ajo.job import AbstractJobObject
from repro.client import JobMonitorController, JobPreparationAgent
from repro.grid import build_grid
from repro.server.njs.finished import FinishedRun
from repro.server.njs.jobrun import status_view

SITES = {"FZJ": ["FZJ-T3E"], "ZIB": ["ZIB-SP2"]}
DETAILS = ("job", "groups", "tasks")
OK = "successful"


def _shape(view):
    return (view.name, view.status, [_shape(child) for child in view.children])


def _leaf(name):
    return (name, OK, [])


#: (job name, detail) -> the tree's shape at the home site FZJ.
HOME = {
    ("solo", "job"): _leaf("solo"),
    ("solo", "groups"): ("solo", OK, [_leaf("inner")]),
    ("solo", "tasks"): ("solo", OK, [
        _leaf("a"), _leaf("b"), ("inner", OK, [_leaf("c")]),
    ]),
    ("spread", "job"): _leaf("spread"),
    ("spread", "groups"): ("spread", OK, [_leaf("inner"), _leaf("away")]),
    ("spread", "tasks"): ("spread", OK, [
        _leaf("a"), _leaf("b"), ("inner", OK, [_leaf("c")]),
        ("away", OK, [_leaf("d")]),
    ]),
}
#: detail -> the shape of the forwarded group's own tree at ZIB.
AWAY = {
    "job": _leaf("away"),
    "groups": _leaf("away"),
    "tasks": ("away", OK, [_leaf("d")]),
}


def _run(grid, body):
    return grid.sim.run(until=grid.sim.process(body))


def _finished(storage, remote):
    """A job (and, two-site, its group at ZIB) run to its end; the grid,
    the user's JMC and the job's id."""
    sites = SITES if remote else {"FZJ": SITES["FZJ"]}
    grid = build_grid(sites, seed=29, storage=storage)
    user = grid.add_user("Dora", logins={site: "dora" for site in sites})
    session = grid.connect_user(user, "FZJ")
    jpa, jmc = JobPreparationAgent(session), JobMonitorController(session)
    job = jpa.new_job("spread" if remote else "solo", vsite="FZJ-T3E")
    a = job.script_task("a", "#!/bin/sh\na\n", simulated_runtime_s=30.0)
    b = job.script_task("b", "#!/bin/sh\nb\n", simulated_runtime_s=30.0)
    job.depends(a, b)
    inner = job.sub_job("inner", vsite="FZJ-T3E", usite="FZJ")
    inner.script_task("c", "#!/bin/sh\nc\n", simulated_runtime_s=30.0)
    if remote:
        away = job.sub_job("away", vsite="ZIB-SP2", usite="ZIB")
        away.script_task("d", "#!/bin/sh\nd\n", simulated_runtime_s=30.0)

    def submit_and_wait(sim):
        job_id = yield from jpa.submit(job)
        final = yield from jmc.wait_for_completion(job_id)
        assert final.status == OK
        return job_id

    return grid, jmc, _run(grid, submit_and_wait(grid.sim))


def _answers(grid, runs):
    """Every detail of every run ``(njs, job id)``: what the NJS answers,
    checked against what its decoded AJO and outcome tree render."""
    answers = {
        (njs.usite_name, detail): njs.query_status(job_id, detail)
        for njs, job_id in runs for detail in DETAILS
    }
    for njs, job_id in runs:
        run = njs.runs[job_id]
        assert isinstance(run, FinishedRun)
        root, outcomes = run.root, run.outcomes
        for detail in DETAILS:
            assert answers[njs.usite_name, detail] == status_view(root, outcomes, detail)
    return answers


@pytest.mark.parametrize("storage", ["memory", "sqlite"])
@pytest.mark.parametrize("remote", [False, True], ids=["one-site", "two-site"])
def test_a_finished_job_answers_every_detail_level(storage, remote):
    grid, jmc, job_id = _finished(storage, remote)
    name = "spread" if remote else "solo"
    runs = [(grid.usites["FZJ"].njs, job_id)]
    if remote:
        zib = grid.usites["ZIB"].njs
        runs.append((zib, zib.runs.serving(job_id)[-1].job_id))

    just_finished = _answers(grid, runs)
    for detail in DETAILS:
        assert _shape(just_finished["FZJ", detail]) == HOME[name, detail]
        if remote:
            assert _shape(just_finished["ZIB", detail]) == AWAY[detail]
        # The wire carries the same tree to the JMC.
        wire = _run(grid, jmc.status(job_id, detail))
        assert _shape(wire) == HOME[name, detail]

    for usite in grid.usites.values():
        usite.crash_site()
        usite.restart_site()
    grid.sim.run(until=grid.sim.now + 60.0)
    kept = [obj for obj in gc.get_objects() if isinstance(obj, AbstractJobObject)]
    restored = {
        key: njs.query_status(run_id, detail)
        for njs, run_id in runs
        for key, detail in (((njs.usite_name, d), d) for d in DETAILS)
    }
    # A restored run rendered its replies and let the decoded trees go.
    gc.collect()
    known = {id(obj) for obj in kept}
    assert [obj for obj in gc.get_objects()
            if isinstance(obj, AbstractJobObject) and id(obj) not in known] == []
    assert restored == _answers(grid, runs)
    for key, view in restored.items():
        assert _shape(view) == _shape(just_finished[key])


def test_the_jmc_serves_a_finished_jobs_last_reply_stale_through_an_outage():
    grid, jmc, job_id = _finished("memory", remote=False)
    live = _run(grid, jmc.status(job_id))
    asked_at = grid.sim.now
    assert not live.stale and _shape(live) == HOME["solo", "tasks"]

    grid.usites["FZJ"].crash_site()
    grid.sim.run(until=grid.sim.now + 60.0)
    stale = _run(grid, jmc.status(job_id, allow_stale=True))
    assert stale.stale and stale.as_of == asked_at
    assert _shape(stale) == _shape(live)
    assert stale == live.marked_stale(asked_at)
