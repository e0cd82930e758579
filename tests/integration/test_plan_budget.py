"""What a job's size may cost a site: a plan once, and calls linear in it.

The NJS makes "sure that the dependent parts of the UNICORE job are
scheduled in the predefined sequence" (section 4.2) from one
:class:`~repro.ajo.dag.JobPlan` per job per site: the JPA builds one for
its own analysis, and a site's arrival analysis one per consign or
replay, which the run holds.  Each group keeps the tally of its
children's states, so marking a child ends a constant amount of work
and a status answer walks nothing.  So a chain's cost per task does not
grow with the chain: counted in Python-level calls into ``repro``, which
repeat exactly, unlike wall time.
"""

import sys
from pathlib import Path

import pytest

import repro
from repro.ajo.dag import JobPlan
from repro.api import GridSession
from repro.grid import build_grid

#: Calls per task may differ by this factor between a short and a long
#: chain; a cost quadratic in the chain's length makes it ~5× at 10×.
LINEAR_SLACK = 1.2

SOURCE = str(Path(repro.__file__).parent)


def _chain_cancelled_at_its_head(n):
    """Python-level calls into ``repro`` to run a one-site chain of ``n``
    script tasks, cancelled while its head runs, to its end."""
    grid = build_grid({"FZJ": ["FZJ-T3E"]}, seed=51)
    user = grid.add_user("Chain Runner", logins={"FZJ": "chain"})
    session = GridSession(grid, user, "FZJ")
    job = session.new_job(f"chain{n}", "FZJ-T3E")
    prev = None
    for i in range(n):
        task = job.script_task(f"s{i}", "#!/bin/sh\nx\n", simulated_runtime_s=100.0)
        if prev is not None:
            job.depends(prev, task)
        prev = task
    calls = 0

    def count(frame, event, _arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename.startswith(SOURCE):
            calls += 1

    sys.setprofile(count)
    try:
        handle = session.submit(job)
        session.advance(50.0)
        session.cancel(handle)
        final = session.wait(handle)
    finally:
        sys.setprofile(None)
    assert final.status == "killed"
    return calls


def test_a_chains_calls_per_task_do_not_grow_with_the_chain():
    short, long = 200, 2000
    per_task = {n: _chain_cancelled_at_its_head(n) / n for n in (short, long)}
    assert max(per_task.values()) <= LINEAR_SLACK * min(per_task.values()), per_task


@pytest.fixture
def plans(monkeypatch):
    """Every plan built, as (planning Usite, planned group's name)."""
    built: list[tuple[str, str]] = []
    build = JobPlan.of.__func__

    def counted(cls, job, usite="", owed=()):
        built.append((usite, job.name))
        return build(cls, job, usite, owed)

    monkeypatch.setattr(JobPlan, "of", classmethod(counted))
    return built


def _two_site_session():
    grid = build_grid({"FZJ": ["FZJ-T3E"], "ZIB": ["ZIB-SP2"]}, seed=51)
    user = grid.add_user("Planner", logins={"FZJ": "plan", "ZIB": "plan_b"})
    session = GridSession(grid, user, "FZJ")
    job = session.new_job("two-site", "FZJ-T3E")
    first = job.script_task("first", "#!/bin/sh\nx\n", simulated_runtime_s=300.0)
    sub = job.sub_job("remote", vsite="ZIB-SP2", usite="ZIB")
    sub.script_task("far", "#!/bin/sh\nx\n", simulated_runtime_s=30.0)
    job.depends(first, sub, files=["first.out"])
    return grid, session, job


def test_a_job_is_planned_once_by_the_jpa_and_once_per_site(plans):
    """Status polls, the forward, the group's return, the outcome and
    the finished job's status plan nothing more."""
    grid, session, job = _two_site_session()
    handle = session.submit(job)
    assert session.status(handle).status == "queued"
    assert session.wait(handle).status == "successful"
    session.outcome(handle)
    assert session.status(handle).status == "successful"
    assert plans == [("FZJ", "two-site"), ("FZJ", "two-site"), ("ZIB", "remote")]


def test_a_replay_plans_the_job_once_more(plans):
    grid, session, job = _two_site_session()
    njs = grid.usites["FZJ"].njs
    handle = session.submit(job)
    session.advance(100.0)
    njs.crash()
    session.advance(30.0)
    njs.restart()
    assert njs.replays == 1
    assert session.wait(handle).status == "successful"
    assert plans == [
        ("FZJ", "two-site"), ("FZJ", "two-site"), ("FZJ", "two-site"),
        ("ZIB", "remote"),
    ]
