"""Unit tests for JPA builder details not covered by integration flows."""

import gc
import weakref

import pytest

from repro.ajo import ValidationError
from repro.ajo.dag import JobPlan
from repro.errors import ConsignError
from repro.grid import build_grid


@pytest.fixture()
def session_pair():
    grid = build_grid({"FZJ": ["FZJ-T3E"], "ZIB": ["ZIB-SP2"]}, seed=71)
    user = grid.add_user("Builder", logins={"FZJ": "b", "ZIB": "bb"})
    session = grid.connect_user(user, "FZJ")
    from repro.client import JobPreparationAgent

    return grid, user, session, JobPreparationAgent(session)


def test_live_check_rejects_unavailable_compiler(session_pair):
    grid, user, session, jpa = session_pair
    job = jpa.new_job("bad-compiler", vsite="FZJ-T3E")
    with pytest.raises(ValidationError, match="missing compiler"):
        job.compile_link_execute(
            "app", sources=["a.c"], executable="a.out",
            run_resources=__import__("repro.resources", fromlist=["ResourceRequest"]).ResourceRequest(),
            compiler="hpf",  # the T3E page only lists f90/cc/make
        )


def test_live_check_skips_remote_vsites(session_pair):
    """Tasks for Vsites whose pages this session does not hold are only
    checked by the destination NJS — the builder must not block them."""
    grid, user, session, jpa = session_pair
    job = jpa.new_job("root", vsite="FZJ-T3E")
    sub = job.sub_job("remote", vsite="ZIB-SP2", usite="ZIB")
    # ZIB-SP2's page is not in this FZJ session: no client-side check.
    sub.script_task("t", script="#!/bin/sh\nx\n")


def test_workstation_files_needed_recurses_into_subjobs(session_pair):
    grid, user, session, jpa = session_pair
    job = jpa.new_job("root", vsite="FZJ-T3E")
    job.import_from_workstation("/home/b/top.dat", "top.dat")
    sub = job.sub_job("remote", vsite="ZIB-SP2", usite="ZIB")
    sub.import_from_workstation("/home/b/deep.dat", "deep.dat")
    assert sorted(JobPlan.of(job.ajo).imports) == [
        "/home/b/deep.dat", "/home/b/top.dat"
    ]


def test_the_agent_keeps_no_builder_alive(session_pair):
    """The JPA reads a job's workstation imports off its AJO: a dropped
    builder is freed, and a new builder that reuses its memory inherits
    none of its files."""
    grid, user, session, jpa = session_pair
    dropped = []
    for i in range(200):
        job = jpa.new_job(f"old{i}", vsite="FZJ-T3E")
        sub = job.sub_job("remote", vsite="ZIB-SP2", usite="ZIB")
        sub.import_from_workstation(f"/home/b/old{i}.dat", "old.dat")
        dropped.append(weakref.ref(sub))
    del job, sub
    gc.collect()
    assert dropped[0]() is None
    assert all(
        JobPlan.of(jpa.new_job(f"new{i}", vsite="FZJ-T3E").ajo).imports == ()
        for i in range(200)
    )


def test_load_job_with_subjobs_reassigns_user(session_pair):
    grid, user, session, jpa = session_pair
    job = jpa.new_job("saved", vsite="FZJ-T3E")
    job.script_task("t", script="#!/bin/sh\nx\n")
    sub = job.sub_job("remote", vsite="ZIB-SP2", usite="ZIB")
    sub.script_task("rt", script="#!/bin/sh\nx\n")
    saved = job.save()

    reloaded = jpa.load_job(saved)
    assert reloaded.ajo.user_dn == session.user_dn
    assert len(reloaded.ajo.sub_jobs()) == 1
    # Reloaded jobs can be modified (section 5.7) — add another task.
    reloaded.script_task("extra", script="#!/bin/sh\ny\n")
    assert len(reloaded.ajo.tasks()) == 2


def test_depends_accepts_builders_and_tasks(session_pair):
    grid, user, session, jpa = session_pair
    job = jpa.new_job("mix", vsite="FZJ-T3E")
    t = job.script_task("t", script="#!/bin/sh\nx\n")
    sub = job.sub_job("g", vsite="ZIB-SP2", usite="ZIB")
    dep = job.depends(t, sub, files=["x.dat"])  # builder as successor
    assert dep.predecessor_id == t.id
    assert dep.successor_id == sub.ajo.id


def test_builder_submit_shortcut(session_pair):
    grid, user, session, jpa = session_pair
    job = jpa.new_job("short", vsite="FZJ-T3E")
    job.script_task("t", script="#!/bin/sh\nx\n", simulated_runtime_s=5.0)

    def scenario(sim):
        job_id = yield from job.submit()
        return job_id

    p = grid.sim.process(scenario(grid.sim))
    assert grid.sim.run(until=p).startswith("U")


def test_stale_client_page_rechecked_by_njs(session_pair):
    """Defense in depth: the JPA validates against the page it downloaded,
    but the NJS re-checks against the *current* page at consign time."""
    grid, user, session, jpa = session_pair
    from repro.resources import ResourcePageEditor, ResourceRequest

    job = jpa.new_job("stale", vsite="FZJ-T3E")
    job.script_task(
        "big", script="#!/bin/sh\nx\n",
        resources=ResourceRequest(cpus=256, time_s=600),
    )  # fine against the downloaded page (max 512)

    # The site administrator shrinks the T3E partition afterwards.
    vsite = grid.usites["FZJ"].vsites["FZJ-T3E"]
    editor = ResourcePageEditor("FZJ-T3E").set_system("Cray T3E", "UNICOS/mk", 460.0)
    for axis, hi in (("cpus", 128), ("time_s", 86400), ("memory_mb", 65536),
                     ("disk_permanent_mb", 1e6), ("disk_temporary_mb", 1e6)):
        editor.set_range(axis, 1 if axis == "cpus" else 0, hi)
    editor.add_compiler("f90")
    vsite.resource_page = editor.publish()

    def scenario(sim):
        yield from jpa.submit(job)

    p = grid.sim.process(scenario(grid.sim))
    with pytest.raises(ConsignError, match="above maximum") as refused:
        grid.sim.run(until=p)
    assert refused.value.code.startswith("AJO3")
