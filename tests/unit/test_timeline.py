"""Tests for the job timeline: a view of the job's trace."""

import pytest

from repro.client import JobMonitorController, JobPreparationAgent
from repro.grid import build_grid
from repro.grid.timeline import job_timeline, render_gantt
from repro.observability import telemetry_for
from repro.resources import ResourceRequest


@pytest.fixture()
def finished_pipeline():
    grid = build_grid({"FZJ": ["FZJ-T3E"]}, seed=79)
    user = grid.add_user("Tim", logins={"FZJ": "tim"})
    session = grid.connect_user(user, "FZJ")
    jpa = JobPreparationAgent(session)
    jmc = JobMonitorController(session)
    grid.usites["FZJ"].xspace.fs.write("/in/data.dat", b"x" * 4096)

    job = jpa.new_job("timed", vsite="FZJ-T3E")
    imp = job.import_from_xspace("/in/data.dat", "data.dat")
    work = job.script_task("crunch", script="#!/bin/sh\nx\n",
                           simulated_runtime_s=120.0)
    exp = job.export_to_xspace("out.dat", "/out/out.dat")
    job.depends(imp, work, files=["data.dat"])
    job.depends(work, exp, files=["out.dat"])

    def scenario(sim):
        job_id = yield from jpa.submit(job)
        yield from jmc.wait_for_completion(job_id)
        return job_id

    p = grid.sim.process(scenario(grid.sim))
    job_id = grid.sim.run(until=p)
    tracer = telemetry_for(grid.sim).tracer
    return tracer.trace(tracer.trace_id_for_job(job_id))


# ----------------------------------------------------------------- timeline
def test_timeline_covers_all_timed_actions(finished_pipeline):
    entries = job_timeline(finished_pipeline)
    labels = [e.label for e in entries]
    assert any("import" in label for label in labels)
    assert any("crunch [run@FZJ-T3E]" in label for label in labels)
    assert any("export" in label for label in labels)
    # Chronological and non-negative durations.
    starts = [e.start for e in entries]
    assert starts == sorted(starts)
    assert all(e.duration >= 0 for e in entries)
    # Execution span matches the simulated runtime.
    run_entry = next(e for e in entries if "[run@" in e.label)
    assert run_entry.duration == pytest.approx(120.0)


def test_timeline_ordering_respects_dependencies(finished_pipeline):
    entries = job_timeline(finished_pipeline)
    imp = next(e for e in entries if "import" in e.label)
    run = next(e for e in entries if "[run@" in e.label)
    exp = next(e for e in entries if "export" in e.label)
    assert imp.end <= run.start + 1e-9 or imp.end <= run.end
    assert run.end <= exp.start + 1e-9


def test_render_gantt_output(finished_pipeline):
    text = render_gantt(job_timeline(finished_pipeline))
    assert "#" in text
    assert "crunch" in text
    assert "successful" in text


def test_render_gantt_empty():
    assert render_gantt([]) == "(no timed entries)"


def test_timeline_shows_the_site_a_forwarded_group_ran_at():
    """The trace follows the job across sites, so the Gantt does too; the
    parent's ``job_timeline(njs, job_id)`` saw one NJS's batch ledger."""
    from repro import GridSession

    grid = build_grid({"FZJ": ["FZJ-T3E"], "ZIB": ["ZIB-SP2"]}, seed=79)
    user = grid.add_user("Tim", logins={"FZJ": "tim", "ZIB": "tim"})
    session = GridSession(grid, user, "FZJ")
    root = session.new_job("two-site", vsite="FZJ-T3E")
    pre = root.script_task(
        "pre", script="#!/bin/sh\nx\n", simulated_runtime_s=100.0,
        resources=ResourceRequest(cpus=1, time_s=3600),
    )
    remote = root.sub_job("render@ZIB", vsite="ZIB-SP2", usite="ZIB")
    remote.script_task(
        "render", script="#!/bin/sh\nx\n", simulated_runtime_s=50.0,
        resources=ResourceRequest(cpus=1, time_s=3600),
    )
    xfer = root.transfer_to_usite("field.dat", "ZIB")
    root.depends(pre, xfer, files=["field.dat"])
    root.depends(xfer, remote.ajo)
    handle = session.submit(root)
    assert session.wait(handle).status == "successful"

    trace = telemetry_for(grid.sim).tracer.trace(handle.trace_id)
    entries = job_timeline(trace)
    by_label = {e.label: e for e in entries}
    assert {"pre [queued]", "pre [run@FZJ-T3E]",
            "render [queued]", "render [run@ZIB-SP2]"} <= set(by_label)
    moved = by_label["transfer field.dat"]
    assert moved.kind == "file" and moved.duration > 0
    assert by_label["pre [run@FZJ-T3E]"].end <= moved.start
    assert moved.end <= by_label["render [queued]"].start
    assert by_label["render [run@ZIB-SP2]"].status == "successful"
    assert [e.start for e in entries] == sorted(e.start for e in entries)
