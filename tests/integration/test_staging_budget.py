"""What guaranteeing a dependency file (section 5.7) may cost a job.

A task runs in its job group's Uspace.  A file a sibling task wrote
there is already where its successor runs: the edge checks that it
exists and copies nothing.  A file that comes from anywhere else — a
local sub-group's Uspace, a forwarded group's result — is copied in once
at local disk bandwidth, in one ``njs.stage`` span.  A file handed to a
forwarded group is not copied at all: the stream that carries it reads it.
"""

import pytest

from repro.ajo import ActionStatus
from repro.api import GridSession
from repro.grid import build_grid
from repro.observability import telemetry_for
from repro.resources import ResourceRequest
from repro.server.njs.forwarding import LOCAL_DISK_BANDWIDTH_BPS
from repro.server.njs.incarnation import RESULT_FILE_BYTES

#: One result file copied at local disk bandwidth.
COPY_S = RESULT_FILE_BYTES / LOCAL_DISK_BANDWIDTH_BPS

#: Float slack on a sum of simulated seconds.
EPS = 1e-9

SCRIPT = "#!/bin/sh\nx\n"


@pytest.fixture()
def duo():
    grid = build_grid({"FZJ": ["FZJ-T3E"], "ZIB": ["ZIB-SP2"]}, seed=29)
    user = grid.add_user("Stager", logins={"FZJ": "stage", "ZIB": "stage_b"})
    xspace = grid.usites["FZJ"].xspace.fs
    xspace.write("/in/input.dat", b"i" * 4096)
    xspace.write("/in/app.f90", b"program app\nend\n")
    return grid, GridSession(grid, user, "FZJ")


def _run(grid, session, job):
    """Consign ``job`` and wait for it; returns its handle, final view,
    trace and the sim time the wait's reply arrived."""
    handle = session.submit(job)
    view = session.wait(handle)
    trace = telemetry_for(grid.sim).tracer.trace(handle.job_id)
    return handle, view, trace, grid.sim.now


def test_a_sibling_result_is_exported_without_a_staging_copy(duo):
    grid, session = duo
    job = session.new_job("ise", "FZJ-T3E")
    imp = job.import_from_xspace("/in/input.dat", "input.dat")
    work = job.script_task("crunch", SCRIPT, simulated_runtime_s=30.0)
    exp = job.export_to_xspace("result.dat", "/out/result.dat")
    job.depends(imp, work, files=["input.dat"])
    job.depends(work, exp, files=["result.dat"])
    _, view, trace, reply_at = _run(grid, session, job)
    assert view.status == "successful"
    assert trace.find("njs.stage") == []
    assert len(grid.usites["FZJ"].xspace.fs.body("/out/result.dat")) == RESULT_FILE_BYTES
    # From the batch run's end to the wait's reply: the export's one
    # copy of the 1 MiB result, then the reply's trip from the NJS.
    # Staging the result onto itself first was a second copy.
    batch_end = trace.first("batch.execute").end
    trip = reply_at - trace.first("njs.job").end
    assert reply_at - batch_end == pytest.approx(COPY_S + trip, abs=EPS)


def test_compile_link_execute_stages_nothing(duo):
    grid, session = duo
    job = session.new_job("cle", "FZJ-T3E")
    src = job.import_from_xspace("/in/app.f90", "app.f90")
    compile_task, _, run = job.compile_link_execute(
        "app", sources=["app.f90"], executable="app.exe",
        run_resources=ResourceRequest(cpus=8, time_s=3600.0),
        simulated_runtime_s=30.0,
    )
    exp = job.export_to_xspace("result.dat", "/out/app.dat")
    job.depends(src, compile_task, files=["app.f90"])
    job.depends(run, exp, files=["result.dat"])
    _, view, trace, _ = _run(grid, session, job)
    assert view.status == "successful"
    # The source, the object file, the executable and the result each
    # pass between two tasks of one Uspace.
    assert trace.find("njs.stage") == []


def test_a_file_from_a_local_sub_group_is_copied_once(duo):
    grid, session = duo
    job = session.new_job("up", "FZJ-T3E")
    sub = job.sub_job("make", vsite="FZJ-T3E", usite="FZJ")
    sub.script_task("produce", SCRIPT, simulated_runtime_s=30.0)
    use = job.script_task("consume", SCRIPT, simulated_runtime_s=30.0)
    job.depends(sub, use, files=["result.dat"])
    _, view, trace, _ = _run(grid, session, job)
    assert view.status == "successful"
    [stage] = trace.find("njs.stage")
    assert stage.attributes["files"] == 1
    assert stage.attributes["bytes"] == RESULT_FILE_BYTES
    assert stage.end - stage.start == pytest.approx(COPY_S, abs=EPS)


def test_a_sibling_that_never_wrote_the_file_fails_its_successor(duo):
    grid, session = duo
    job = session.new_job("ghost", "FZJ-T3E")
    imp = job.import_from_xspace("/in/input.dat", "input.dat")
    work = job.script_task("crunch", SCRIPT, simulated_runtime_s=30.0)
    job.depends(imp, work, files=["ghost.dat"])
    handle, view, trace, _ = _run(grid, session, job)
    assert view.status == "failed"
    failed = session.outcome(handle).child(work.id)
    assert failed.status is ActionStatus.FAILED
    assert failed.reason == f"dependency file 'ghost.dat' from {imp.id} not found"
    assert trace.find("njs.stage") == []


def test_a_file_handed_to_a_local_sub_group_lands_in_its_uspace_only(duo):
    """A file staged for a sub-group is written into that group's Uspace
    or, when the group has no tasks and so no Uspace, nowhere: it never
    waits under the job id for whichever Uspace is created next."""
    grid, session = duo
    job = session.new_job("handoff", "FZJ-T3E")
    make = job.script_task("make", SCRIPT, simulated_runtime_s=30.0)
    outer = job.sub_job("A", vsite="FZJ-T3E", usite="FZJ")
    inner = outer.sub_job("A1", vsite="FZJ-T3E", usite="FZJ")
    inner.script_task("deep", SCRIPT, simulated_runtime_s=30.0)
    sibling = job.sub_job("B", vsite="FZJ-T3E", usite="FZJ")
    sibling.script_task("side", SCRIPT, simulated_runtime_s=30.0)
    job.depends(make, outer, files=["a.dat"])
    job.depends(make, sibling, files=["b.dat"])
    handle, view, _, _ = _run(grid, session, job)
    assert view.status == "successful"
    uspaces = grid.usites["FZJ"].vsites["FZJ-T3E"].uspaces
    b_uspace = uspaces.get(f"{handle.job_id}.{sibling.ajo.id}")
    assert b_uspace.exists("b.dat")
    assert not b_uspace.exists("a.dat")
    assert grid.usites["FZJ"].njs.forwarding.stashes()["early"] == {}


def test_a_pipeline_hand_off_streams_when_its_predecessor_ends(duo):
    """A file bound for a forwarded group is read by the stream that
    carries it and written by the peer as it arrives: the NJS copies it
    nowhere first, so the hand-off leaves when the producing task ends."""
    grid, session = duo
    job = session.new_job("pipe", "FZJ-T3E")
    make = job.script_task("make", SCRIPT, simulated_runtime_s=30.0)
    remote = job.sub_job("far", vsite="ZIB-SP2", usite="ZIB")
    remote.script_task("use", SCRIPT, simulated_runtime_s=30.0)
    job.depends(make, remote, files=["result.dat"])
    handle, view, trace, _ = _run(grid, session, job)
    assert view.status == "successful"
    assert trace.find("njs.stage") == []
    made = trace.first("batch.execute")
    assert made.attributes["machine"] == "FZJ-T3E"
    assert trace.first("njs.forward").start == pytest.approx(made.end, abs=EPS)
    zib = grid.usites["ZIB"].njs
    [group_run] = zib.runs.serving(handle.job_id)
    assert len(group_run.file("result.dat")) == RESULT_FILE_BYTES
