"""A deterministic cost proxy for what a finished job keeps and what a
disposed one leaves behind.

The NJS creates a job directory per job and disposal is its cleanup
(section 5.5); the job's trace goes the same way.  A span is an object
only while open, held by the code that will close it; once closed, its
trace keeps a flat record of it.  ``NetworkJobSupervisor.dispose`` drops
the trace, so after a job is disposed no span of it is reachable, the
tracer holds the session's trace alone, and the heap a disposed job
leaves is bounded.  Until then a finished job keeps rows, not object
graphs: its status replies and outcome bytes at each site, its span
records, the JMC's reply bytes.
"""

import gc
import tracemalloc
import weakref

import pytest

from repro.ajo.job import AbstractJobObject
from repro.ajo.outcome import AJOOutcome
from repro.api import GridSession
from repro.grid import build_grid
from repro.observability import INERT_SPAN, Span, telemetry_for
from repro.protocol.datapath import INLINE_FILE_MAX
from repro.server.njs.finished import FinishedRun
from repro.server.njs.jobrun import JobRun
from repro.server.njs.peerlink import CancelGroup

SITES = {"FZJ": ["FZJ-T3E"], "ZIB": ["ZIB-SP2"]}
WARM_UP = 20
JOBS = 200
#: Retained heap per disposed job; 8.4 KB while the tracer kept every span.
BYTES_PER_JOB = 3 * 1024


def _session(sites):
    grid = build_grid(sites, seed=41)
    user = grid.add_user("Keeper", logins={site: "keeper" for site in sites})
    return grid, GridSession(grid, user, "FZJ")


def _kept(session, name, remote=False):
    """submit -> wait; the job's handle."""
    job = session.new_job(name, "FZJ-T3E")
    job.script_task("work", "#!/bin/sh\nwork\n", simulated_runtime_s=30.0)
    if remote:
        sub = job.sub_job("remote", vsite="ZIB-SP2", usite="ZIB")
        sub.script_task("work", "#!/bin/sh\nwork\n", simulated_runtime_s=30.0)
    handle = session.submit(job)
    assert session.wait(handle).status == "successful"
    return handle


def _finished(session, name, remote=False):
    """submit -> wait -> outcome; the job's handle."""
    handle = _kept(session, name, remote)
    session.outcome(handle)
    return handle


def _cycle(session, name):
    session.dispose(_finished(session, name))


def _objects_since(before, kinds):
    """Every reachable object of ``kinds`` made since ``before`` (a list
    of the ones there were), the inert span aside."""
    gc.collect()
    old = {id(obj) for obj in before}
    return [
        obj for obj in gc.get_objects()
        if isinstance(obj, kinds) and id(obj) not in old and obj is not INERT_SPAN
    ]


def _all_spans():
    return [obj for obj in gc.get_objects() if isinstance(obj, Span)]


def test_a_disposed_job_leaves_no_span_and_a_bounded_heap():
    before = _all_spans()
    grid, session = _session({"FZJ": SITES["FZJ"]})
    for i in range(WARM_UP):
        _cycle(session, f"warm{i}")
    gc.collect()
    tracemalloc.start(1)
    try:
        traced = tracemalloc.get_traced_memory()[0]
        for i in range(JOBS):
            _cycle(session, f"job{i}")
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - traced
    finally:
        tracemalloc.stop()

    session_trace = session.session.trace_id
    left = _objects_since(before, Span)
    assert [span.trace_id for span in left if span.trace_id != session_trace] == []
    assert telemetry_for(grid.sim).tracer.traces() == [session_trace]
    assert retained / JOBS <= BYTES_PER_JOB, f"{retained / JOBS:.0f} B per job"


#: Retained heap per finished, undisposed job: 9,066 B (one site) and
#: 17,915 B (two sites) measured; 9,168 B and 18,371 B while a finished
#: run kept a tree of status views, and 11,900 B and 24,500 B while it
#: kept its AJO and outcome tree, the tracer a ``Span`` per closed span,
#: and the JMC a decoded tree.
BYTES_PER_FINISHED = {False: 9_400, True: 18_500}


@pytest.mark.parametrize("remote", [False, True], ids=["one-site", "two-site"])
def test_a_finished_job_keeps_its_rows_not_its_objects(remote):
    kinds = (AbstractJobObject, AJOOutcome, Span)
    before = [obj for obj in gc.get_objects() if isinstance(obj, kinds)]
    grid, session = _session(SITES if remote else {"FZJ": SITES["FZJ"]})
    for i in range(WARM_UP):
        _kept(session, f"warm{i}", remote)
    gc.collect()
    tracemalloc.start(1)
    try:
        traced = tracemalloc.get_traced_memory()[0]
        handles = [_kept(session, f"job{i}", remote) for i in range(JOBS)]
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - traced
    finally:
        tracemalloc.stop()

    left = _objects_since(before, kinds)
    assert [type(obj).__name__ for obj in left] == []
    # ... and every one of them still answers, from its rows.
    tracer = telemetry_for(grid.sim).tracer
    assert session.status(handles[-1]).status == "successful"
    assert len(tracer.trace(handles[-1].trace_id)) > 0
    per_job = retained / JOBS
    assert per_job <= BYTES_PER_FINISHED[remote], f"{per_job:.0f} B per job"


def test_a_disposed_two_site_job_takes_its_forwarded_group_spans_along():
    before = _all_spans()
    grid, session = _session(SITES)
    tracer = telemetry_for(grid.sim).tracer
    handle = _finished(session, "spread", remote=True)
    # Until the job is disposed its trace holds the group's batch spans
    # at ZIB beside its own at FZJ.
    machines = {
        span.attributes["machine"]
        for span in tracer.trace(handle.trace_id).find("batch.execute")
    }
    assert machines == {"FZJ-T3E", "ZIB-SP2"}
    session.dispose(handle)

    left = _objects_since(before, Span)
    assert [s.name for s in left if s.trace_id == handle.trace_id] == []


def _spread_with_file(session, user, runtime_s=30.0):
    """A job whose group at ZIB imports a workstation file; its handle."""
    user.workstation.fs.write("/home/keeper/input.dat", bytes(range(256)) * 16)
    job = session.new_job("spread-file", "FZJ-T3E")
    imp = job.import_from_workstation("/home/keeper/input.dat", "input.dat")
    sub = job.sub_job("remote", vsite="ZIB-SP2", usite="ZIB")
    sub.script_task("work", "#!/bin/sh\nwc input.dat\n",
                    simulated_runtime_s=runtime_s)
    job.depends(imp, sub, files=["input.dat"])
    return session.submit(job)


def test_a_home_site_dispose_disposes_the_groups_it_forwarded():
    """Disposing at the home site reaches the child: an hour later ZIB
    holds no run of the job, and the group's Uspace file is let go."""
    grid = build_grid(SITES, seed=41)
    user = grid.add_user("Keeper", logins={site: "keeper" for site in SITES})
    session = GridSession(grid, user, "FZJ")
    handle = _spread_with_file(session, user)
    assert session.wait(handle).status == "successful"
    zib = grid.usites["ZIB"].njs
    group_id = zib.runs.serving(handle.job_id)[-1].job_id
    assert isinstance(zib.runs[group_id], FinishedRun)
    uspace_body = weakref.ref(zib.fetch_uspace_file(group_id, "input.dat"))

    session.dispose(handle)
    grid.sim.run(until=grid.sim.now + 3600.0)
    gc.collect()
    assert group_id not in zib.runs and len(zib.runs) == 0
    assert zib.runs.serving(handle.job_id) == []
    assert uspace_body() is None


def test_a_dispose_reaches_a_group_that_finished_before_its_site_restarted():
    """After a restart the child finds a group that finished before it
    by the parent job id in its consign row: an hour after the home
    site's dispose ZIB holds no run of the job, and the group's Uspace
    file is let go."""
    grid = build_grid(SITES, seed=41)
    user = grid.add_user("Keeper", logins={site: "keeper" for site in SITES})
    session = GridSession(grid, user, "FZJ")
    handle = _spread_with_file(session, user)
    assert session.wait(handle).status == "successful"
    zib_site = grid.usites["ZIB"]
    zib = zib_site.njs
    group_id = zib.runs.serving(handle.job_id)[-1].job_id
    uspace_body = weakref.ref(zib.fetch_uspace_file(group_id, "input.dat"))
    zib_site.crash_site()
    zib_site.restart_site()
    assert isinstance(zib.runs[group_id], FinishedRun)

    session.dispose(handle)
    grid.sim.run(until=grid.sim.now + 3600.0)
    gc.collect()
    assert group_id not in zib.runs and len(zib.runs) == 0
    assert uspace_body() is None


def test_a_dispose_leaves_a_running_forwarded_group_alone():
    """A group still running when its parent's dispose arrives is not
    disposed (nor cancelled): it runs to its end."""
    grid = build_grid(SITES, seed=41)
    user = grid.add_user("Keeper", logins={site: "keeper" for site in SITES})
    session = GridSession(grid, user, "FZJ")
    handle = _spread_with_file(session, user, runtime_s=600.0)
    grid.sim.run(until=grid.sim.now + 300.0)
    zib = grid.usites["ZIB"].njs
    (running,) = zib.runs.serving(handle.job_id)
    assert isinstance(running, JobRun)

    zib.dispatch_peer_message(
        CancelGroup(parent_job_id=handle.job_id, dispose=True)
    )
    assert zib.runs[running.job_id] is running and not running.cancelled
    assert session.wait(handle).status == "successful"
    assert isinstance(zib.runs[running.job_id], FinishedRun)


#: Fetches of one inline file under fresh request ids.
FETCHES = 40
#: Retained gateway heap per fetch: the cache entry, not the file.
BYTES_PER_FETCH = 1024


def test_a_cached_inline_reply_keeps_its_body_not_a_copy():
    """Each fetch leaves a reply-cache entry for the retry window; one
    that keeps the file's body adds an entry's worth of heap, one that
    keeps the encoded reply adds the file (64 KiB)."""
    grid = build_grid({"FZJ": SITES["FZJ"]}, seed=41)
    user = grid.add_user("Keeper", logins={"FZJ": "keeper"})
    session = GridSession(grid, user, "FZJ")
    content = bytes(range(256)) * (INLINE_FILE_MAX // 256)
    assert len(content) == INLINE_FILE_MAX
    user.workstation.fs.write("/home/keeper/input.dat", content)
    job = session.new_job("cached", "FZJ-T3E")
    imp = job.import_from_workstation("/home/keeper/input.dat", "input.dat")
    work = job.script_task("work", "#!/bin/sh\nwc input.dat\n",
                           simulated_runtime_s=30.0)
    job.depends(imp, work, files=["input.dat"])
    handle = session.submit(job)
    assert session.wait(handle).status == "successful"
    gateway = grid.usites["FZJ"].gateway
    tracemalloc.start(1)
    try:
        # Traced from here: the copy each fetch saves on the workstation
        # replaces the one before, so a tracked copy replaces a tracked one.
        assert session.fetch_file(handle, "input.dat") == content
        cached = len(gateway._reply_cache)
        gc.collect()
        traced = tracemalloc.get_traced_memory()[0]
        for _ in range(FETCHES):
            assert session.fetch_file(handle, "input.dat") == content
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - traced
    finally:
        tracemalloc.stop()
    assert len(gateway._reply_cache) == cached + FETCHES  # all in the window
    assert retained / FETCHES <= BYTES_PER_FETCH, f"{retained / FETCHES:.0f} B per fetch"


def test_a_sites_jobs_keep_one_owner_string_per_user():
    """The gateway hands the NJS the DN it authenticated, so every run,
    outcome record and listing of a user shares that one string, not a
    copy decoded from each job's AJO."""
    grid = build_grid({"FZJ": SITES["FZJ"]}, seed=41)
    sessions = [
        GridSession(grid, grid.add_user(f"Owner {i}", logins={"FZJ": f"own{i}"}), "FZJ")
        for i in range(3)
    ]
    handles = []
    for i in range(30):
        session = sessions[i % 3]
        job = session.new_job(f"own{i}", "FZJ-T3E")
        job.script_task("work", "#!/bin/sh\nwork\n", simulated_runtime_s=30.0)
        handles.append((session, session.submit(job)))
    for session, handle in handles:
        assert session.wait(handle).status == "successful"
    runs = grid.usites["FZJ"].njs.runs.values()
    assert len(runs) == 30
    assert len({id(run.user_dn) for run in runs}) <= 3
