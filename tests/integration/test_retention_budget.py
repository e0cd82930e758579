"""A deterministic cost proxy for what a disposed job leaves behind.

The NJS creates a job directory per job and disposal is its cleanup
(section 5.5); the job's trace goes the same way.  A span has one holder
at a time: while open, the code that will close it; once closed, only
its trace.  ``NetworkJobSupervisor.dispose`` drops the trace, so after a
job is disposed no span of it is reachable, the tracer holds the
session's trace alone, and the heap a disposed job leaves is bounded.
"""

import gc
import tracemalloc

from repro.api import GridSession
from repro.grid import build_grid
from repro.observability import INERT_SPAN, Span, telemetry_for

SITES = {"FZJ": ["FZJ-T3E"], "ZIB": ["ZIB-SP2"]}
WARM_UP = 20
JOBS = 200
#: Retained heap per disposed job; 8.4 KB while the tracer kept every span.
BYTES_PER_JOB = 3 * 1024


def _session(sites):
    grid = build_grid(sites, seed=41)
    user = grid.add_user("Keeper", logins={site: "keeper" for site in sites})
    return grid, GridSession(grid, user, "FZJ")


def _finished(session, name, remote=False):
    """submit -> wait -> outcome; the job's handle."""
    job = session.new_job(name, "FZJ-T3E")
    job.script_task("work", "#!/bin/sh\nwork\n", simulated_runtime_s=30.0)
    if remote:
        sub = job.sub_job("remote", vsite="ZIB-SP2", usite="ZIB")
        sub.script_task("work", "#!/bin/sh\nwork\n", simulated_runtime_s=30.0)
    handle = session.submit(job)
    assert session.wait(handle).status == "successful"
    session.outcome(handle)
    return handle


def _cycle(session, name):
    session.dispose(_finished(session, name))


def _spans_since(before):
    """Every reachable span made since ``before`` (a list of the spans
    there were), the inert one aside."""
    gc.collect()
    old = {id(span) for span in before}
    return [
        obj for obj in gc.get_objects()
        if isinstance(obj, Span) and id(obj) not in old and obj is not INERT_SPAN
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
    left = _spans_since(before)
    assert [span.trace_id for span in left if span.trace_id != session_trace] == []
    assert telemetry_for(grid.sim).tracer.traces() == [session_trace]
    assert retained / JOBS <= BYTES_PER_JOB, f"{retained / JOBS:.0f} B per job"


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

    left = _spans_since(before)
    assert [s.name for s in left if s.trace_id == handle.trace_id] == []
