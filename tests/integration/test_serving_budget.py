"""What a child site pays to find the runs serving a parent site's job.

``RunTable.serving(parent_job_id)`` is the one answer, for a transfer,
a ``CancelGroup`` and a group sent again alike.  It is kept at admit and
dispose; a restored table reads the consign rows for it once, when a
peer message first asks, however many messages ask after that.
"""

from repro.api import GridSession
from repro.grid import build_grid
from repro.server.njs.peerlink import CancelGroup

SITES = {"FZJ": ["FZJ-T3E"], "ZIB": ["ZIB-SP2"]}
JOBS = 5


def _finished_two_site_jobs():
    grid = build_grid(SITES, seed=41)
    user = grid.add_user("Index", logins={site: "index" for site in SITES})
    session = GridSession(grid, user, "FZJ")
    handles = []
    for i in range(JOBS):
        job = session.new_job(f"spread{i}", "FZJ-T3E")
        sub = job.sub_job("remote", vsite="ZIB-SP2", usite="ZIB")
        sub.script_task("work", "#!/bin/sh\nwork\n", simulated_runtime_s=30.0)
        handles.append(session.submit(job))
    for handle in handles:
        assert session.wait(handle).status == "successful"
    return grid, session, handles


def test_cancel_groups_after_a_restart_read_the_consign_rows_once():
    """One ``CancelGroup`` per parent job reaches a restarted child: the
    first reads each finished job's consign row, the others read none
    (the parent commit read every row for every message: 25 reads)."""
    grid, _, handles = _finished_two_site_jobs()
    zib_site = grid.usites["ZIB"]
    zib = zib_site.njs
    zib_site.crash_site()
    zib_site.restart_site()
    reads = grid.storage.reads
    for handle in handles:
        zib.dispatch_peer_message(CancelGroup(handle.job_id))
    assert grid.storage.reads - reads <= len(zib.runs) == JOBS
    for handle in handles:
        (group,) = zib.runs.serving(handle.job_id)
        assert group.status().is_terminal
    assert grid.storage.reads - reads <= JOBS


def test_a_disposed_forwarded_group_leaves_nothing_in_the_index():
    """The home site's dispose disposes each group it forwarded, and the
    index forgets it, whether it was kept since the admit or built from
    the rows after a restart."""
    grid, session, handles = _finished_two_site_jobs()
    zib_site = grid.usites["ZIB"]
    zib = zib_site.njs
    session.dispose(handles[0])
    grid.sim.run(until=grid.sim.now + 60.0)
    assert zib.runs.serving(handles[0].job_id) == [] and len(zib.runs) == JOBS - 1
    zib_site.crash_site()
    zib_site.restart_site()
    for handle in handles[1:]:
        session.dispose(handle)
    grid.sim.run(until=grid.sim.now + 3600.0)
    assert len(zib.runs) == 0
    assert all(zib.runs.serving(handle.job_id) == [] for handle in handles)
    assert zib.runs._serving == {}  # no empty entry per parent job left behind
