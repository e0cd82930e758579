"""Full-site failure and recovery: the machine room goes dark.

The acceptance scenario of the persistence layer: kill a whole Usite —
every gateway, the NJS (bare heap), the UUDB's in-memory table — in the
middle of a workload, cold-start it from the SQLite backend, and verify
zero lost jobs: finished jobs reappear as restored listings with their
outcomes intact, in-flight jobs are replayed to completion.
"""

import pytest

from repro.api import GridSession
from repro.faults import FaultEvent, FaultInjector, FaultKind, FaultPlan
from repro.grid import build_grid
from repro.observability import telemetry_for
from repro.resources import ResourceRequest
from repro.server.njs.finished import FinishedRun


def _grid(sites=None, seed=21, storage="sqlite"):
    grid = build_grid(sites or {"FZJ": ["FZJ-T3E"]}, seed=seed, storage=storage)
    user = grid.add_user(
        "Site Tester", organization="Test",
        logins={site: "site" for site in grid.usites},
    )
    return grid, GridSession(grid, user, "FZJ")


def _dag_job(session, name="dag", stage_runtime_s=400.0):
    job = session.new_job(name)
    a = job.script_task("stage-a", "#!/bin/sh\na\n",
                        simulated_runtime_s=stage_runtime_s)
    b = job.script_task("stage-b", "#!/bin/sh\nb\n",
                        simulated_runtime_s=stage_runtime_s)
    c = job.script_task("stage-c", "#!/bin/sh\nc\n",
                        simulated_runtime_s=stage_runtime_s)
    job.depends(a, b, files=["a.out"])
    job.depends(b, c, files=["b.out"])
    return job


def _quick_job(session, name="quick", runtime_s=50.0):
    job = session.new_job(name)
    job.script_task("only", "#!/bin/sh\nq\n", simulated_runtime_s=runtime_s)
    return job


def _journal_holds_the_jobs_in_flight(njs):
    """The journal's size is the number of non-terminal jobs, not history."""
    in_flight = {
        job_id for job_id, run in njs.runs.items()
        if not run.status().is_terminal
    }
    return {e.job_id for e in njs.journal.incomplete()} == in_flight and (
        len(njs.journal) == len(in_flight)
    )


def test_full_site_restart_loses_no_jobs():
    """Gateway + NJS + UUDB die mid-workload; SQLite brings it all back."""
    grid, session = _grid()
    usite = grid.usites["FZJ"]

    finished = session.submit(_quick_job(session, "finished-before"))
    assert session.wait(finished).status == "successful"

    inflight = session.submit(_dag_job(session, "caught-midflight"))
    session.advance(600.0)  # stage-a done, stage-b running
    assert _journal_holds_the_jobs_in_flight(usite.njs)
    assert len(usite.njs.journal) == 1

    usite.crash_site()
    assert usite.njs.crashed and all(gw.down for gw in usite.gateways)
    # The cold crash wiped the Python heap, not the storage backend.
    assert len(usite.njs.runs) == 0
    session.advance(45.0)
    usite.restart_site()
    assert _journal_holds_the_jobs_in_flight(usite.njs)
    assert len(usite.njs.journal) == 1

    final = session.wait(inflight)
    assert final.status == "successful"
    assert len(usite.njs.journal) == 0

    rows = {row.job_id: row for row in session.list_jobs()}
    assert set(rows) == {finished.job_id, inflight.job_id}
    # The replayed job is flagged; the restored finished one keeps its
    # original (un-recovered) history.
    assert rows[inflight.job_id].recovered
    assert not rows[finished.job_id].recovered

    # Outcomes of both jobs are served — one live, one from storage.
    for handle in (finished, inflight):
        outcome = session.outcome(handle)
        assert all(t.stdout for t in outcome.children.values())

    metrics = telemetry_for(grid.sim).metrics
    assert metrics.counter("njs.restored_runs").value == 1
    assert metrics.counter("njs.journal_replays").value == 1


def test_restored_listing_serves_files_and_disposal():
    grid, session = _grid(seed=22)
    usite = grid.usites["FZJ"]
    handle = session.submit(_quick_job(session))
    assert session.wait(handle).status == "successful"

    usite.crash_site()
    session.advance(30.0)
    usite.restart_site()
    assert len(usite.njs.journal) == 0  # finished: not the journal's business

    # Uspace files of the restored job come back from the manifest.
    content = session.fetch_file(handle, "only.o1")
    assert b"completed" in content
    # Disposal drops it from the journal and the outcome store.
    session.dispose(handle)
    assert session.list_jobs() == []
    assert usite.njs.journal.entry(handle.job_id) is None
    assert grid.storage.table("FZJ.journal").keys() == []
    assert handle.job_id not in usite.njs.outcomes


@pytest.mark.parametrize("storage", ["memory", "sqlite"])
@pytest.mark.parametrize("failure", ["njs_crash", "crash_site"])
def test_disposing_a_restored_job_removes_its_job_directories(storage, failure):
    """A finished run holds no Uspace objects, only the persisted
    manifest; dispose still finds the job's directories on the Vsite."""
    grid, session = _grid(seed=29, storage=storage)
    usite = grid.usites["FZJ"]
    spool = usite.vsites["FZJ-T3E"].uspaces
    handle = session.submit(_quick_job(session))
    assert session.wait(handle).status == "successful"
    prefix = f"{handle.job_id}."
    assert any(name.startswith(prefix) for name in spool.active_jobs)
    assert spool.fs.used_bytes > 0
    assert isinstance(usite.njs.runs[handle.job_id], FinishedRun)

    if failure == "njs_crash":
        usite.njs.crash()
        usite.njs.restart()
    else:
        usite.crash_site()
        usite.restart_site()
    assert isinstance(usite.njs.runs[handle.job_id], FinishedRun)
    session.dispose(handle)
    assert not any(name.startswith(prefix) for name in spool.active_jobs)
    assert spool.fs.used_bytes == 0


def test_uudb_and_resource_pages_survive_cold_restart():
    grid, session = _grid(seed=23)
    usite = grid.usites["FZJ"]
    page = usite.vsites["FZJ-T3E"].resource_page

    usite.uudb.disable("CN=Site Tester, O=Test, C=DE")
    usite.crash_site()
    usite.restart_site()

    # The disable was persisted before the crash and restored after it.
    from repro.errors import MappingError
    with pytest.raises(MappingError):
        usite.uudb.map_dn("CN=Site Tester, O=Test, C=DE")
    # Resource pages round-trip through their durable ASN.1 form.
    assert usite.vsites["FZJ-T3E"].resource_page == page


def test_forwarded_group_replays_after_child_site_cold_restart():
    """Parent site forwards a sub-job; the child site power-fails mid-run."""
    grid, session = _grid(sites={"FZJ": ["FZJ-T3E"], "ZIB": ["ZIB-SP2"]},
                          seed=24)
    child = grid.usites["ZIB"]

    root = session.new_job("forwarded", vsite="FZJ-T3E")
    pre = root.script_task(
        "preprocess", script="#!/bin/sh\nprep\n",
        resources=ResourceRequest(cpus=8, time_s=3600),
        simulated_runtime_s=600.0,
    )
    remote = root.sub_job("render@ZIB", vsite="ZIB-SP2", usite="ZIB")
    remote.script_task(
        "render", script="#!/bin/sh\nrender\n",
        resources=ResourceRequest(cpus=8, time_s=3600),
        simulated_runtime_s=300.0,
    )
    root.depends(pre, remote.ajo, files=["field.dat"])
    handle = session.submit(root)

    # Crash the child site while the forwarded group runs there.
    grid.sim.schedule_callback(700.0, child.crash_site)
    grid.sim.schedule_callback(760.0, child.restart_site)

    final = session.wait(handle)
    assert final.status == "successful"
    # The child journaled the forwarded consign (with its forward_meta)
    # and replayed it from SQLite after the cold start.
    assert telemetry_for(grid.sim).metrics.counter(
        "njs.journal_replays"
    ).value >= 1
    outcome = session.outcome(handle)
    assert outcome.rollup_status().value == "successful"
    for usite in grid.usites.values():
        assert len(usite.njs.journal) == 0
        assert _journal_holds_the_jobs_in_flight(usite.njs)


def test_cold_restart_keeps_consignment_order_past_the_id_padding():
    """``U100000`` sorts before ``U99999`` as text; recovery must not."""
    grid, session = _grid(seed=27)
    usite = grid.usites["FZJ"]
    njs = usite.njs
    grid.storage.table("FZJ.meta").put("job_seq", 99_998)
    handles = [
        session.submit(_quick_job(session, f"job-{i}", runtime_s=2000.0))
        for i in range(4)
    ]
    ids = [h.job_id for h in handles]
    assert ids == [f"U{seq}@FZJ" for seq in (99999, 100000, 100001, 100002)]
    assert sorted(ids) != ids
    dn = "CN=Site Tester, O=Test, C=DE"
    listed = [row.job_id for row in njs.runs.listings(dn)]

    # Four jobs in flight: reloaded and replayed in consignment order.
    usite.crash_site()
    usite.restart_site()
    assert [e.job_id for e in njs.journal.incomplete()] == ids
    assert list(njs.runs) == ids
    assert [row.job_id for row in njs.runs.listings(dn)] == listed

    # Four jobs finished: restored in consignment order.
    for handle in handles:
        assert session.wait(handle).status == "successful"
    usite.crash_site()
    usite.restart_site()
    assert len(njs.journal) == 0 and list(njs.runs) == ids
    assert [row.job_id for row in njs.runs.listings(dn)] == listed
    assert all(row.recovered for row in njs.runs.listings(dn))


@pytest.mark.parametrize("storage", ["memory", "sqlite"])
def test_two_cold_restarts_serve_the_same_finished_jobs(storage):
    """The second crash finds only restored runs in memory — nothing is in
    flight, so there is nothing to interrupt — and the second restart
    rebuilds the same jobs from the same rows."""
    grid, session = _grid(seed=28, storage=storage)
    usite = grid.usites["FZJ"]
    handles = [session.submit(_quick_job(session, f"done-{i}")) for i in range(3)]
    for handle in handles:
        assert session.wait(handle).status == "successful"

    names = {h.job_id: sorted(usite.njs.runs[h.job_id].record.files) for h in handles}
    assert all(names.values())

    def served():
        return (
            session.list_jobs(),
            [usite.njs.retrieve_outcome(h.job_id) for h in handles],
            [session.fetch_file(h, path) for h in handles for path in names[h.job_id]],
        )

    before = served()
    assert [row.job_id for row in before[0]] == [h.job_id for h in handles]
    for _ in range(2):
        usite.crash_site()
        session.advance(30.0)
        usite.restart_site()
        assert len(usite.njs.journal) == 0 and len(usite.njs.outcomes) == 3
        assert served() == before


def test_site_restart_fault_kind_is_opt_in():
    # Not part of the default chaos sweep...
    assert FaultKind.SITE_RESTART not in FaultKind.ALL
    # ...but the injector applies it when a plan asks.
    grid, session = _grid(seed=25)
    plan = FaultPlan(
        seed=0, intensity=1.0, horizon_s=3600.0,
        events=(FaultEvent(at_s=500.0, kind=FaultKind.SITE_RESTART,
                           target="FZJ", duration_s=60.0),),
    )
    injector = FaultInjector(grid, plan)
    injector.arm()
    handle = session.submit(_dag_job(session, "through-the-outage"))
    final = session.wait(handle)
    assert final.status == "successful"
    metrics = telemetry_for(grid.sim).metrics
    assert metrics.counter("faults.site_restart").value == 1
    assert metrics.counter("njs.journal_replays").value == 1
    assert len(grid.usites["FZJ"].njs.journal) == 0


def test_snapshot_mid_workload_restores_and_replays():
    """A grid snapshot taken with jobs in flight replays them on thaw."""
    grid, session = _grid(seed=26)
    handle = session.submit(_dag_job(session, "snapshotted"))
    session.advance(600.0)  # mid-DAG

    snap = session.snapshot()

    restored = build_grid(restore_from=snap)
    assert restored.sim.now == grid.sim.now
    assert _journal_holds_the_jobs_in_flight(restored.usites["FZJ"].njs)
    assert len(restored.usites["FZJ"].njs.journal) == 1
    user = restored.users["Site Tester"]
    session2 = GridSession(restored, user, "FZJ")
    final = session2.wait(handle.job_id)
    assert final.status == "successful"
    rows = session2.list_jobs()
    assert [r.job_id for r in rows] == [handle.job_id]
    assert rows[0].recovered


def test_cli_restore_reports_finished_and_in_flight_jobs(tmp_path, capsys):
    """`repro restore` counts finished jobs from the outcome store and
    in-flight ones from the journal."""
    from repro.__main__ import main

    grid, session = _grid(seed=28)
    finished = session.submit(_quick_job(session, "finished-before"))
    assert session.wait(finished).status == "successful"
    session.submit(_dag_job(session, "caught-midflight"))
    session.advance(600.0)
    path = tmp_path / "grid.snapshot"
    session.snapshot().save(str(path))

    main(["restore", str(path)])
    printed = capsys.readouterr().out
    assert "1 site(s), 1 user(s)" in printed
    assert "FZJ: 1 finished job(s) restored, 1 in flight replayed" in printed
