"""Integration tests for crash recovery: journal replay, outages, retries.

The tentpole claim of the resilience subsystem: an NJS crash in the
middle of a dependent-task job loses no work the journal recorded — the
restarted NJS re-supervises the job under the same id, the client's
polls keep answering, and the job still completes.
"""

from repro.api import GridSession
from repro.grid import build_grid
from repro.observability import telemetry_for


def _session(seed=13):
    grid = build_grid({"FZJ": ["FZJ-T3E"]}, seed=seed)
    user = grid.add_user(
        "Crash Tester", organization="Test", logins={"FZJ": "crash"}
    )
    return grid, GridSession(grid, user, "FZJ")


def _dag_job(session, name="dag", stage_runtime_s=400.0):
    """Three dependent script stages — a crash mid-DAG leaves stages undone."""
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


def test_njs_crash_mid_dag_recovers_via_journal_replay():
    grid, session = _session()
    njs = grid.usites["FZJ"].njs
    handle = session.submit(_dag_job(session))

    # Let stage-a finish and stage-b get going, then pull the plug.
    session.advance(600.0)
    assert njs.journal.entry(handle.job_id) is not None
    assert len(njs.journal) == 1
    njs.crash()
    assert njs.crashed
    session.advance(45.0)
    njs.restart()
    assert njs.replays == 1
    assert len(njs.journal) == 1

    final = session.wait(handle)
    assert final.status == "successful"
    # Finished: the outcome row says so, and the journal lets the job go.
    assert len(njs.journal) == 0 and handle.job_id in njs.outcomes

    # The replayed run is flagged for the user and traced for operators.
    rows = session.list_jobs()
    assert [r.job_id for r in rows] == [handle.job_id]
    assert rows[0].recovered

    telemetry = telemetry_for(grid.sim)
    assert telemetry.metrics.counter("njs.journal_replays").value == 1
    trace = telemetry.tracer.trace(handle.trace_id)
    names = [span.name for span in trace.spans]
    assert "njs.replay" in names

    # The outcome tree is complete despite the mid-flight restart.
    outcome = session.outcome(handle)
    outputs = {o.strip() for o in (t.stdout for t in outcome.children.values())}
    assert len(outcome.children) == 3
    assert all(outputs)


def test_client_polls_ride_out_the_crash_window():
    """No operator intervention: crash + restart while the client waits."""
    grid, session = _session(seed=14)
    njs = grid.usites["FZJ"].njs
    sim = grid.sim
    handle = session.submit(_dag_job(session, name="unattended"))

    # Schedule the crash and the restart as the injector would.
    sim.schedule_callback(500.0, njs.crash)
    sim.schedule_callback(560.0, njs.restart)

    final = session.wait(handle)
    assert final.status == "successful"
    assert njs.crashes == 1
    assert njs.replays == 1
    assert len(njs.journal) == 0


def test_crash_before_any_delivery_still_replays():
    grid, session = _session(seed=15)
    njs = grid.usites["FZJ"].njs
    sim = grid.sim
    # Crash almost immediately after the consign ack: nothing delivered yet.
    handle = session.submit(_dag_job(session, name="early-crash"))
    sim.schedule_callback(1.0, njs.crash)
    sim.schedule_callback(30.0, njs.restart)
    final = session.wait(handle)
    assert final.status == "successful"
    assert len(njs.journal) == 0


def test_restart_restores_only_the_finished_runs_memory_lost():
    """A finished run that survived the crash in memory is kept as it is;
    only the ones missing from memory come back from the outcome store."""
    grid, session = _session(seed=17)
    njs = grid.usites["FZJ"].njs
    handles = [session.submit(_dag_job(session, f"dag-{i}", 10.0))
               for i in range(2)]
    for handle in handles:
        assert session.wait(handle).status == "successful"
    # Lose the second run from memory only: dispose forgets it everywhere,
    # then its outcome row goes back into storage while the NJS is down.
    lost = handles[1].job_id
    record = njs.outcomes.get(lost)
    files = {path: njs.fetch_uspace_file(lost, path) for path in record.files}
    njs.dispose(lost)
    njs.crash()
    kept = njs.runs[handles[0].job_id]
    njs.outcomes.put(record, files)
    njs.restart()
    assert njs.runs[handles[0].job_id] is kept
    metrics = telemetry_for(grid.sim).metrics
    assert metrics.counter("njs.restored_runs").value == 1
    assert [r.job_id for r in session.list_jobs()] == [
        h.job_id for h in handles
    ]


def test_vsite_outage_queues_tasks_instead_of_failing():
    grid, session = _session(seed=16)
    batch = grid.usites["FZJ"].vsites["FZJ-T3E"].batch
    sim = grid.sim

    handle = session.submit(_dag_job(session, name="outage"))
    sim.schedule_callback(450.0, lambda: batch.set_offline(True))
    sim.schedule_callback(600.0, lambda: batch.set_offline(False))

    final = session.wait(handle)
    assert final.status == "successful"
    metrics = telemetry_for(grid.sim).metrics
    assert metrics.counter("batch.outages").value == 1
    # The task killed by the outage (or refused during it) was retried.
    assert (
        metrics.counter("njs.task_resubmissions").value
        + metrics.counter("njs.task_retry_waits").value
    ) >= 1


def test_node_failure_resubmission():
    grid, session = _session(seed=17)
    batch = grid.usites["FZJ"].vsites["FZJ-T3E"].batch
    sim = grid.sim

    handle = session.submit(_dag_job(session, name="node-fail"))

    def kill_one():
        running = batch.running_job_ids()
        if running:
            batch.fail_job(running[0], reason="node failure")

    sim.schedule_callback(450.0, kill_one)
    final = session.wait(handle)
    assert final.status == "successful"
    metrics = telemetry_for(grid.sim).metrics
    assert metrics.counter("batch.node_failures").value == 1
    assert metrics.counter("njs.task_resubmissions").value == 1
