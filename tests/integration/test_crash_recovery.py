"""Integration tests for crash recovery: journal replay, outages, retries.

The tentpole claim of the resilience subsystem: an NJS crash in the
middle of a dependent-task job loses no work the journal recorded — the
restarted NJS re-supervises the job under the same id, the client's
polls keep answering, and the job still completes.
"""

from repro import asn1
from repro.ajo import ListService, SerializationError, encode_service
from repro.api import GridSession
from repro.grid import build_grid
from repro.observability import telemetry_for
from repro.protocol.messages import Request, RequestKind
from repro.protocol.views import JobListingDelta
from repro.server.njs.finished import FinishedRun


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


def test_restart_restores_every_finished_run_from_storage():
    """A crash loses finished runs with the rest of the heap: after the
    restart every one is a ``FinishedRun`` rebuilt from storage, serving
    exactly what the one the job finished into served."""
    grid, session = _session(seed=17)
    njs = grid.usites["FZJ"].njs
    handles = [session.submit(_dag_job(session, f"dag-{i}", 10.0))
               for i in range(2)]
    for handle in handles:
        assert session.wait(handle).status == "successful"
    paths = {h.job_id: sorted(njs.runs[h.job_id].record.files) for h in handles}
    assert all(paths.values())

    def served():  # straight from the NJS: no sim time passes
        return njs.runs.listings(session.session.user_dn), [
            (
                njs.query_status(h.job_id),
                njs.retrieve_outcome(h.job_id),
                [njs.fetch_uspace_file(h.job_id, p) for p in paths[h.job_id]],
            )
            for h in handles
        ]

    before = served()
    assert all(isinstance(njs.runs[h.job_id], FinishedRun) for h in handles)
    njs.crash()
    assert len(njs.runs) == 0
    njs.restart()
    assert all(isinstance(njs.runs[h.job_id], FinishedRun) for h in handles)
    assert served() == before
    metrics = telemetry_for(grid.sim).metrics
    assert metrics.counter("njs.restored_runs").value == len(handles)


def test_a_replayed_job_lists_alike_in_a_delta_and_in_full():
    """A job replayed from the journal is flagged ``recovered`` from the
    moment it re-enters the run table, so a LIST from seq 0 of the
    current epoch returns the very rows a full LIST does."""
    grid, session = _session(seed=19)
    njs = grid.usites["FZJ"].njs
    handle = session.submit(_dag_job(session, stage_runtime_s=4000.0))
    session.advance(600.0)
    njs.crash()
    njs.restart()
    # Held before it delivers again: the job keeps the status it
    # re-entered with, so no later change rewrites its row.
    njs.hold(handle.job_id)

    def list_jobs(since_seq, epoch):
        answer = {}

        def ask(sim):
            answer["reply"] = yield from session.session.client.interact(Request(
                kind=RequestKind.LIST,
                user_dn=session.session.user_dn,
                payload=encode_service(ListService("l", since_seq=since_seq, epoch=epoch)),
            ))

        grid.sim.run(until=grid.sim.process(ask(grid.sim)))
        return JobListingDelta.from_value(
            asn1.decode(answer["reply"].unwrap(), SerializationError)
        )

    full = list_jobs(-1, -1)
    delta = list_jobs(0, full.epoch)
    assert full.full and not delta.full
    assert [row.recovered for row in full.listings] == [True]
    assert delta.listings == full.listings


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
