"""Integration tests for NJS and gateway edge cases and failure injection."""

import pytest

from repro.ajo import ActionStatus, ValidationError
from repro.ajo.serialize import decode_outcome
from repro.api import GridSession
from repro.client import JobMonitorController, JobPreparationAgent
from repro.grid import build_grid
from repro.observability import telemetry_for
from repro.resources import ResourceRequest

#: The one Vsite of each Usite in ``duo``.
VSITE = {"FZJ": "FZJ-T3E", "ZIB": "ZIB-SP2"}


@pytest.fixture()
def duo():
    grid = build_grid({"FZJ": ["FZJ-T3E"], "ZIB": ["ZIB-SP2"]}, seed=29)
    user = grid.add_user("Edge", logins={"FZJ": "edge", "ZIB": "edge_b"})
    session = grid.connect_user(user, "FZJ")
    return grid, user, session


def test_cancel_propagates_to_forwarded_group(duo):
    grid, user, session = duo
    jpa = JobPreparationAgent(session)
    jmc = JobMonitorController(session)
    root = jpa.new_job("spanning", vsite="FZJ-T3E")
    root.script_task("local-long", script="#!/bin/sh\nx\n",
                     resources=ResourceRequest(cpus=1, time_s=80000),
                     simulated_runtime_s=70000.0)
    sub = root.sub_job("remote", vsite="ZIB-SP2", usite="ZIB")
    sub.script_task("remote-long", script="#!/bin/sh\nx\n",
                    resources=ResourceRequest(cpus=1, time_s=80000),
                    simulated_runtime_s=70000.0)

    def scenario(sim):
        job_id = yield from jpa.submit(root)
        yield sim.timeout(300.0)  # both parts are running by now
        yield from jmc.cancel(job_id)
        final = yield from jmc.wait_for_completion(job_id)
        return final

    p = grid.sim.process(scenario(grid.sim))
    final = grid.sim.run(until=p)
    assert final.status == "killed"
    # The remote batch job was really cancelled at ZIB.
    from repro.batch import BatchState

    zib_records = grid.usites["ZIB"].vsites["ZIB-SP2"].batch.all_records()
    assert zib_records and zib_records[0].state is BatchState.CANCELLED
    # And the local one at FZJ.
    fzj_records = grid.usites["FZJ"].vsites["FZJ-T3E"].batch.all_records()
    assert fzj_records[0].state is BatchState.CANCELLED


def _long_task(builder, name):
    builder.script_task(name, script="#!/bin/sh\nx\n",
                        resources=ResourceRequest(cpus=1, time_s=80000),
                        simulated_runtime_s=70000.0)


def _cancel_mid_run(grid, session, root):
    """Submit ``root``, cancel it once every part was delivered, and
    return its final status."""
    jpa = JobPreparationAgent(session)
    jmc = JobMonitorController(session)

    def scenario(sim):
        job_id = yield from jpa.submit(root)
        yield sim.timeout(300.0)
        yield from jmc.cancel(job_id)
        yield sim.timeout(600.0)
        return (yield from jmc.wait_for_completion(job_id))

    return grid.sim.run(until=grid.sim.process(scenario(grid.sim))).status


def _live_records(grid, usite):
    return [
        r for vsite in grid.usites[usite].vsites.values()
        for r in vsite.batch.all_records() if not r.state.is_terminal
    ]


def test_cancel_reaches_both_groups_forwarded_to_one_site(duo):
    grid, _, session = duo
    root = JobPreparationAgent(session).new_job("twice", vsite="FZJ-T3E")
    for name in ("left", "right"):
        _long_task(root.sub_job(name, vsite="ZIB-SP2", usite="ZIB"), name)
    assert _cancel_mid_run(grid, session, root) == "killed"
    records = grid.usites["ZIB"].vsites["ZIB-SP2"].batch.all_records()
    assert len(records) == 2
    assert _live_records(grid, "ZIB") == []


def test_cancel_reaches_a_group_forwarded_from_a_local_group(duo):
    grid, _, session = duo
    root = JobPreparationAgent(session).new_job("deep", vsite="FZJ-T3E")
    inner = root.sub_job("inner", vsite="FZJ-T3E", usite="FZJ")
    _long_task(inner, "here")
    _long_task(inner.sub_job("remote", vsite="ZIB-SP2", usite="ZIB"), "there")
    assert _cancel_mid_run(grid, session, root) == "killed"
    assert grid.usites["ZIB"].vsites["ZIB-SP2"].batch.all_records()
    assert _live_records(grid, "ZIB") == []
    assert _live_records(grid, "FZJ") == []


def test_a_job_reads_as_the_work_in_its_local_sub_group(duo):
    """Status and listing roll up through a sub-group in flight (they
    read ``pending`` while its task was queued)."""
    grid, _, session = duo
    jpa = JobPreparationAgent(session)
    jmc = JobMonitorController(session)
    root = jpa.new_job("nested", vsite="FZJ-T3E")
    sub = root.sub_job("inner", vsite="FZJ-T3E", usite="FZJ")
    sub.script_task("work", script="#!/bin/sh\nx\n", simulated_runtime_s=600.0)

    def scenario(sim):
        job_id = yield from jpa.submit(root)
        yield sim.timeout(30.0)
        view = yield from jmc.status(job_id)
        rows = yield from jmc.list_jobs()
        final = yield from jmc.wait_for_completion(job_id)
        return view, rows, final

    view, rows, final = grid.sim.run(until=grid.sim.process(scenario(grid.sim)))
    [group] = view.children
    [task] = group.children
    assert task.status == group.status == view.status == "queued"
    assert [row.status for row in rows] == ["queued"]
    assert final.status == "successful"


def test_a_resubmitted_job_survives_disposal_of_its_twin(duo):
    """A saved job loaded twice keeps its action ids in both runs; the
    first run's disposal leaves the second untouched."""
    grid, _, session = duo
    jpa = JobPreparationAgent(session)
    jmc = JobMonitorController(session)
    job = jpa.new_job("again", vsite="FZJ-T3E")
    job.script_task("work", script="#!/bin/sh\nx\n", simulated_runtime_s=60.0)
    saved = job.save()
    first, second = jpa.load_job(saved), jpa.load_job(saved)
    second.ajo.children[0].simulated_runtime_s = 600.0

    def scenario(sim):
        first_id = yield from jpa.submit(first)
        second_id = yield from jpa.submit(second)
        yield from jmc.wait_for_completion(first_id)
        yield from jmc.dispose(first_id)
        mid = yield from jmc.status(second_id)
        final = yield from jmc.wait_for_completion(second_id)
        outcome = yield from jmc.outcome(second_id)
        return mid, final, outcome

    mid, final, outcome = grid.sim.run(until=grid.sim.process(scenario(grid.sim)))
    assert not ActionStatus(mid.status).is_terminal
    assert final.status == "successful"
    [task] = second.ajo.children
    assert outcome.child(task.id).status is ActionStatus.SUCCESSFUL


def _finished_two_site_job(grid, user):
    session = GridSession(grid, user, "FZJ")
    job = session.new_job("spanning", "FZJ-T3E")
    job.script_task("here", "#!/bin/sh\nx\n", simulated_runtime_s=30.0)
    sub = job.sub_job("remote", vsite="ZIB-SP2", usite="ZIB")
    sub.script_task("there", "#!/bin/sh\nx\n", simulated_runtime_s=30.0)
    handle = session.submit(job)
    assert session.wait(handle).status == "successful"
    return session, handle


@pytest.mark.parametrize("restart", [False, True])
def test_cancelling_a_finished_job_does_nothing(duo, restart, monkeypatch):
    """The NJS decides cancel on a finished job once: nothing to do.  No
    CancelGroup goes to the site its group ran at.  No journal row is read
    back and no AJO decoded to find that site, whether the job finished
    in this life of the NJS or an earlier one."""
    grid, user, _ = duo
    session, handle = _finished_two_site_job(grid, user)
    fzj = grid.usites["FZJ"]
    if restart:
        fzj.crash_site()
        fzj.restart_site()
    decodes = []
    monkeypatch.setattr(
        "repro.server.njs.finished.decode_ajo", decodes.append
    )
    sent, reads = grid.network.total_bytes_sent(), grid.storage.reads
    fzj.njs.cancel(handle.job_id)
    session.advance(120.0)
    assert grid.network.total_bytes_sent() == sent
    assert grid.storage.reads == reads
    assert decodes == []
    assert fzj.njs.runs[handle.job_id].status() is ActionStatus.SUCCESSFUL


def test_disposing_a_forwarded_group_releases_its_parent_binding(duo):
    grid, user, _ = duo
    _, handle = _finished_two_site_job(grid, user)
    zib = grid.usites["ZIB"].njs
    (group,) = zib.runs.serving(handle.job_id)
    zib.dispose(group.job_id)
    assert zib.runs.serving(handle.job_id) == []


def test_transfer_to_unknown_usite_fails_task_only(duo):
    grid, user, session = duo
    jpa = JobPreparationAgent(session)
    jmc = JobMonitorController(session)
    job = jpa.new_job("badxfer", vsite="FZJ-T3E")
    work = job.script_task("w", script="#!/bin/sh\nx\n", simulated_runtime_s=10.0)
    xfer = job.transfer_to_usite("out.dat", "ATLANTIS")
    job.depends(work, xfer, files=["out.dat"])

    def scenario(sim):
        job_id = yield from jpa.submit(job)
        final = yield from jmc.wait_for_completion(job_id)
        outcome = yield from jmc.outcome(job_id)
        return final, outcome

    p = grid.sim.process(scenario(grid.sim))
    final, outcome = grid.sim.run(until=p)
    assert final.status == "failed"
    assert outcome.child(work.id).status is ActionStatus.SUCCESSFUL
    assert outcome.child(xfer.id).status is ActionStatus.FAILED
    assert "no route" in outcome.child(xfer.id).reason


@pytest.mark.parametrize("consumer, sub_usite", [
    ("export", "FZJ"), ("export", "ZIB"), ("transfer", "FZJ"),
])
def test_a_file_task_gets_the_file_a_sub_group_hands_it(duo, consumer, sub_usite):
    """An export or transfer fed by a sub-group's file through a
    dependency edge moves the sub-group's bytes, not a missing file."""
    grid, user, session = duo
    jpa = JobPreparationAgent(session)
    jmc = JobMonitorController(session)
    job = jpa.new_job("handed", vsite="FZJ-T3E")
    sub = job.sub_job("make", vsite=VSITE[sub_usite], usite=sub_usite)
    sub.script_task("produce", script="#!/bin/sh\nx\n", simulated_runtime_s=10.0)
    if consumer == "export":
        task = job.export_to_xspace("out.dat", "/out/out.dat")
    else:
        task = job.transfer_to_usite("out.dat", "ZIB")
        reader = job.sub_job("read", vsite="ZIB-SP2", usite="ZIB")
        reader.script_task("read", script="#!/bin/sh\nx\n", simulated_runtime_s=10.0)
        job.depends(task, reader)
    job.depends(sub, task, files=["out.dat"])

    def scenario(sim):
        job_id = yield from jpa.submit(job)
        final = yield from jmc.wait_for_completion(job_id)
        return job_id, final

    job_id, final = grid.sim.run(until=grid.sim.process(scenario(grid.sim)))
    assert final.status == "successful"
    zib = grid.usites["ZIB"].njs.runs
    if sub_usite == "FZJ":
        uspaces = grid.usites["FZJ"].vsites["FZJ-T3E"].uspaces
        produced = uspaces.get(f"{job_id}.{sub.ajo.id}").body("out.dat")
    else:
        produced = zib.serving(job_id)[-1].file("out.dat")
    if consumer == "export":
        delivered = grid.usites["FZJ"].xspace.fs.body("/out/out.dat")
    else:
        delivered = zib.serving(job_id)[-1].file("out.dat")
    assert len(produced) > 0
    assert delivered == produced


def test_a_forwarded_group_starts_with_its_staging_and_earlier_transfers(
    duo, monkeypatch
):
    """A forwarded group's first task starts the instant the group is
    consigned; by then its root Uspace holds the files the group was
    staged with and what a transfer of the parent job left at the site
    before the group arrived."""
    grid, user, session = duo
    jpa = JobPreparationAgent(session)
    jmc = JobMonitorController(session)
    job = jpa.new_job("bound", vsite="FZJ-T3E")
    make = job.script_task("make", script="#!/bin/sh\nx\n", simulated_runtime_s=10.0)
    xfer = job.transfer_to_usite("moved.dat", "ZIB")
    far = job.sub_job("far", vsite="ZIB-SP2", usite="ZIB")
    far.script_task("use", script="#!/bin/sh\nx\n", simulated_runtime_s=10.0)
    job.depends(make, xfer, files=["moved.dat"])
    job.depends(xfer, far)
    job.depends(make, far, files=["staged.dat"])

    zib = grid.usites["ZIB"].njs
    executor = zib._executor
    incarnate = executor._incarnate
    found = []

    def first_step(run, group, task, promised):
        # The task's first step, taken as its group starts.
        uspace = run.uspaces[group.id]
        found.append({p: uspace.exists(p) for p in ("staged.dat", "moved.dat")})
        return incarnate(run, group, task, promised)

    monkeypatch.setattr(executor, "_incarnate", first_step)

    def scenario(sim):
        job_id = yield from jpa.submit(job)
        final = yield from jmc.wait_for_completion(job_id)
        return final

    final = grid.sim.run(until=grid.sim.process(scenario(grid.sim)))
    assert final.status == "successful"
    assert found == [{"staged.dat": True, "moved.dat": True}]
    assert zib.forwarding.stashes()["early"] == {}


def test_missing_workstation_file_fails_import(duo):
    grid, user, session = duo
    jpa = JobPreparationAgent(session)
    user.workstation.fs.write("/home/edge/real.dat", b"data")
    job = jpa.new_job("wsimport", vsite="FZJ-T3E")
    job.import_from_workstation("/home/edge/real.dat", "a.dat")

    # Submitting with a workstation that lacks the file fails client-side.
    from repro.vfs import Workstation

    empty_ws = Workstation("CN=Edge")

    def scenario(sim):
        yield from jpa.submit(job, workstation=empty_ws)

    p = grid.sim.process(scenario(grid.sim))
    from repro.vfs.errors import FileNotFoundVFSError

    with pytest.raises(FileNotFoundVFSError):
        grid.sim.run(until=p)


def test_workstation_import_requires_workstation_argument(duo):
    grid, user, session = duo
    jpa = JobPreparationAgent(session)
    job = jpa.new_job("noworkstation", vsite="FZJ-T3E")
    job.import_from_workstation("/home/edge/x.dat", "x.dat")

    def scenario(sim):
        yield from jpa.submit(job)

    p = grid.sim.process(scenario(grid.sim))
    with pytest.raises(ValidationError, match="no workstation"):
        grid.sim.run(until=p)


def test_spoofed_user_dn_rejected_by_gateway(duo):
    """A request claiming another user's DN over an authenticated channel."""
    grid, user, session = duo
    from repro.protocol.messages import Request, RequestKind

    captured = {}

    def scenario(sim):
        request = Request(
            kind=RequestKind.LIST,
            user_dn="CN=Somebody Else",  # != the channel's certificate
            payload=__import__("repro.ajo", fromlist=["encode_service"])
            .encode_service(
                __import__("repro.ajo", fromlist=["ListService"]).ListService("l")
            ),
        )
        reply = yield from session.client.interact(request)
        captured["reply"] = reply

    p = grid.sim.process(scenario(grid.sim))
    grid.sim.run(until=p)
    assert not captured["reply"].ok
    assert "identity mismatch" in captured["reply"].error
    assert grid.usites["FZJ"].gateway.auth_failures >= 1


def test_oversized_request_rejected_by_jpa_client_side(duo):
    grid, user, session = duo
    jpa = JobPreparationAgent(session)
    job = jpa.new_job("huge", vsite="FZJ-T3E")
    with pytest.raises(ValidationError, match="above maximum"):
        job.script_task(
            "monster", script="#!/bin/sh\nx\n",
            resources=ResourceRequest(cpus=4096, time_s=60),
        )


def test_batch_queue_rejection_reported_in_outcome(duo):
    """A task that passes the page check can still hit queue limits at
    submission time (e.g. memory beyond the machine)."""
    grid, user, session = duo
    jpa = JobPreparationAgent(session)
    jmc = JobMonitorController(session)
    job = jpa.new_job("memhog", vsite="FZJ-T3E")
    # 512*128MB = 65536MB machine memory; page allows memory up to total,
    # so ask within page but with cpus*... actually ask exactly at the
    # machine's total memory with 1 cpu: page ok, batch rejects.
    job.script_task(
        "hog", script="#!/bin/sh\nx\n",
        resources=ResourceRequest(cpus=1, time_s=600,
                                  memory_mb=65536.0),
        simulated_runtime_s=10.0,
    )

    def scenario(sim):
        job_id = yield from jpa.submit(job)
        final = yield from jmc.wait_for_completion(job_id)
        outcome = yield from jmc.outcome(job_id)
        return final, outcome

    p = grid.sim.process(scenario(grid.sim))
    final, outcome = grid.sim.run(until=p)
    # Either the NJS consign check or the batch system rejected it; in
    # both cases the user sees a clean failure, never a hang.
    assert final.status in ("failed", "successful")


def test_two_jobs_share_nothing(duo):
    """Uspace isolation: identical file names in two jobs never collide."""
    grid, user, session = duo
    jpa = JobPreparationAgent(session)
    jmc = JobMonitorController(session)

    def make(name, content_marker):
        job = jpa.new_job(name, vsite="FZJ-T3E")
        work = job.script_task(f"w-{name}", script="#!/bin/sh\nx\n",
                               simulated_runtime_s=10.0)
        exp = job.export_to_xspace("result.dat", f"/out/{name}.dat")
        job.depends(work, exp, files=["result.dat"])
        return job

    def scenario(sim):
        id1 = yield from jpa.submit(make("iso1", b"one"))
        id2 = yield from jpa.submit(make("iso2", b"two"))
        yield from jmc.wait_for_completion(id1)
        yield from jmc.wait_for_completion(id2)

    grid.sim.run(until=grid.sim.process(scenario(grid.sim)))
    xfs = grid.usites["FZJ"].xspace.fs
    assert xfs.exists("/out/iso1.dat") and xfs.exists("/out/iso2.dat")


def test_list_jobs_scoped_to_user(duo):
    grid, user, session = duo
    other = grid.add_user("Other", logins={"FZJ": "other"})
    other_session = grid.connect_user(other, "FZJ")
    jpa = JobPreparationAgent(session)
    job = jpa.new_job("mine", vsite="FZJ-T3E")
    job.script_task("t", script="#!/bin/sh\nx\n", simulated_runtime_s=5.0)

    def scenario(sim):
        yield from jpa.submit(job)
        mine = yield from JobMonitorController(session).list_jobs()
        theirs = yield from JobMonitorController(other_session).list_jobs()
        return mine, theirs

    p = grid.sim.process(scenario(grid.sim))
    mine, theirs = grid.sim.run(until=p)
    assert len(mine) == 1
    assert theirs == []


# -- a two-task chain: what a successor gets when its predecessor's run is
# interrupted.  A task is incarnated as its group starts, beside its
# predecessor; nothing about it is delivered before the predecessor ends.

SCRIPT = "#!/bin/sh\nx\n"


def _pair(grid, user, first_resources=None, second_resources=None):
    """Consign ``first -> second`` at FZJ and run into ``first``'s batch
    run; returns the session, the handle and both tasks."""
    session = GridSession(grid, user, "FZJ")
    job = session.new_job("pair", "FZJ-T3E")
    first, second = (
        job.script_task(
            name, SCRIPT, simulated_runtime_s=100.0,
            **({} if resources is None else {"resources": resources}),
        )
        for name, resources in (
            ("first", first_resources), ("second", second_resources)
        )
    )
    job.depends(first, second)
    handle = session.submit(job)
    grid.sim.run(until=grid.sim.now + 50.0)
    return session, handle, first, second


def _delivered(grid):
    """The names of the tasks FZJ's batch system was handed."""
    batch = grid.usites["FZJ"].vsites["FZJ-T3E"].batch
    return {r.spec.name: r for r in batch.all_records()}


def test_an_account_disabled_mid_job_delivers_nothing_more(duo):
    """The account is bound at delivery, not at incarnation: the second
    task is refused under the login the first one ran with."""
    grid, user, _ = duo
    _, handle, first, second = _pair(grid, user)
    njs = grid.usites["FZJ"].njs
    run = njs.runs[handle.job_id]
    assert set(_delivered(grid)) == {"first"}
    grid.usites["FZJ"].uudb.disable(run.user_dn)
    grid.sim.run(until=run.done_event)
    # The gateway refuses the disabled user too: read the NJS's outcome.
    outcome = decode_outcome(njs.retrieve_outcome(handle.job_id))
    assert outcome.child(first.id).status is ActionStatus.SUCCESSFUL
    refused = outcome.child(second.id)
    assert refused.status is ActionStatus.FAILED
    assert refused.reason == f"site FZJ: account for {run.user_dn!r} disabled"
    assert set(_delivered(grid)) == {"first"}


def test_a_failed_task_leaves_its_successor_undelivered(duo):
    grid, user, _ = duo
    session, handle, first, second = _pair(
        grid, user, first_resources=ResourceRequest(cpus=1, time_s=60.0)
    )
    assert session.wait(handle).status == "failed"
    outcome = session.outcome(handle)
    assert outcome.child(first.id).status is ActionStatus.FAILED
    skipped = outcome.child(second.id)
    assert skipped.status is ActionStatus.NOT_ATTEMPTED
    assert skipped.reason == f"predecessor {first.id} failed"
    assert set(_delivered(grid)) == {"first"}


def test_a_job_cancelled_mid_run_leaves_its_successor_undelivered(duo):
    """The running task is killed, and its successor is not attempted."""
    grid, user, _ = duo
    session, handle, first, second = _pair(grid, user)
    session.cancel(handle)
    assert session.wait(handle).status == "killed"
    outcome = session.outcome(handle)
    assert outcome.child(first.id).status is ActionStatus.KILLED
    skipped = outcome.child(second.id)
    assert skipped.status is ActionStatus.NOT_ATTEMPTED
    assert skipped.reason == f"predecessor {first.id} killed"
    assert set(_delivered(grid)) == {"first"}


def test_a_held_job_cancelled_kills_its_successor_undelivered(duo):
    """The first task finished under the hold; the cancel kills the
    successor that was incarnated but never delivered."""
    grid, user, _ = duo
    session, handle, first, second = _pair(grid, user)
    session.hold(handle)
    grid.sim.run(until=grid.sim.now + 500.0)
    session.cancel(handle)
    assert session.wait(handle).status == "killed"
    outcome = session.outcome(handle)
    assert outcome.child(first.id).status is ActionStatus.SUCCESSFUL
    killed = outcome.child(second.id)
    assert killed.status is ActionStatus.KILLED
    assert killed.reason == "job cancelled"
    assert set(_delivered(grid)) == {"first"}


def test_a_held_job_delivers_its_successor_only_after_resume(duo):
    grid, user, _ = duo
    session, handle, first, second = _pair(grid, user)
    session.hold(handle)
    grid.sim.run(until=grid.sim.now + 500.0)
    assert set(_delivered(grid)) == {"first"}
    resumed_at = grid.sim.now
    session.resume(handle)
    assert session.wait(handle).status == "successful"
    delivered = _delivered(grid)
    assert delivered["first"].end_time < resumed_at
    assert delivered["second"].submit_time >= resumed_at


def _small_queue_only(grid):
    """Leave FZJ-T3E's batch system one queue, of at most 3600 s, while
    its resource page still advertises a day: arrival analysis warns
    (AJO306) that no queue admits a longer task, and accepts it."""
    queues = grid.usites["FZJ"].vsites["FZJ-T3E"].batch.queues
    for name in [q for q in queues if q != "small"]:
        del queues[name]


def test_a_task_no_queue_admits_is_not_attempted_after_a_failed_predecessor(duo):
    """Its incarnation fails beside the predecessor's run, and the task
    still ends the way an undelivered successor ends."""
    grid, user, _ = duo
    _small_queue_only(grid)
    session, handle, first, second = _pair(
        grid, user,
        first_resources=ResourceRequest(cpus=1, time_s=60.0),
        second_resources=ResourceRequest(cpus=1, time_s=7200.0),
    )
    assert session.wait(handle).status == "failed"
    outcome = session.outcome(handle)
    assert outcome.child(first.id).status is ActionStatus.FAILED
    skipped = outcome.child(second.id)
    assert skipped.status is ActionStatus.NOT_ATTEMPTED
    assert skipped.reason == f"predecessor {first.id} failed"
    assert set(_delivered(grid)) == {"first"}


def test_a_task_no_queue_admits_fails_when_it_is_due_for_delivery(duo):
    grid, user, _ = duo
    _small_queue_only(grid)
    session, handle, first, second = _pair(
        grid, user, second_resources=ResourceRequest(cpus=1, time_s=7200.0)
    )
    assert session.wait(handle).status == "failed"
    outcome = session.outcome(handle)
    assert outcome.child(first.id).status is ActionStatus.SUCCESSFUL
    refused = outcome.child(second.id)
    assert refused.status is ActionStatus.FAILED
    assert refused.reason.startswith("Vsite FZJ-T3E: no queue admits cpus=1")
    assert set(_delivered(grid)) == {"first"}
    trace = telemetry_for(grid.sim).tracer.trace(handle.trace_id)
    spans = trace.find("njs.incarnate")
    assert [s.finished for s in spans] == [True, True]
    assert [s.status for s in spans] == ["ok", "error"]
