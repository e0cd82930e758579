"""Integration tests for completion-event subscription monitoring.

The hot-path tentpole: ``GridSession.wait`` parks one QUERY at the
gateway until the job completes instead of running a poll train.  These
tests pin the observable contract — far fewer protocol interactions for
the same answer, delta-based LIST views run over the same session, a
typed ``WaitTimeout`` when the renewal budget is exhausted, and survival
of an NJS crash while a subscription is parked.
"""

import pytest

from repro import asn1
from repro.ajo import QueryService, SerializationError, encode_service
from repro.api import GridSession
from repro.client import JobMonitorController
from repro.errors import ReproError, WaitTimeout
from repro.grid import build_grid
from repro.observability import telemetry_for
from repro.protocol.views import JobStatusView
from repro.resources import ResourceRequest


def _session(seed=11):
    grid = build_grid({"FZJ": ["FZJ-T3E"]}, seed=seed)
    user = grid.add_user("Sub User", logins={"FZJ": "sub"})
    return grid, GridSession(grid, user, "FZJ")


def _job(session, name="subwork", runtime_s=3000.0):
    job = session.new_job(name)
    job.script_task(
        "work", "#!/bin/sh\nwork\n",
        resources=ResourceRequest(cpus=1, time_s=runtime_s * 1.5),
        simulated_runtime_s=runtime_s,
    )
    return job


def _requests_sent(grid):
    return telemetry_for(grid.sim).metrics.counter_value("protocol.requests_sent")


def test_subscription_wait_replaces_the_poll_train():
    grid, session = _session()
    handle = session.submit(_job(session, runtime_s=3000.0))
    before = _requests_sent(grid)
    final = session.wait(handle)
    subscribe_cost = _requests_sent(grid) - before
    assert final.status == "successful"

    # Same workload under the paper's consign-and-poll pattern (the
    # protocol client's poll_until, 30s default cadence).
    grid2, session2 = _session()
    handle2 = session2.submit(_job(session2, runtime_s=3000.0))
    before = _requests_sent(grid2)
    query = encode_service(QueryService("poll", target_job_id=handle2.job_id))
    reply = grid2.sim.run(until=grid2.sim.process(
        session2.session.client.poll_until(
            make_query=lambda: query,
            user_dn=session2.session.user_dn,
            is_done=lambda r: JobStatusView.from_value(
                asn1.decode(r.unwrap(), SerializationError)
            ).status == "successful",
        )
    ))
    poll_cost = _requests_sent(grid2) - before
    assert reply.ok

    # One parked interaction (plus at most a renewal) versus ~100 polls.
    assert subscribe_cost <= 3
    assert poll_cost >= 10 * subscribe_cost
    holds = telemetry_for(grid.sim).metrics.counter_value(
        "gateway.subscribe_holds"
    )
    assert holds >= 1


def test_subscription_wait_survives_njs_crash_window():
    grid, session = _session()
    njs = grid.usites["FZJ"].njs
    handle = session.submit(_job(session, runtime_s=2000.0))
    # Crash while the subscription is parked; restart shortly after.
    grid.sim.schedule_callback(300.0, njs.crash)
    grid.sim.schedule_callback(420.0, njs.restart)
    final = session.wait(handle)
    assert final.is_terminal
    assert final.status == "successful"
    assert njs.crashes == 1


def test_subscribe_renewal_budget_also_raises_wait_timeout():
    """``max_polls`` bounds the subscription renewals (two 7 200 s holds
    end before a 20 000 s job does)."""
    grid, session = _session()
    handle = session.submit(_job(session, runtime_s=20_000.0))
    with pytest.raises(WaitTimeout) as exc_info:
        session.wait(handle, max_polls=2)
    err = exc_info.value
    assert err.code == "api.wait_timeout"
    assert err.job_id == handle.job_id
    assert err.polls == 2
    # It is a ReproError (typed API surface), not a transport error the
    # session would have swallowed and retried.
    assert isinstance(err, ReproError)
    # The job is still live server-side; a real wait still works.
    view = session.status(handle)
    assert not view.is_terminal


def test_list_jobs_uses_delta_views_across_refreshes():
    grid, session = _session()
    jmc = JobMonitorController(session.session)
    metrics = telemetry_for(grid.sim).metrics

    h1 = session.submit(_job(session, "first", runtime_s=200.0))

    def _listing():
        proc = grid.sim.process(jmc.list_jobs(), name="listing")
        return grid.sim.run(until=proc)

    rows = _listing()
    assert {row.job_id for row in rows} == {h1.job_id}

    # Second refresh after a new submission rides the cursor: the wire
    # answer is a delta (counted), yet the merged view is complete.
    h2 = session.submit(_job(session, "second", runtime_s=200.0))
    before = metrics.counter_value("jmc.delta_views")
    rows = _listing()
    assert metrics.counter_value("jmc.delta_views") == before + 1
    assert {row.job_id for row in rows} == {h1.job_id, h2.job_id}

    # Jobs finishing show up through the same delta stream.
    session.wait(h1)
    session.wait(h2)
    rows = _listing()
    by_id = {row.job_id: row for row in rows}
    assert by_id[h1.job_id].status == "successful"
    assert by_id[h2.job_id].status == "successful"

    # An idle refresh is an empty delta, not a resync.
    assert _listing() == rows
