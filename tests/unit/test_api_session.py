"""Unit tests for the public GridSession facade."""


import pytest

from repro.api import GridSession, JobHandle
from repro.faults import CircuitOpenError, ServiceUnavailable
from repro.grid import build_grid
from repro.observability import telemetry_for


def _session(sites=None, seed=3):
    grid = build_grid(sites or {"FZJ": ["FZJ-T3E"]}, seed=seed)
    user = grid.add_user(
        "Api User", organization="Test",
        logins={name: "apiuser" for name in grid.usites},
    )
    return grid, GridSession(grid, user, "FZJ")


def _quick_job(session, name="unit", runtime_s=30.0):
    job = session.new_job(name)
    job.script_task("work", "#!/bin/sh\nwork\n", simulated_runtime_s=runtime_s)
    return job


def test_submit_wait_outcome_happy_path():
    grid, session = _session()
    handle = session.submit(_quick_job(session))
    assert isinstance(handle, JobHandle)
    assert handle.job_id.endswith("@FZJ")
    assert handle.vsite == "FZJ-T3E"
    assert handle.trace_id  # submit binds the per-job trace
    assert not handle.failed_over

    view = session.status(handle)
    assert view.status in ("queued", "executing", "running", "successful")
    assert not view.stale

    final = session.wait(handle)
    assert final.status == "successful"
    assert final.is_terminal
    outcome = session.outcome(handle)
    assert outcome.child is not None  # an AJOOutcome tree, not a dict


_VERBS = (
    "new_job", "submit", "status", "wait", "outcome", "cancel", "hold",
    "resume", "list_jobs", "fetch_file", "dispose",
)


def test_each_verb_is_spelled_once_under_two_drivers():
    """One verb table (``SessionCore``), two drivers (``_drive``): a
    facade defines no verb of its own, except the one ``submit`` that
    wraps its result in an ``AsyncJobHandle``."""
    from repro.api._core import SessionCore
    from repro.api.aio import AsyncGridSession

    assert not set(_VERBS) & set(vars(GridSession))
    assert set(_VERBS) & set(vars(AsyncGridSession)) == {"submit"}
    for verb in _VERBS:
        assert getattr(GridSession, verb) is vars(SessionCore)[verb]
        if verb != "submit":
            assert getattr(AsyncGridSession, verb) is vars(SessionCore)[verb]
    for facade in (GridSession, AsyncGridSession):
        assert "_drive" in vars(facade)


def test_status_accepts_raw_job_id():
    grid, session = _session()
    handle = session.submit(_quick_job(session))
    session.wait(handle)
    view = session.status(handle.job_id)
    assert view.status == "successful"


def test_cancel_and_listing():
    grid, session = _session()
    handle = session.submit(_quick_job(session, runtime_s=5000.0))
    session.advance(30.0)
    session.cancel(handle)
    final = session.wait(handle)
    assert final.status in ("killed", "failed")
    rows = session.list_jobs()
    assert [r.job_id for r in rows] == [handle.job_id]
    assert rows[0].status == final.status


def test_breaker_is_armed_on_the_session_client():
    grid, session = _session()
    assert session.session.client.breaker is session.breaker
    # A healthy exchange records successes, keeping the breaker closed.
    session.submit(_quick_job(session))
    assert session.breaker.state == "closed"


def test_stale_status_served_during_gateway_outage():
    grid, session = _session()
    handle = session.submit(_quick_job(session, runtime_s=5000.0))
    live = session.status(handle)
    assert not live.stale

    grid.usites["FZJ"].gateway.crash()
    degraded = session.status(handle)  # allow_stale defaults to True
    assert degraded.stale
    assert degraded.status == live.status
    assert degraded.as_of <= grid.sim.now
    metrics = telemetry_for(grid.sim).metrics
    assert metrics.counter("client.stale_status_serves").value >= 1

    with pytest.raises((Exception,)):  # strict callers still see the fault
        session.status(handle, allow_stale=False)

    grid.usites["FZJ"].gateway.restart()
    recovered = session.status(handle)
    assert not recovered.stale


def test_stale_status_served_during_njs_outage_behind_a_live_gateway():
    """The gateway answers, the NJS behind it is down: the refusal is
    ``ServiceUnavailable`` itself, and the display degrades exactly as it
    does when the gateway is the one that is gone."""
    grid, session = _session()
    handle = session.submit(_quick_job(session, runtime_s=5000.0))
    live = session.status(handle)
    metrics = telemetry_for(grid.sim).metrics
    served = metrics.counter("client.stale_status_serves").value

    grid.usites["FZJ"].njs.crash()
    degraded = session.status(handle)
    assert degraded.stale and degraded.status == live.status
    assert metrics.counter("client.stale_status_serves").value == served + 1
    with pytest.raises(ServiceUnavailable, match="NJS at FZJ is down"):
        session.status(handle, allow_stale=False)

    grid.usites["FZJ"].njs.restart()
    assert not session.status(handle).stale


def test_submit_fails_over_to_alternate_vsite():
    grid, session = _session(
        sites={"FZJ": ["FZJ-T3E"], "RUS": ["RUS-T3E"]}, seed=4
    )
    grid.usites["FZJ"].njs.crash()  # and stays down
    handle = session.submit(_quick_job(session, name="failover"))
    assert handle.failed_over
    assert handle.usite == "RUS"
    assert handle.vsite == "RUS-T3E"
    final = session.wait(handle)
    assert final.status == "successful"
    metrics = telemetry_for(grid.sim).metrics
    assert metrics.counter("api.failovers").value == 1


def test_submit_without_failover_surfaces_the_fault():
    from repro.faults import ServiceUnavailable

    grid = build_grid({"FZJ": ["FZJ-T3E"], "RUS": ["RUS-T3E"]}, seed=4)
    user = grid.add_user("No Failover", logins={"FZJ": "nf", "RUS": "nf"})
    session = GridSession(grid, user, "FZJ", failover=False)
    grid.usites["FZJ"].njs.crash()
    with pytest.raises(ServiceUnavailable):
        session.submit(_quick_job(session))


def test_grid_session_exported_from_top_level():
    import repro

    assert repro.GridSession is GridSession
    assert repro.JobHandle is JobHandle
    with pytest.raises(AttributeError):
        repro.not_a_thing


def test_breaker_open_error_is_a_repro_error_with_code():
    from repro.errors import ReproError

    assert issubclass(CircuitOpenError, ReproError)
    assert CircuitOpenError.code == "faults.circuit_open"
