"""Integration: the per-job trace assembled across all three tiers.

A consigned job must leave a causally ordered span tree — client submit,
gateway auth, NJS consignment/incarnation, batch wait/execute, outcome
return — retrievable by job id, renderable, and exportable as JSON.
"""

import json

import pytest

from repro.client import JobMonitorController, JobPreparationAgent
from repro.grid import build_grid
from repro.grid.metrics import TierTimes
from repro.observability import telemetry_for
from repro.resources import ResourceRequest


@pytest.fixture()
def single_site():
    grid = build_grid({"FZJ": ["FZJ-T3E"]}, seed=7)
    user = grid.add_user("Trace User", logins={"FZJ": "trace"})
    session = grid.connect_user(user, "FZJ")
    return grid, session


def _run_job(grid, session, runtime_s=600.0, fetch_outcome=True):
    jpa = JobPreparationAgent(session)
    jmc = JobMonitorController(session)
    job = jpa.new_job("traced", vsite="FZJ-T3E")
    job.script_task(
        "work", script="#!/bin/sh\n./app\n",
        resources=ResourceRequest(cpus=8, time_s=max(60.0, runtime_s * 3)),
        simulated_runtime_s=runtime_s,
    )

    def scenario(sim):
        job_id = yield from jpa.submit(job)
        yield from jmc.wait_for_completion(job_id)
        if fetch_outcome:
            yield from jmc.outcome(job_id)
        return job_id

    return grid.sim.run(until=grid.sim.process(scenario(grid.sim)))


def test_job_trace_spans_all_three_tiers(single_site):
    grid, session = single_site
    job_id = _run_job(grid, session)
    trace = telemetry_for(grid.sim).tracer.trace(job_id)

    # The acceptance bar: at least six distinct span names covering the
    # user, server, and batch tiers.
    assert len(trace.names) >= 6
    assert {"user", "server", "batch"} <= trace.tiers
    for name in (
        "client.submit", "gateway.request", "gateway.auth", "njs.consign",
        "njs.job", "njs.incarnate", "batch.wait", "batch.execute",
        "client.outcome",
    ):
        assert name in trace.names, f"missing span {name}"


def test_causal_order_client_gateway_njs_batch(single_site):
    grid, session = single_site
    job_id = _run_job(grid, session)
    trace = telemetry_for(grid.sim).tracer.trace(job_id)

    submit = trace.first("client.submit")
    gateway = trace.first("gateway.request")
    consign = trace.first("njs.consign")
    execute = trace.first("batch.execute")
    outcome = trace.first("client.outcome")
    assert submit.start <= gateway.start <= consign.start <= execute.start
    assert execute.end <= outcome.start
    # Parent links wire the tree: gateway under the submit interaction,
    # NJS under the gateway, batch under the NJS job span.
    assert gateway.parent_id == submit.span_id
    assert consign.parent_id == gateway.span_id
    njs_job = trace.first("njs.job")
    assert trace.first("batch.wait").parent_id == njs_job.span_id
    assert execute.parent_id == njs_job.span_id
    # All spans closed once the job is done and the outcome fetched.
    assert all(s.finished for s in trace.spans)


def test_span_tree_of_a_traced_job_is_pinned(single_site):
    """Ids, names, parents and order of one job's spans, recorded before
    untraced requests took the traced path with the inert span: the
    status polls and the session's own spans in between consume no id
    of this sequence and record nothing."""
    grid, session = single_site
    tracer = telemetry_for(grid.sim).tracer
    untraced = []
    start_span = tracer.start_span

    def spy(name, trace_id, **kw):
        if not trace_id:
            untraced.append(name)
        return start_span(name, trace_id, **kw)

    tracer.start_span = spy
    job_id = _run_job(grid, session)
    # The wait's QUERY carries no trace id and ran the same code.
    assert {"protocol.interact", "gateway.request", "gateway.auth"} <= set(untraced)
    assert [
        (s.span_id, s.name, s.parent_id) for s in tracer.trace(job_id).spans
    ] == [
        ("s00004", "client.submit", None),
        ("s00005", "protocol.interact", "s00004"),
        ("s00006", "protocol.attempt", "s00005"),
        ("s00007", "gateway.request", "s00004"),
        ("s00008", "gateway.auth", "s00007"),
        ("s00009", "njs.consign", "s00007"),
        ("s00010", "njs.analyze", "s00009"),
        ("s00011", "njs.job", "s00009"),
        ("s00012", "njs.incarnate", "s00011"),
        ("s00013", "batch.wait", "s00011"),
        ("s00014", "batch.execute", "s00011"),
        ("s00015", "client.outcome", None),
        ("s00016", "protocol.interact", "s00015"),
        ("s00017", "protocol.attempt", "s00016"),
        ("s00018", "gateway.request", "s00015"),
        ("s00019", "gateway.auth", "s00018"),
    ]
    assert tracer.traces() == ["job-0002", "session-0001"]


def test_trace_renders_and_exports(single_site, tmp_path):
    grid, session = single_site
    job_id = _run_job(grid, session)
    telemetry = telemetry_for(grid.sim)
    trace = telemetry.tracer.trace(job_id)

    rendered = trace.render()
    assert "client.submit" in rendered
    assert "batch.execute" in rendered

    blob = json.dumps(trace.to_json())
    decoded = json.loads(blob)
    assert decoded["trace_id"] == trace.trace_id
    assert decoded["span_count"] == len(trace)

    # Metrics recorded along the way.
    counters = telemetry.metrics.snapshot()["counters"]
    assert counters["gateway.requests"] >= 2  # consign + polls + outcome
    assert counters["njs.incarnations"] == 1
    assert counters["batch.submitted"] == 1
    assert telemetry.metrics.histogram("batch.execute_seconds").count == 1


def test_tiertimes_from_trace_matches_run(single_site):
    grid, session = single_site
    job_id = _run_job(grid, session, runtime_s=600.0)
    tracer = telemetry_for(grid.sim).tracer
    times = TierTimes.from_trace(
        tracer.trace(job_id), session_trace=tracer.trace(session.trace_id)
    )
    assert times.execution_s == pytest.approx(600.0)
    assert times.handshake_s > 0.0
    assert times.middleware_total() < 0.05 * (
        times.batch_wait_s + times.execution_s
    )


def test_session_trace_covers_connect_sequence(single_site):
    grid, session = single_site
    assert session.trace_id
    trace = telemetry_for(grid.sim).tracer.trace(session.trace_id)
    assert {"client.handshake", "client.applet_load",
            "client.resource_pages"} <= trace.names


def test_cli_trace_subcommand(capsys, tmp_path):
    from repro.__main__ import main

    out_path = tmp_path / "trace.json"
    main(["trace", "--runtime", "60", "--json", str(out_path)])
    printed = capsys.readouterr().out
    assert "client.submit" in printed
    assert "batch.execute" in printed
    assert "tier breakdown" in printed

    export = json.loads(out_path.read_text())
    assert export["trace"]["span_count"] >= 6
    assert set(export["trace"]["tiers"]) == {"batch", "server", "user"}
    assert "gateway.requests" in export["metrics"]["counters"]
