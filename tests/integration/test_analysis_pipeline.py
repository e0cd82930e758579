"""The static analyzer in the live three-tier pipeline.

Errors block at the JPA before any bytes move; a client that skips its
own lint is caught by the NJS on arrival ("never trust the client") and
rejected with the stable diagnostic code, before any incarnation; and
``repro lint`` reports the same diagnostics from the command line.
"""

import json

import pytest

from repro.__main__ import main as repro_main
from repro.ajo import (
    AbstractJobObject,
    CompileTask,
    ExportTask,
    ImportTask,
    UserTask,
    encode_ajo,
)
from repro.ajo.dag import JobPlan
from repro.analysis import AnalysisError, analyze_ajo, dataflow_pass
from repro.client import JobMonitorController, JobPreparationAgent
from repro.grid import build_grid
from repro.observability import telemetry_for
from repro.resources import ResourceRequest
from repro.server.errors import ConsignError
from repro.server.njs.incarnation import RESULT_FILE_BYTES
from repro.storage.journal import Arrival


@pytest.fixture()
def site():
    grid = build_grid({"FZJ": ["FZJ-T3E"]}, seed=14)
    user = grid.add_user("Lint", logins={"FZJ": "lint"})
    session = grid.connect_user(user, "FZJ")
    return grid, user, session


def ghost_export_job(user_dn="CN=Lint,O=,C=DE"):
    job = AbstractJobObject("ghostly", vsite="FZJ-T3E", user_dn=user_dn)
    job.add(UserTask("work", executable="/bin/true"))
    job.add(ExportTask("out", source_path="ghost.dat", destination_path="/x/g"))
    return job


def test_jpa_blocks_errors_before_consigning(site):
    grid, user, session = site
    jpa = JobPreparationAgent(session)
    job = jpa.new_job("bad", vsite="FZJ-T3E")
    job.script_task("w", script="#!/bin/sh\nx\n", simulated_runtime_s=10.0)
    job.export_to_xspace("ghost.dat", "/out/g.dat", name="out")

    def scenario(sim):
        yield from jpa.submit(job)

    p = grid.sim.process(scenario(grid.sim))
    with pytest.raises(AnalysisError) as exc_info:
        grid.sim.run(until=p)
    assert exc_info.value.code == "AJO201"
    # Rejected client-side: the NJS never saw it, but the counters did.
    assert grid.usites["FZJ"].njs.job_count == 0
    metrics = telemetry_for(grid.sim).metrics
    assert metrics.counter_value("analysis.jobs_rejected") >= 1
    assert metrics.counter_value("analysis.errors") >= 1


def test_njs_rejects_unlinted_arrival_before_incarnation(site):
    grid, user, session = site
    njs = grid.usites["FZJ"].njs
    # Bypass the JPA entirely: a hand-rolled consignment with a staging
    # defect must be caught on arrival, before any incarnation.
    with pytest.raises(ConsignError) as exc_info:
        njs.consign(Arrival(encode_ajo(ghost_export_job()), "CN=Lint,O=,C=DE"))
    assert exc_info.value.code == "AJO201"
    assert njs.job_count == 0
    assert grid.usites["FZJ"].vsites["FZJ-T3E"].batch.all_records() == []
    assert telemetry_for(grid.sim).metrics.counter_value(
        "analysis.jobs_rejected"
    ) >= 1


def _unknown_vsite_job(user_dn):
    job = AbstractJobObject("lost", vsite="FZJ-SX4", user_dn=user_dn)
    job.add(UserTask("work", executable="/bin/true"))
    return job


def _over_limit_job(user_dn):
    job = AbstractJobObject("monster", vsite="FZJ-T3E", user_dn=user_dn)
    job.add(UserTask(
        "huge", executable="/bin/huge",
        resources=ResourceRequest(cpus=10**6, time_s=60),
    ))
    return job


def _missing_software_job(user_dn):
    job = AbstractJobObject("exotic", vsite="FZJ-T3E", user_dn=user_dn)
    source = job.add(ImportTask(
        "src", source_path="/src/main.ada", destination_path="main.ada"
    ))
    build = job.add(CompileTask("build", sources=["main.ada"], compiler="ada95"))
    job.add_dependency(source, build, files=["main.ada"])
    return job


def _unrouted_usite_job(user_dn):
    job = AbstractJobObject("far", vsite="FZJ-T3E", user_dn=user_dn)
    job.add(UserTask("near", executable="/bin/true"))
    remote = AbstractJobObject("away", vsite="LRZ-VPP", usite="LRZ")
    remote.add(UserTask("there", executable="/bin/true"))
    job.add(remote)
    return job


@pytest.mark.parametrize("build, code", [
    pytest.param(_unknown_vsite_job, "AJO301", id="01"),
    pytest.param(_over_limit_job, "AJO302", id="02"),
    pytest.param(_missing_software_job, "AJO303", id="03"),
    pytest.param(_unrouted_usite_job, "AJO304", id="04"),
])
def test_njs_rejects_infeasible_request_with_resource_code(site, build, code):
    """Every destination refusal comes from the arrival analysis, with its
    diagnostic code; the NJS keeps no second copy of these checks."""
    grid, user, session = site
    njs = grid.usites["FZJ"].njs
    with pytest.raises(ConsignError) as exc_info:
        njs.consign(Arrival(encode_ajo(build("CN=Lint,O=,C=DE")), "CN=Lint,O=,C=DE"))
    assert exc_info.value.code == code
    assert njs.job_count == 0


def test_clean_job_traced_through_njs_analyze_span(site):
    grid, user, session = site
    jpa = JobPreparationAgent(session)
    jmc = JobMonitorController(session)
    job = jpa.new_job("clean", vsite="FZJ-T3E")
    job.script_task("w", script="#!/bin/sh\nx\n", simulated_runtime_s=10.0)

    def scenario(sim):
        job_id = yield from jpa.submit(job)
        yield from jmc.wait_for_completion(job_id)
        return job_id

    job_id = grid.sim.run(until=grid.sim.process(scenario(grid.sim)))
    trace = telemetry_for(grid.sim).tracer.trace(job_id)
    names = [s.name for s in trace.spans]
    assert "njs.analyze" in names
    analyze = next(s for s in trace.spans if s.name == "njs.analyze")
    assert analyze.attributes["errors"] == 0


def test_repro_lint_reports_the_same_diagnostics(site, tmp_path, capsys):
    grid, user, session = site
    njs = grid.usites["FZJ"].njs
    job = ghost_export_job()
    with pytest.raises(ConsignError) as exc_info:
        njs.consign(Arrival(encode_ajo(job), job.user_dn))
    server_code = exc_info.value.code

    path = tmp_path / "job.ajo"
    path.write_bytes(encode_ajo(job))
    with pytest.raises(SystemExit) as exit_info:
        repro_main(["lint", "--json", str(path)])
    assert exit_info.value.code == 1
    reports = json.loads(capsys.readouterr().out)
    assert reports[0]["ok"] is False
    client_codes = [d["code"] for d in reports[0]["diagnostics"]]
    assert server_code in client_codes


def test_lint_exit_zero_on_clean_job(tmp_path, capsys):
    job = AbstractJobObject("fine", vsite="V", user_dn="CN=x")
    imp = job.add(ImportTask("in", source_path="/in/a", destination_path="a.dat"))
    run = job.add(UserTask("run", executable="a.dat"))
    job.add_dependency(imp, run)
    path = tmp_path / "fine.ajo"
    path.write_bytes(encode_ajo(job))
    repro_main(["lint", str(path)])  # must not SystemExit
    out = capsys.readouterr().out
    assert "0 error(s)" in out


def test_lint_exits_two_on_a_file_that_is_not_an_ajo(tmp_path, capsys):
    path = tmp_path / "bad.ajo"
    path.write_bytes(b'{"unicore_ajo": 1, "type": "ajo", "data": {"dependencies": [7]}}')
    with pytest.raises(SystemExit) as exit_info:
        repro_main(["lint", str(path)])
    assert exit_info.value.code == 2
    assert "cannot read AJO" in capsys.readouterr().err


# -- the dataflow pass's producer model is the runtime's ---------------------
#: What each producer writes to ``out.dat``: distinct bytes, so a consumer
#: that reads them proves which producer it got them from.
PRODUCED = {
    "sibling": b"written by a sibling task",
    "local-group": b"written by a local sub-group",
    "forwarded-group": b"written by a group forwarded to ZIB",
    # A sub-group whose only task is a script task: the file exists only
    # because its sink owes it, as the task's declared zero-filled product.
    "local-sink": bytes(RESULT_FILE_BYTES),
    "forwarded-sink": bytes(RESULT_FILE_BYTES),
}


@pytest.mark.parametrize("producer", sorted(PRODUCED))
@pytest.mark.parametrize("consumer", ["execute", "export", "transfer"])
def test_analyzer_and_runtime_agree_on_a_dependency_file(producer, consumer, monkeypatch):
    """Every producer of a file-annotated edge, to every consumer kind:
    the dataflow pass accepts the job, and the consumer gets the bytes.
    A forwarded producer is planned at its site with the file it owes
    the parent, the plan its run runs by, and that plan is clean too."""
    plans = []
    build = JobPlan.of.__func__

    def kept(cls, job, usite="", owed=()):
        plans.append(plan := build(cls, job, usite, owed))
        return plan

    monkeypatch.setattr(JobPlan, "of", classmethod(kept))
    grid = build_grid({"FZJ": ["FZJ-T3E"], "ZIB": ["ZIB-SP2"]}, seed=14)
    user = grid.add_user("Lint", logins={"FZJ": "lint", "ZIB": "lint_b"})
    jpa = JobPreparationAgent(grid.connect_user(user, "FZJ"))
    jmc = JobMonitorController(jpa.session)
    for site in ("FZJ", "ZIB"):
        grid.usites[site].xspace.fs.write("/in/out.dat", PRODUCED[producer])
    job = jpa.new_job("matrix", vsite="FZJ-T3E")
    if producer == "sibling":
        source = job.import_from_xspace("/in/out.dat", "out.dat")
    else:
        vsite, usite = (
            ("ZIB-SP2", "ZIB") if producer.startswith("forwarded")
            else ("FZJ-T3E", "FZJ")
        )
        source = job.sub_job("make", vsite=vsite, usite=usite)
        if producer.endswith("sink"):
            source.script_task("make", "#!/bin/sh\nmake\n", simulated_runtime_s=10.0)
        else:
            source.import_from_xspace("/in/out.dat", "out.dat")
    if consumer == "execute":
        use = job.script_task("use", "#!/bin/sh\ncat out.dat\n", simulated_runtime_s=10.0)
    elif consumer == "export":
        use = job.export_to_xspace("out.dat", "/out/out.dat")
    else:
        use = job.transfer_to_usite("out.dat", "ZIB")
        reader = job.sub_job("read", vsite="ZIB-SP2", usite="ZIB")
        reader.script_task("read", "#!/bin/sh\ncat out.dat\n", simulated_runtime_s=10.0)
        job.depends(use, reader)
    job.depends(source, use, files=["out.dat"])
    assert not [
        d for d in analyze_ajo(job.ajo).diagnostics if d.code.startswith("AJO2")
    ]

    def scenario(sim):
        job_id = yield from jpa.submit(job)
        final = yield from jmc.wait_for_completion(job_id)
        return job_id, final

    job_id, final = grid.sim.run(until=grid.sim.process(scenario(grid.sim)))
    assert final.status == "successful"
    if producer.startswith("forwarded"):
        [remote] = [plan for plan in plans if plan.group.id == source.ajo.id]
        assert remote.owed == ("out.dat",)
        assert dataflow_pass(remote) == []
    if consumer == "execute":
        uspaces = grid.usites["FZJ"].vsites["FZJ-T3E"].uspaces
        read = uspaces.get(f"{job_id}.{job.ajo.id}").body("out.dat")
    elif consumer == "export":
        read = grid.usites["FZJ"].xspace.fs.body("/out/out.dat")
    else:
        read = grid.usites["ZIB"].njs.runs.serving(job_id)[-1].file("out.dat")
    assert read == PRODUCED[producer]
