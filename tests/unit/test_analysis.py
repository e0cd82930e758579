"""Unit tests for the consign-time static analyzer.

One test (at least) per stable diagnostic code — the codes are a wire
contract, so each test pins both the code and the severity — plus the
report/diagnostic model.
"""

from repro.ajo import (
    AbstractJobObject,
    CompileTask,
    ExportTask,
    ImportTask,
    LinkTask,
    TransferTask,
    UserTask,
)
from repro.ajo.dag import JobPlan
from repro.ajo.errors import ValidationError
from repro.analysis import (
    AnalysisContext,
    AnalysisError,
    Severity,
    analyze_ajo,
    dataflow_pass,
    feasibility_pass,
    structure_pass,
)
from repro.batch.base import QueueConfig
from repro.resources import ResourceRequest
from repro.resources.editor import ResourcePageEditor


def make_job(name="job", vsite="V", usite="", user_dn="CN=Tester"):
    return AbstractJobObject(name=name, vsite=vsite, usite=usite, user_dn=user_dn)


def make_page(vsite="V", max_cpus=64, compilers=("f90",), libraries=()):
    editor = (
        ResourcePageEditor(vsite)
        .set_system("T3E", "unicos", 100.0)
        .set_range("cpus", 1, max_cpus)
        .set_range("time_s", 0, 86400)
        .set_range("memory_mb", 0, 65536)
        .set_range("disk_permanent_mb", 0, 10**6)
        .set_range("disk_temporary_mb", 0, 10**6)
    )
    for name in compilers:
        editor.add_compiler(name)
    for name in libraries:
        editor.add_library(name)
    return editor.publish()


def codes(diags):
    return [d.code for d in diags]


def find(diags, code):
    matches = [d for d in diags if d.code == code]
    assert matches, f"expected {code} in {codes(diags)}"
    return matches[0]


# ---------------------------------------------------------------- structure


def test_ajo101_missing_user_dn():
    job = make_job(user_dn="")
    job.add(UserTask(name="t", executable="/bin/true"))
    diag = find(structure_pass(JobPlan.of(job)), "AJO101")
    assert diag.severity is Severity.ERROR
    assert "user DN" in diag.message
    # Forwarded sub-AJOs inherit the user from the consignment.
    assert "AJO101" not in codes(structure_pass(JobPlan.of(job), require_user=False))


def test_ajo102_duplicate_action_id():
    job = make_job()
    job.add(UserTask(name="a", executable="/bin/a", action_id="dup000001"))
    sub = make_job(name="inner", user_dn="")
    sub.add(UserTask(name="b", executable="/bin/b", action_id="dup000001"))
    job.add(sub)
    diag = find(structure_pass(JobPlan.of(job)), "AJO102")
    assert diag.severity is Severity.ERROR
    assert diag.action_id == "dup000001"


def test_ajo103_group_with_tasks_but_no_vsite():
    job = make_job(vsite="")
    job.add(UserTask(name="t", executable="/bin/true"))
    diag = find(structure_pass(JobPlan.of(job)), "AJO103")
    assert diag.severity is Severity.ERROR
    assert "Vsite" in diag.message


def test_ajo104_dependency_cycle():
    job = make_job()
    a = UserTask(name="a", executable="/bin/a")
    b = UserTask(name="b", executable="/bin/b")
    job.add(a)
    job.add(b)
    job.add_dependency(a, b)
    job.add_dependency(b, a)
    diag = find(structure_pass(JobPlan.of(job)), "AJO104")
    assert diag.severity is Severity.ERROR


def test_ajo105_transfer_to_own_usite():
    job = make_job(usite="FZJ")
    job.add(
        TransferTask(
            name="t",
            source_path="f.dat",
            destination_path="f.dat",
            destination_usite="FZJ",
        )
    )
    diag = find(structure_pass(JobPlan.of(job)), "AJO105")
    assert diag.severity is Severity.ERROR
    assert "own Usite" in diag.message


def test_ajo106_empty_group_is_a_note():
    job = make_job()
    job.add(make_job(name="empty", user_dn=""))
    diag = find(structure_pass(JobPlan.of(job)), "AJO106")
    assert diag.severity is Severity.NOTE
    # Notes never block consignment.
    assert analyze_ajo(job).ok


# ----------------------------------------------------------------- dataflow


def test_ajo201_export_of_never_produced_file():
    job = make_job()
    job.add(UserTask(name="work", executable="/bin/true"))
    job.add(
        ExportTask(name="out", source_path="ghost.dat", destination_path="/x/g")
    )
    diag = find(dataflow_pass(JobPlan.of(job)), "AJO201")
    assert diag.severity is Severity.ERROR
    assert "ghost.dat" in diag.message


def test_ajo201_suppressed_when_prestaged():
    job = make_job()
    job.add(
        ExportTask(name="out", source_path="staged.dat", destination_path="/x/s")
    )
    assert "AJO201" in codes(dataflow_pass(JobPlan.of(job)))
    assert "AJO201" not in codes(
        dataflow_pass(JobPlan.of(job), prestaged=frozenset({"staged.dat"}))
    )


def test_ajo202_read_races_unordered_producer():
    job = make_job()
    a = UserTask(name="a", executable="/bin/a")
    b = UserTask(name="b", executable="/bin/b")
    exp = ExportTask(name="out", source_path="f.dat", destination_path="/x/f")
    job.add(a)
    job.add(b)
    job.add(exp)
    # a produces f.dat (edge to b carries it), but the export has no
    # ordering with a: the read races the write.
    job.add_dependency(a, b, files=["f.dat"])
    diag = find(dataflow_pass(JobPlan.of(job)), "AJO202")
    assert diag.severity is Severity.ERROR
    assert diag.action_id == exp.id


def test_ajo203_concurrent_writers_of_same_path():
    job = make_job()
    job.add(ImportTask(name="i1", source_path="/in/a", destination_path="f.dat"))
    job.add(ImportTask(name="i2", source_path="/in/b", destination_path="f.dat"))
    diag = find(dataflow_pass(JobPlan.of(job)), "AJO203")
    assert diag.severity is Severity.ERROR
    assert "write-write" in diag.message


def test_ajo203_silent_when_writers_are_ordered():
    job = make_job()
    i1 = ImportTask(name="i1", source_path="/in/a", destination_path="f.dat")
    i2 = ImportTask(name="i2", source_path="/in/b", destination_path="f.dat")
    job.add(i1)
    job.add(i2)
    job.add_dependency(i1, i2)
    assert "AJO203" not in codes(dataflow_pass(JobPlan.of(job)))


def test_ajo204_dead_import():
    job = make_job()
    job.add(ImportTask(name="i", source_path="/in/a", destination_path="unused.dat"))
    diag = find(dataflow_pass(JobPlan.of(job)), "AJO204")
    assert diag.severity is Severity.WARNING


def test_ajo205_execute_input_never_staged():
    job = make_job()
    job.add(UserTask(name="run", executable="prog.exe"))
    diag = find(dataflow_pass(JobPlan.of(job)), "AJO205")
    assert diag.severity is Severity.WARNING
    assert "prog.exe" in diag.message
    # Site-installed absolute paths are not Uspace reads.
    clean = make_job()
    clean.add(UserTask(name="run", executable="/usr/bin/prog"))
    assert "AJO205" not in codes(dataflow_pass(JobPlan.of(clean)))


def test_ajo206_subgroup_cannot_keep_its_promise():
    job = make_job()
    sub = make_job(name="inner", user_dn="")
    sub.add(ImportTask(name="i", source_path="/in/a", destination_path="other.dat"))
    job.add(sub)
    consumer = UserTask(name="use", executable="/bin/use")
    job.add(consumer)
    job.add_dependency(sub, consumer, files=["result.dat"])
    diag = find(dataflow_pass(JobPlan.of(job)), "AJO206")
    assert diag.severity is Severity.WARNING
    assert "result.dat" in diag.message


def test_clean_pipeline_has_no_dataflow_findings():
    job = make_job()
    imp = ImportTask(name="in", source_path="/in/a", destination_path="a.dat")
    compile_ = CompileTask(name="cc", sources=["a.dat"])
    link = LinkTask(name="ld", objects=compile_.object_files(), output="prog")
    run = UserTask(name="run", executable="prog")
    exp = ExportTask(name="out", source_path="res.dat", destination_path="/x/r")
    for task in (imp, compile_, link, run, exp):
        job.add(task)
    job.add_dependency(imp, compile_)
    job.add_dependency(compile_, link)
    job.add_dependency(link, run)
    job.add_dependency(run, exp, files=["res.dat"])
    assert dataflow_pass(JobPlan.of(job)) == []


# -------------------------------------------------------------- feasibility


def test_ajo301_unknown_vsite_server_side_only():
    job = make_job(vsite="NOWHERE")
    job.add(UserTask(name="t", executable="/bin/true"))
    strict = AnalysisContext(pages={}, require_vsites=True)
    diag = find(feasibility_pass(job, strict), "AJO301")
    assert diag.severity is Severity.ERROR
    # Client side the destination NJS is the authority: no finding.
    assert feasibility_pass(job, AnalysisContext()) == []


def test_ajo302_resource_request_beyond_page():
    job = make_job()
    job.add(
        UserTask(
            name="big",
            executable="/bin/big",
            resources=ResourceRequest(cpus=128, time_s=60),
        )
    )
    context = AnalysisContext(pages={"V": make_page(max_cpus=64)})
    diag = find(feasibility_pass(job, context), "AJO302")
    assert diag.severity is Severity.ERROR
    assert "above maximum" in diag.message


def test_ajo303_missing_software():
    job = make_job()
    job.add(CompileTask(name="cc", sources=["/src/a.f"], compiler="cray-f90"))
    context = AnalysisContext(pages={"V": make_page(compilers=("gcc",))})
    diag = find(feasibility_pass(job, context), "AJO303")
    assert diag.severity is Severity.ERROR
    assert "cray-f90" in diag.message
    ok = AnalysisContext(pages={"V": make_page(compilers=("cray-f90",))})
    assert "AJO303" not in codes(feasibility_pass(job, ok))


def test_ajo304_forwarded_group_without_route():
    job = make_job(usite="FZJ")
    sub = make_job(name="remote", vsite="ZIB-SP2", usite="ZIB", user_dn="")
    sub.add(UserTask(name="t", executable="/bin/true"))
    job.add(sub)
    context = AnalysisContext(
        pages={"V": make_page()},
        local_usite="FZJ",
        known_usites=frozenset(),
        require_vsites=True,
    )
    diag = find(feasibility_pass(job, context), "AJO304")
    assert diag.severity is Severity.ERROR
    routed = AnalysisContext(
        pages={"V": make_page()},
        local_usite="FZJ",
        known_usites=frozenset({"ZIB"}),
        require_vsites=True,
    )
    assert "AJO304" not in codes(feasibility_pass(job, routed))


def test_ajo305_transfer_without_route_is_a_warning():
    job = make_job(usite="FZJ")
    work = UserTask(name="w", executable="/bin/w")
    transfer = TransferTask(
        name="t",
        source_path="f.dat",
        destination_path="f.dat",
        destination_usite="ELSEWHERE",
    )
    job.add(work)
    job.add(transfer)
    job.add_dependency(work, transfer, files=["f.dat"])
    context = AnalysisContext(
        pages={"V": make_page()},
        local_usite="FZJ",
        known_usites=frozenset({"ZIB"}),
        require_vsites=True,
    )
    diag = find(feasibility_pass(job, context), "AJO305")
    # A route may appear later: the job may still consign.
    assert diag.severity is Severity.WARNING
    assert analyze_ajo(job, context).ok


def test_ajo306_no_queue_admits_is_a_warning():
    job = make_job()
    job.add(
        UserTask(
            name="wide",
            executable="/bin/wide",
            resources=ResourceRequest(cpus=32, time_s=60),
        )
    )
    context = AnalysisContext(
        pages={"V": make_page()},
        queues={"V": (QueueConfig("small", max_cpus=4, max_time_s=3600),)},
    )
    diag = find(feasibility_pass(job, context), "AJO306")
    assert diag.severity is Severity.WARNING


def test_ajo307_unknown_dialect_fails_dry_run():
    job = make_job()
    job.add(UserTask(name="t", executable="/bin/true"))
    context = AnalysisContext(
        pages={"V": make_page()}, dialects={"V": "no-such-batch-system"}
    )
    diag = find(feasibility_pass(job, context), "AJO307")
    assert diag.severity is Severity.ERROR


def test_ajo308_sub_unit_request_truncates_to_zero():
    job = make_job()
    job.add(
        UserTask(
            name="tiny",
            executable="/bin/tiny",
            resources=ResourceRequest(cpus=1, time_s=0.5),
        )
    )
    context = AnalysisContext(pages={"V": make_page()}, dialects={"V": "nqs"})
    diag = find(feasibility_pass(job, context), "AJO308")
    assert diag.severity is Severity.WARNING
    assert "time_s" in diag.message


# ------------------------------------------------- report model & wrapper


def test_report_partitions_and_renders():
    job = make_job(user_dn="")
    job.add(
        ExportTask(name="out", source_path="ghost.dat", destination_path="/x/g")
    )
    job.add(ImportTask(name="i", source_path="/in/a", destination_path="dead.dat"))
    report = analyze_ajo(job)
    assert not report.ok
    assert {d.code for d in report.errors} >= {"AJO101", "AJO201"}
    assert "AJO204" in {d.code for d in report.warnings}
    assert report.summary().startswith(f"job {job.name!r} ({job.id})")
    rendered = report.render()
    for diag in report.diagnostics:
        assert diag.render() in rendered
    payload = report.to_dict()
    assert payload["ok"] is False
    assert payload["errors"] == len(report.errors)
    assert [d["code"] for d in payload["diagnostics"]] == codes(report.diagnostics)


def test_diagnostic_paths_locate_the_action():
    job = make_job()
    sub = make_job(name="inner", user_dn="")
    exp = ExportTask(name="out", source_path="ghost.dat", destination_path="/x/g")
    sub.add(exp)
    job.add(sub)
    diag = find(analyze_ajo(job).diagnostics, "AJO201")
    assert diag.path == (job.id, sub.id, exp.id)
    assert diag.action_id == exp.id


def test_analysis_error_carries_primary_code():
    job = make_job()
    job.add(
        ExportTask(name="out", source_path="ghost.dat", destination_path="/x/g")
    )
    report = analyze_ajo(job)
    err = AnalysisError(report)
    assert isinstance(err, ValidationError)
    assert err.code == "AJO201"
    assert err.report is report


def test_analyze_ajo_is_deterministic():
    job = make_job(user_dn="")
    job.add(ImportTask(name="i1", source_path="/in/a", destination_path="f.dat"))
    job.add(ImportTask(name="i2", source_path="/in/b", destination_path="f.dat"))
    job.add(
        ExportTask(name="out", source_path="ghost.dat", destination_path="/x/g")
    )
    first = analyze_ajo(job)
    second = analyze_ajo(job)
    assert first.diagnostics == second.diagnostics
