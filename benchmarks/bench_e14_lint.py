"""E14 — consign-time static analysis cost and coverage.

The analyzer runs on every consignment at both the JPA and the NJS, so
its cost must stay small relative to the codec + consignment path it
rides on.  This experiment measures ``analyze_ajo`` throughput (jobs/s
and us/action) against AJO size on clean staged pipelines, and checks
that seeded defects — a read of a never-produced file, a write-write
race, an infeasible resource request — are found at every size with
their stable codes.

Expected shape: cost linear in the number of actions (the passes are
single walks plus a transitive closure over each group's DAG), with
the full three-pass run staying within a small multiple of the codec
cost for the same tree.
"""

import time

import pytest

from benchmarks._util import print_table
from repro.ajo import (
    AbstractJobObject,
    ExportTask,
    ImportTask,
    UserTask,
    encode_ajo,
)
from repro.analysis import AnalysisContext, analyze_ajo
from repro.resources import ResourceRequest
from repro.resources.editor import ResourcePageEditor


def bench_page(vsite="V"):
    return (
        ResourcePageEditor(vsite)
        .set_system("T3E", "unicos", 100.0)
        .set_range("cpus", 1, 512)
        .set_range("time_s", 0, 86400)
        .set_range("memory_mb", 0, 65536)
        .set_range("disk_permanent_mb", 0, 10**6)
        .set_range("disk_temporary_mb", 0, 10**6)
        .add_compiler("f90")
        .publish()
    )


def pipeline_job(n_stages: int) -> AbstractJobObject:
    """A clean import -> run -> export pipeline, 3 actions per stage."""
    job = AbstractJobObject("lint-bench", vsite="V", user_dn="CN=bench")
    for i in range(n_stages):
        imp = job.add(ImportTask(
            f"in{i}", source_path=f"/in/{i}.dat", destination_path=f"in{i}.dat",
        ))
        run = job.add(UserTask(
            f"run{i}", executable=f"in{i}.dat",
            resources=ResourceRequest(cpus=8, time_s=3600),
        ))
        exp = job.add(ExportTask(
            f"out{i}", source_path=f"out{i}.dat", destination_path=f"/out/{i}",
        ))
        job.add_dependency(imp, run)
        job.add_dependency(run, exp, files=[f"out{i}.dat"])
    return job


def seeded_defects(n_stages: int) -> AbstractJobObject:
    """The clean pipeline plus one defect of each analyzer family."""
    job = pipeline_job(n_stages)
    # AJO201: export of a file nothing produces.
    job.add(ExportTask("ghost", source_path="ghost.dat", destination_path="/x"))
    # AJO203: two unordered writers of the same Uspace path.
    job.add(ImportTask("w1", source_path="/in/a", destination_path="race.dat"))
    job.add(ImportTask("w2", source_path="/in/b", destination_path="race.dat"))
    # AJO302: a request beyond the resource page.
    job.add(UserTask(
        "huge", executable="/bin/huge",
        resources=ResourceRequest(cpus=4096, time_s=60),
    ))
    return job


def bench_context() -> AnalysisContext:
    return AnalysisContext(pages={"V": bench_page()}, dialects={"V": "nqs"})


@pytest.mark.benchmark(group="E14-lint")
def test_e14_lint_throughput(benchmark):
    """jobs/s and us/action for the full three-pass analysis vs AJO size."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    context = bench_context()
    sizes = (4, 16, 64, 256)
    repeats = 10

    rows = []
    per_action = {}
    for n_stages in sizes:
        job = pipeline_job(n_stages)
        actions = job.total_actions()
        assert analyze_ajo(job, context).ok

        t0 = time.perf_counter()
        for _ in range(repeats):
            analyze_ajo(job, context)
        t_lint = (time.perf_counter() - t0) / repeats

        t0 = time.perf_counter()
        for _ in range(repeats):
            encode_ajo(job)
        t_codec = (time.perf_counter() - t0) / repeats

        per_action[n_stages] = t_lint / actions
        rows.append((
            actions,
            f"{1.0 / t_lint:10.0f}",
            f"{1e6 * per_action[n_stages]:8.2f}",
            f"{t_lint / t_codec:6.1f}x",
        ))
    print_table(
        "E14: static analysis cost vs AJO size",
        ["actions", "jobs/s", "lint us/action", "lint/codec"],
        rows,
    )
    # Per-action cost must not blow up super-linearly across the sweep.
    small, large = min(sizes), max(sizes)
    assert per_action[large] < 50 * per_action[small]


@pytest.mark.benchmark(group="E14-lint")
def test_e14_defects_found_at_every_size(benchmark):
    """The seeded defects are reported with their stable codes."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    context = bench_context()
    sizes = (4, 64, 256)
    for n_stages in sizes:
        report = analyze_ajo(seeded_defects(n_stages), context)
        found = {d.code for d in report.errors}
        assert {"AJO201", "AJO203", "AJO302"} <= found, (n_stages, found)
        assert not report.ok
    print(f"  defect codes stable across sizes {sizes}")
