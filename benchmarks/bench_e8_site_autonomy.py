"""E8 — section 5.5: site autonomy — UNICORE jobs are ordinary batch jobs.

Paper: "Jobs delivered through UNICORE are treated the same way any
other batch job is treated on a system.  This results from the basic
design decision for UNICORE to have minimal impact on the local
administration."

Setup: one SP-2 under a Poisson stream of site-local jobs, with UNICORE
jobs of the *same size distribution* submitted into the same queue.
Compare the wait-time distributions of the two populations.

Expected shape: statistically indistinguishable wait times (the batch
system has no code path that reads the job's origin) — confirmed with a
Mann-Whitney U test.  As a negative control, a hypothetical
priority-for-locals scheduler *does* separate the distributions,
demonstrating the experiment has power.
"""

import numpy as np
import pytest
from scipy import stats

from benchmarks._util import print_table
from repro.batch import BatchJobSpec, BatchSystem, machine
from repro.batch.scheduling import FCFSScheduler
from repro.grid.workloads import LocalLoadGenerator, WorkloadProfile
from repro.observability import Histogram
from repro.resources import ResourceSet
from repro.simkernel import Simulator, derive_rng

HORIZON = 6 * 24 * 3600.0
PROFILE = WorkloadProfile(mean_runtime_s=3600.0, max_cpus=64, sigma_runtime=0.8)


class LocalsFirstScheduler(FCFSScheduler):
    """Negative control: what site autonomy FORBIDS — origin-aware priority."""

    name = "locals-first"

    def select(self, pending, free_cpus, now, running):
        reordered = (
            [r for r in pending if r.spec.origin == "local"]
            + [r for r in pending if r.spec.origin != "local"]
        )
        return super().select(reordered, free_cpus, now, running)


def _mixed_load(scheduler) -> tuple[list[float], list[float]]:
    """Run mixed local+unicore load; returns (local_waits, unicore_waits)."""
    sim = Simulator()
    batch = BatchSystem(sim, machine("RUKA-SP2"), scheduler=scheduler)
    LocalLoadGenerator(
        sim, batch, derive_rng(8, "locals"),
        arrival_rate_per_s=1 / 500.0, profile=PROFILE, horizon_s=HORIZON,
    )

    # UNICORE jobs: same sizes, same queue, origin tag only.
    def unicore_stream(sim):
        rng = derive_rng(8, "unicore")
        i = 0
        while sim.now < HORIZON:
            yield sim.timeout(float(rng.exponential(500.0)))
            if sim.now >= HORIZON:
                break
            i += 1
            runtime = PROFILE.sample_runtime(rng)
            cpus = min(PROFILE.sample_cpus(rng), batch.machine.cpus)
            res = ResourceSet(
                cpus=cpus, time_s=max(60.0, runtime * 3.0),
                memory_mb=float(min(64 * cpus, batch.machine.total_memory_mb)),
            )
            script = batch.dialect.render_script(f"uc{i}", "batch", res, ["./a"])
            try:
                batch.submit(BatchJobSpec(
                    name=f"uc{i}", owner=f"ucuser{i % 5}", queue="batch",
                    script=script, resources=res, wallclock_s=runtime,
                    origin="unicore",
                ))
            except Exception:
                continue

    sim.process(unicore_stream(sim))
    sim.run()

    local_waits, unicore_waits = [], []
    for record in batch.all_records():
        if record.wait_time is None:
            continue
        (local_waits if record.spec.origin == "local" else unicore_waits).append(
            record.wait_time
        )
    return local_waits, unicore_waits


@pytest.mark.benchmark(group="E8-site-autonomy")
def test_e8_unicore_jobs_wait_like_local_jobs(benchmark):
    data = {}

    def run():
        data["fair"] = _mixed_load(FCFSScheduler())
        data["priority"] = _mixed_load(LocalsFirstScheduler())

    benchmark.pedantic(run, rounds=1, iterations=1)

    rows = []
    pvalues = {}
    for label, (local_w, unicore_w) in data.items():
        u = stats.mannwhitneyu(local_w, unicore_w, alternative="two-sided")
        pvalues[label] = u.pvalue
        for origin, waits in (("local", local_w), ("unicore", unicore_w)):
            hist = Histogram(f"{label}.{origin}.wait_seconds")
            for wait in waits:
                hist.observe(wait)
            s = hist.summary()
            rows.append((
                label, origin, hist.count, f"{s['mean']:9.1f}",
                f"{s['p50']:9.1f}", f"{s['p90']:9.1f}",
                f"{u.pvalue:8.4f}" if origin == "unicore" else "",
            ))
    print_table(
        "E8: wait times (s), local vs UNICORE jobs on one SP-2 "
        f"({HORIZON / 86400:.0f} simulated days)",
        ["scheduler", "origin", "n", "mean", "p50", "p90", "MWU p"],
        rows,
    )

    local_w, unicore_w = data["fair"]
    assert len(local_w) > 200 and len(unicore_w) > 200
    # The real system: indistinguishable (no evidence of difference).
    assert pvalues["fair"] > 0.05
    # The forbidden scheduler: clearly distinguishable (test has power).
    assert pvalues["priority"] < 0.01
    pl, pu = data["priority"]
    assert float(np.mean(pu)) > float(np.mean(pl))
