"""E15 — persistence cost: storage write amplification, snapshot/restore.

The persistence layer's bargain: every consign, delivery, and completion
is durably recorded *before* the NJS acts on it, which buys crash and
full-site recovery at the price of extra writes on the hot path.  This
experiment prices that bargain per backend:

* **write amplification** — storage bytes written per byte of consigned
  AJO.  The journal writes each AJO once at consign plus bounded
  bookkeeping records, so amplification should sit in the low single
  digits and stay flat as the job count grows.
* **writes / fsyncs per job** — the hot-path operation count.  Batched
  groups (consign, done+outcome) must keep fsyncs per job constant.
* **snapshot / restore wall time** — checkpointing the whole grid and
  thawing it into a fresh deployment, the operator-facing costs of the
  warm-restart feature.

Arms: the ``memory`` backend (deterministic dictionaries) and ``sqlite``
(stdlib, real transactions).  Both run the identical workload; the
restored grid must serve the same job listings as the original — a
correctness gate inside the benchmark, not just a cost table.

Those two arms run near-empty jobs and measure amplification against
AJO bytes, so they price the *metadata* path only.  The ``largefile``
arm (sqlite) prices the *payload* path: every job imports a distinct
1 MiB random file from the workstation, and amplification is storage
bytes written per payload byte.  With file bodies in the
content-addressed blob table it must stay near 1 — the journal entry
and the outcome record name one stored body — where the base64-JSON
records wrote each body 2.7 times.

The ``history`` arm (sqlite) prices a *cold start* against how much the
site has already done: 5 jobs in flight over 50, then 200, finished
ones.  The journal holds the jobs in flight and the outcome table one
row per finished job, so the restart decodes 5 journal entries and makes
the same number of storage reads either way, and the only bytes that
grow with history are the one scan of the outcome table.
"""

import random
import time

import pytest

from benchmarks._util import (
    print_table,
    run_as_script,
    smoke_mode,
    write_bench_artifact,
)
from repro.api import GridSession
from repro.grid import build_grid

SEED = 151
JOBS = 20
SMOKE_JOBS = 5
JOB_RUNTIME_S = 300.0
SUBMIT_SPACING_S = 60.0

LARGE_FILE_BYTES = 1 << 20

HISTORY_FINISHED = (50, 200)
HISTORY_IN_FLIGHT = 5

BACKENDS = ("memory", "sqlite")


def _run_arm(backend: str, jobs: int, file_bytes: int = 0) -> dict:
    """One arm; ``file_bytes`` > 0 makes every job import a distinct
    random workstation file of that size (the large-file arm)."""
    grid = build_grid({"FZJ": ["FZJ-T3E"]}, seed=SEED, storage=backend)
    user = grid.add_user("Persist Bench", logins={"FZJ": "bench"})
    session = GridSession(grid, user, "FZJ")
    rng = random.Random(SEED)

    handles = []
    for i in range(jobs):
        job = session.new_job(f"persist-{i}")
        work = job.script_task("work", "#!/bin/sh\n./app\n",
                               simulated_runtime_s=JOB_RUNTIME_S)
        if file_bytes:
            user.workstation.fs.write(
                f"/home/bench/in{i}.dat", rng.randbytes(file_bytes)
            )
            imp = job.import_from_workstation(f"/home/bench/in{i}.dat", "in.dat")
            job.depends(imp, work, files=["in.dat"])
        handles.append(session.submit(job))
        session.advance(SUBMIT_SPACING_S)
    for handle in handles:
        assert session.wait(handle).status == "successful"

    storage = grid.storage
    payload_bytes = jobs * file_bytes
    journal = grid.usites["FZJ"].njs.journal
    assert len(journal) == 0  # every job finished: nothing left in flight
    ajo_bytes = sum(len(journal.ajo_bytes(h.job_id)) for h in handles)

    t0 = time.perf_counter()
    snap = grid.snapshot()
    snapshot_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    restored = build_grid(restore_from=snap)
    restore_s = time.perf_counter() - t0

    # Correctness gate: the thawed grid serves the same jobs.
    restored_njs = restored.usites["FZJ"].njs
    assert len(restored_njs.outcomes) == jobs and len(restored_njs.journal) == 0
    assert restored.sim.now == grid.sim.now

    return {
        "backend": backend,
        "jobs": jobs,
        "writes_per_job": storage.writes / jobs,
        "fsyncs_per_job": storage.fsyncs / jobs,
        "bytes_per_job": storage.bytes_written / jobs,
        # Against payload where there is one, against AJO bytes otherwise.
        "write_amplification": storage.bytes_written
        / max(1, payload_bytes or ajo_bytes),
        "snapshot_s": snapshot_s,
        "restore_s": restore_s,
    }


def _run_history_arm(finished: int) -> dict:
    """Cold-start a site with ``finished`` jobs behind it and
    ``HISTORY_IN_FLIGHT`` jobs caught mid-run."""
    grid = build_grid({"FZJ": ["FZJ-T3E"]}, seed=SEED, storage="sqlite")
    user = grid.add_user("Persist Bench", logins={"FZJ": "bench"})
    session = GridSession(grid, user, "FZJ")
    site = grid.usites["FZJ"]

    def submit(name: str, runtime_s: float):
        job = session.new_job(name)
        job.script_task("work", "#!/bin/sh\n./app\n",
                        simulated_runtime_s=runtime_s)
        return session.submit(job)

    for handle in [submit(f"past-{i}", 30.0) for i in range(finished)]:
        assert session.wait(handle).status == "successful"
    live = [submit(f"live-{i}", 3600.0) for i in range(HISTORY_IN_FLIGHT)]
    session.advance(600.0)

    storage = grid.storage
    # What one scan of the outcome table costs: the part of a restart
    # that is allowed to grow with history.
    before = storage.bytes_read
    assert len(grid.storage.table("FZJ.outcomes").items()) == finished
    outcome_scan_bytes = storage.bytes_read - before

    reads, bytes_read = storage.reads, storage.bytes_read
    t0 = time.perf_counter()
    site.crash_site()
    site.restart_site()
    restart_s = time.perf_counter() - t0
    reads, bytes_read = storage.reads - reads, storage.bytes_read - bytes_read
    rows_decoded = len(site.njs.journal)

    # Correctness gate: nothing lost, the jobs in flight finish.
    assert len(session.list_jobs()) == finished + HISTORY_IN_FLIGHT
    for handle in live:
        assert session.wait(handle).status == "successful"
    return {
        "finished": finished,
        "restart_s": restart_s,
        "reads": reads,
        "bytes_read": bytes_read,
        "journal_rows_decoded": rows_decoded,
        "bytes_read_per_finished_job": outcome_scan_bytes / finished,
        "bytes_read_besides_outcomes": bytes_read - outcome_scan_bytes,
    }


@pytest.mark.benchmark(group="E15-persistence")
def test_e15_persistence_costs(benchmark):
    jobs = SMOKE_JOBS if smoke_mode() else JOBS
    arms: list[dict] = []
    history: list[dict] = []

    def run():
        arms.clear()
        for backend in BACKENDS:
            arms.append(_run_arm(backend, jobs))
        arms.append({
            **_run_arm("sqlite", jobs, file_bytes=LARGE_FILE_BYTES),
            "backend": "largefile",
        })
        history[:] = [_run_history_arm(n) for n in HISTORY_FINISHED]

    benchmark.pedantic(run, rounds=1, iterations=1)

    print_table(
        f"E15: persistence cost — {jobs} jobs of {JOB_RUNTIME_S:.0f}s, "
        f"seed {SEED}",
        ["backend", "writes/job", "fsyncs/job", "bytes/job",
         "amplification", "snapshot [s]", "restore [s]"],
        [
            (a["backend"], f"{a['writes_per_job']:.1f}",
             f"{a['fsyncs_per_job']:.1f}", f"{a['bytes_per_job']:.0f}",
             f"{a['write_amplification']:.2f}",
             f"{a['snapshot_s']:.3f}", f"{a['restore_s']:.3f}")
            for a in arms
        ],
    )

    print_table(
        f"E15 history: cold start on sqlite, {HISTORY_IN_FLIGHT} jobs in flight",
        ["finished", "restart [s]", "reads", "bytes read", "journal rows",
         "B/finished job", "other bytes"],
        [
            (h["finished"], f"{h['restart_s']:.4f}", h["reads"],
             h["bytes_read"], h["journal_rows_decoded"],
             f"{h['bytes_read_per_finished_job']:.1f}",
             h["bytes_read_besides_outcomes"])
            for h in history
        ],
    )

    by_backend = {a["backend"]: a for a in arms}
    for arm in arms:
        # The journal writes each AJO once plus bounded bookkeeping:
        # amplification must stay in the low single digits.  A payload
        # body is written once however many records name it.
        assert arm["write_amplification"] < (
            1.1 if arm["backend"] == "largefile" else 8.0
        )
        # Batched groups: a handful of durable units per job, not one
        # per record.
        assert arm["fsyncs_per_job"] < 10.0
    # Both backends persist through the same Table surface, so the
    # operation profile (not the latency) must match exactly.
    assert (by_backend["memory"]["writes_per_job"]
            == by_backend["sqlite"]["writes_per_job"])
    # A cold start decodes the jobs in flight, whatever lies behind them.
    short, long = history
    for arm in history:
        assert arm["journal_rows_decoded"] == HISTORY_IN_FLIGHT
    assert short["reads"] == long["reads"]
    # Finished jobs cost one outcome row each, the same row at any
    # history (ids and clock readings gain a digit: 1 %), and nothing
    # else a restart reads grows with them.
    assert long["bytes_read_per_finished_job"] == pytest.approx(
        short["bytes_read_per_finished_job"], rel=0.01
    )
    assert long["bytes_read_besides_outcomes"] == pytest.approx(
        short["bytes_read_besides_outcomes"], rel=0.01
    )

    write_bench_artifact("e15", {
        "jobs": jobs,
        **{a["backend"]: {k: v for k, v in a.items() if k != "backend"}
           for a in arms},
        "history": {"in_flight": HISTORY_IN_FLIGHT, "short": short, "long": long},
    })


if __name__ == "__main__":
    run_as_script(test_e15_persistence_costs)
