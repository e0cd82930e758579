"""Unit tests for the batch subsystems: dialects, queues, scheduling."""

import pytest

from repro.batch import (
    BackfillScheduler,
    BatchError,
    BatchJobSpec,
    BatchState,
    BatchSystem,
    FileEffect,
    JobRejectedError,
    QueueConfig,
    UnknownJobError,
    UnknownQueueError,
    dialect_for,
    machine,
)
from repro.resources import ResourceSet
from repro.simkernel import Simulator
from repro.vfs import UspaceManager


def make_system(name="FZJ-T3E", queues=None, scheduler=None):
    sim = Simulator()
    system = BatchSystem(sim, machine(name), queues=queues, scheduler=scheduler)
    return sim, system


def spec_for(system, name="job", cpus=1, time_s=100.0, queue="batch", **kw):
    resources = ResourceSet(cpus=cpus, time_s=time_s, memory_mb=64.0)
    script = system.dialect.render_script(name, queue, resources, ["./a.out"])
    return BatchJobSpec(
        name=name, owner="alice", queue=queue, script=script,
        resources=resources, **kw,
    )


# ----------------------------------------------------------------- dialects
@pytest.mark.parametrize("key,prefix", [
    ("nqs", "#QSUB"),
    ("loadleveler", "#@"),
    ("vpp", "#PJM"),
    ("codine", "#$"),
])
def test_dialect_render_and_parse_roundtrip(key, prefix):
    d = dialect_for(key)
    script = d.render_script("myjob", "batch", ResourceSet(cpus=8, time_s=600), ["cmd"])
    assert any(line.startswith(prefix) for line in script.splitlines())
    directives = d.parse_directives(script)
    assert directives  # at least the name/queue directives parsed back


def test_dialect_rejects_foreign_script():
    nqs = dialect_for("nqs")
    ll_script = dialect_for("loadleveler").render_script(
        "j", "batch", ResourceSet(), ["cmd"]
    )
    with pytest.raises(BatchError):
        nqs.parse_directives(ll_script)


def test_dialect_local_states_distinct():
    names = {tuple(dialect_for(k).state_names) for k in
             ("nqs", "loadleveler", "vpp", "codine")}
    assert len(names) == 4  # heterogeneity is the point


def test_dialect_unknown():
    with pytest.raises(BatchError):
        dialect_for("slurm")  # not in 1999


def test_dialect_unknown_phase():
    with pytest.raises(BatchError):
        dialect_for("nqs").local_state("paused")


# ------------------------------------------------------------------ machines
def test_machine_catalogue_covers_paper_systems():
    archs = {m.architecture.split()[0] for m in
             [machine(n) for n in ("FZJ-T3E", "RUKA-SP2", "LRZ-VPP", "DWD-SX4")]}
    assert archs == {"Cray", "IBM", "Fujitsu", "NEC"}


def test_machine_unknown():
    with pytest.raises(KeyError):
        machine("BlueGene")


# ----------------------------------------------------------------- submission
def test_submit_run_complete():
    sim, system = make_system()
    job_id = system.submit(spec_for(system, time_s=50.0))
    record = system.query(job_id)
    # The machine is idle, so the scheduling pass started it immediately.
    assert record.state is BatchState.RUNNING
    sim.run()
    assert record.state is BatchState.DONE
    assert record.exit_code == 0
    assert record.wait_time == 0.0
    assert record.turnaround == 50.0


def test_submit_unknown_queue():
    sim, system = make_system()
    with pytest.raises(UnknownQueueError):
        system.submit(spec_for(system, queue="express"))


def test_submit_rejects_over_limit():
    sim, system = make_system(
        queues=[QueueConfig(name="batch", max_cpus=64, max_time_s=3600)]
    )
    with pytest.raises(JobRejectedError, match="cpus above maximum"):
        system.submit(spec_for(system, cpus=100))
    with pytest.raises(JobRejectedError, match="time limit"):
        system.submit(spec_for(system, time_s=7200))


def test_submit_rejects_wrong_dialect_script():
    sim, system = make_system("FZJ-T3E")  # NQS
    resources = ResourceSet(cpus=1, time_s=10)
    foreign = dialect_for("loadleveler").render_script("j", "batch", resources, ["x"])
    spec = BatchJobSpec(
        name="j", owner="a", queue="batch", script=foreign, resources=resources
    )
    with pytest.raises(BatchError, match="NQS"):
        system.submit(spec)


def test_queue_too_large_for_machine_rejected():
    sim = Simulator()
    with pytest.raises(BatchError):
        BatchSystem(
            sim, machine("DWD-SX4"),
            queues=[QueueConfig(name="big", max_cpus=100, max_time_s=10)],
        )


def test_query_unknown_job():
    sim, system = make_system()
    with pytest.raises(UnknownJobError):
        system.query("ghost.1")


# ------------------------------------------------------------------ execution
def test_fcfs_waits_for_free_cpus():
    sim, system = make_system("DWD-SX4")  # 32 cpus
    a = system.submit(spec_for(system, "a", cpus=32, time_s=100))
    b = system.submit(spec_for(system, "b", cpus=32, time_s=100))
    sim.run()
    ra, rb = system.query(a), system.query(b)
    assert ra.start_time == 0.0
    assert rb.start_time == 100.0
    assert rb.wait_time == 100.0


def test_wallclock_limit_enforced():
    sim, system = make_system()
    job_id = system.submit(spec_for(system, time_s=50.0, wallclock_s=500.0))
    sim.run()
    record = system.query(job_id)
    assert record.state is BatchState.FAILED
    assert record.exit_code == 137
    assert "limit" in record.reason
    assert record.end_time == 50.0  # killed at the limit, not after 500s


def test_nonzero_exit_code_fails():
    sim, system = make_system()
    job_id = system.submit(spec_for(system, exit_code=3, wallclock_s=10.0))
    sim.run()
    record = system.query(job_id)
    assert record.state is BatchState.FAILED
    assert record.exit_code == 3


def test_effects_and_output_collected_in_workdir():
    sim, system = make_system()
    mgr = UspaceManager("FZJ-T3E")
    uspace = mgr.create("job1")
    spec = spec_for(
        system, "solver", wallclock_s=10.0,
        effects=(FileEffect("result.dat", size_bytes=2048),),
        stdout_text="42 iterations\n",
        workdir=uspace,
    )
    job_id = system.submit(spec)
    sim.run()
    assert uspace.read("result.dat") == b"\x00" * 2048
    seq = job_id.rsplit(".", 1)[-1]
    assert uspace.read(f"solver.o{seq}") == b"42 iterations\n"


def test_failed_job_produces_no_effects_but_output():
    sim, system = make_system()
    mgr = UspaceManager("V")
    uspace = mgr.create("job1")
    spec = spec_for(
        system, "bad", wallclock_s=5.0, exit_code=1,
        effects=(FileEffect("result.dat", size_bytes=10),),
        stderr_text="segfault\n", workdir=uspace,
    )
    job_id = system.submit(spec)
    sim.run()
    assert not uspace.exists("result.dat")
    seq = job_id.rsplit(".", 1)[-1]
    assert uspace.read(f"bad.e{seq}") == b"segfault\n"


@pytest.mark.parametrize("kill", ["cancel", "fail_job"])
def test_killed_job_writes_no_product(kill):
    sim, system = make_system()
    uspace = UspaceManager("V").create("job1")
    job_id = system.submit(spec_for(
        system, time_s=100.0, workdir=uspace,
        effects=(FileEffect("result.dat", size_bytes=10),),
    ))
    sim.run(until=5.0)
    getattr(system, kill)(job_id)
    sim.run()
    assert system.query(job_id).state.is_terminal
    assert not uspace.exists("result.dat")


def test_effects_of_one_size_are_one_body_per_system():
    sim, system = make_system()
    other = BatchSystem(sim, machine("ZIB-SP2"))
    mgr = UspaceManager("V")
    spaces = [mgr.create(f"job{i}") for i in range(3)]
    effects = (
        FileEffect("a.o", size_bytes=2048),
        FileEffect("b.o", size_bytes=2048),
        FileEffect("app", size_bytes=4096),
    )
    for uspace, host in zip(spaces, (system, system, other), strict=True):
        host.submit(spec_for(
            host, wallclock_s=10.0, workdir=uspace, effects=effects
        ))
    sim.run()
    obj = spaces[0].body("a.o")
    assert obj is spaces[0].body("b.o") is spaces[1].body("a.o")
    assert obj == bytes(2048) and spaces[0].body("app") == bytes(4096)
    # Another host makes its own.
    assert spaces[2].body("a.o") is not obj and spaces[2].body("a.o") == obj


def test_cancel_queued_job():
    sim, system = make_system("DWD-SX4")
    a = system.submit(spec_for(system, "a", cpus=32, time_s=100))
    b = system.submit(spec_for(system, "b", cpus=32, time_s=100))
    system.cancel(b)
    sim.run()
    assert system.query(b).state is BatchState.CANCELLED
    assert system.query(a).state is BatchState.DONE


def test_cancel_running_job_frees_cpus():
    sim, system = make_system("DWD-SX4")
    a = system.submit(spec_for(system, "a", cpus=32, time_s=1000))
    b = system.submit(spec_for(system, "b", cpus=32, time_s=10))

    def canceller(sim):
        yield sim.timeout(5.0)
        system.cancel(a)

    sim.process(canceller(sim))
    sim.run()
    ra, rb = system.query(a), system.query(b)
    assert ra.state is BatchState.CANCELLED
    assert ra.end_time == 5.0
    assert rb.start_time == 5.0
    assert rb.state is BatchState.DONE


def test_cancel_terminal_job_rejected():
    sim, system = make_system()
    a = system.submit(spec_for(system, time_s=1.0))
    sim.run()
    with pytest.raises(BatchError):
        system.cancel(a)


def test_local_state_names_follow_dialect():
    sim, system = make_system("RUKA-SP2")  # LoadLeveler
    a = system.submit(spec_for(system, cpus=256, time_s=10))
    b = system.submit(spec_for(system, cpus=256, time_s=10))
    assert system.local_state_name(b) == "Idle"
    sim.run(until=1.0)
    assert system.local_state_name(a) == "Running"
    sim.run()
    assert system.local_state_name(a) == "Completed"


def test_completion_event_waitable():
    sim, system = make_system()
    job_id = system.submit(spec_for(system, time_s=30.0))
    record = system.query(job_id)

    def waiter(sim):
        done = yield record.completion_event
        return (sim.now, done.state)

    p = sim.process(waiter(sim))
    assert sim.run(until=p) == (30.0, BatchState.DONE)


def test_utilization_accounting():
    sim, system = make_system("DWD-SX4")  # 32 cpus
    system.submit(spec_for(system, cpus=16, time_s=100))
    sim.run()
    # 16/32 busy for the whole horizon.
    assert system.utilization() == pytest.approx(0.5)


# ------------------------------------------------------------------ backfill
def test_backfill_lets_small_job_jump_without_delaying_head():
    sim, system = make_system("DWD-SX4", scheduler=BackfillScheduler())  # 32 cpus
    # 24 cpus busy until t=100.
    system.submit(spec_for(system, "a", cpus=24, time_s=100))
    # Head needs 32: must wait until t=100.
    b = system.submit(spec_for(system, "b", cpus=32, time_s=50))
    # Small short job fits in the 8 free cpus and ends before t=100.
    c = system.submit(spec_for(system, "c", cpus=8, time_s=50))
    sim.run()
    rb, rc = system.query(b), system.query(c)
    assert rc.start_time == 0.0  # backfilled
    assert rb.start_time == 100.0  # head not delayed


def test_backfill_refuses_job_that_would_delay_head():
    sim, system = make_system("DWD-SX4", scheduler=BackfillScheduler())
    system.submit(spec_for(system, "a", cpus=24, time_s=100))
    b = system.submit(spec_for(system, "b", cpus=32, time_s=50))
    # Fits the free 8 cpus but (requested) runs past t=100 and would
    # steal cpus the head needs.
    c = system.submit(spec_for(system, "c", cpus=8, time_s=500))
    sim.run()
    rb, rc = system.query(b), system.query(c)
    assert rb.start_time == 100.0
    assert rc.start_time >= rb.start_time  # c did not jump the head


def test_fcfs_vs_backfill_makespan():
    """Backfill strictly improves packing on a mixed workload."""

    def run(scheduler):
        sim, system = make_system("DWD-SX4", scheduler=scheduler)
        system.submit(spec_for(system, "wide", cpus=24, time_s=100))
        system.submit(spec_for(system, "full", cpus=32, time_s=50))
        for i in range(4):
            system.submit(spec_for(system, f"s{i}", cpus=2, time_s=40))
        sim.run()
        return max(r.end_time for r in system.all_records())

    from repro.batch import FCFSScheduler

    assert run(BackfillScheduler()) < run(FCFSScheduler())


def test_queue_min_cpus_enforced():
    sim, system = make_system(
        queues=[QueueConfig(name="batch", max_cpus=512, max_time_s=86400,
                            min_cpus=16)]
    )
    with pytest.raises(JobRejectedError, match="below minimum"):
        system.submit(spec_for(system, cpus=4))
    system.submit(spec_for(system, cpus=16, time_s=10))
    sim.run()
