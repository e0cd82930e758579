"""Unit tests for the section-6 extensions: broker, accounting,
co-allocation."""

import pytest

from repro.batch import BatchJobSpec, BatchSystem, machine
from repro.broker import ResourceBroker
from repro.ext import AccountingLog, CoAllocator
from repro.grid import build_grid
from repro.resources import ResourceRequest, ResourceSet
from repro.simkernel import Simulator


@pytest.fixture()
def grid():
    g = build_grid({"FZJ": ["FZJ-T3E"], "LRZ": ["LRZ-VPP"]}, seed=5)
    g.add_user("Ana", logins={"FZJ": "ana", "LRZ": "ana_m"})
    return g


# ------------------------------------------------------------------ broker
def test_broker_prefers_faster_idle_machine(grid):
    broker = ResourceBroker.for_grid(grid)
    # Both idle; the VPP's 4x speed factor wins on runtime.
    decision = broker.choose(
        ResourceRequest(cpus=4, time_s=7200), baseline_runtime_s=3600.0
    )
    assert decision.vsite == "LRZ-VPP"
    assert decision.estimated_runtime_s == pytest.approx(900.0)


def test_broker_respects_feasibility(grid):
    broker = ResourceBroker.for_grid(grid)
    # 128 cpus: only the T3E (512) qualifies; the VPP has 52.
    decision = broker.choose(ResourceRequest(cpus=128, time_s=3600))
    assert decision.vsite == "FZJ-T3E"


def test_broker_accounts_for_load(grid):
    broker = ResourceBroker.for_grid(grid)
    vpp = grid.usites["LRZ"].vsites["LRZ-VPP"]
    # Saturate the VPP with a long job plus a deep backlog.
    res = ResourceSet(cpus=52, time_s=86400)
    for i in range(3):
        script = vpp.batch.dialect.render_script(f"hog{i}", "batch", res, ["x"])
        vpp.batch.submit(BatchJobSpec(
            name=f"hog{i}", owner="hog", queue="batch", script=script,
            resources=res,
        ))
    decision = broker.choose(
        ResourceRequest(cpus=4, time_s=7200), baseline_runtime_s=3600.0
    )
    assert decision.vsite == "FZJ-T3E"  # slower but idle beats fast-but-jammed


def test_broker_no_candidate_raises(grid):
    broker = ResourceBroker.for_grid(grid)
    with pytest.raises(LookupError):
        broker.choose(ResourceRequest(cpus=4096))
    with pytest.raises(LookupError):
        broker.choose(
            ResourceRequest(cpus=1), required_software=[("package", "doom")]
        )


def test_broker_deadline_picks_cheapest_meeting_it(grid):
    broker = ResourceBroker.for_grid(
        grid, cost_per_cpu_hour={"FZJ-T3E": 1.0, "LRZ-VPP": 10.0}
    )
    # Both idle and both meet a loose deadline: cheap T3E wins despite
    # being slower.
    decision = broker.choose(
        ResourceRequest(cpus=4, time_s=7200),
        baseline_runtime_s=3600.0,
        deadline_s=100_000.0,
    )
    assert decision.vsite == "FZJ-T3E"
    # Tight deadline only the VPP meets.
    decision = broker.choose(
        ResourceRequest(cpus=4, time_s=7200),
        baseline_runtime_s=3600.0,
        deadline_s=1000.0,
    )
    assert decision.vsite == "LRZ-VPP"
    with pytest.raises(LookupError, match="deadline"):
        broker.choose(
            ResourceRequest(cpus=4, time_s=7200),
            baseline_runtime_s=3600.0,
            deadline_s=10.0,
        )


# -------------------------------------------------------------- accounting
def test_accounting_charges_completed_jobs():
    sim = Simulator()
    system = BatchSystem(sim, machine("DWD-SX4"))
    res = ResourceSet(cpus=8, time_s=3600)
    script = system.dialect.render_script("j", "batch", res, ["x"])
    system.submit(BatchJobSpec(
        name="j", owner="kurt", queue="batch", script=script,
        resources=res, wallclock_s=1800.0, origin="unicore",
    ))
    sim.run()
    log = AccountingLog(cost_per_cpu_hour={"DWD-SX4": 2.0})
    billed = log.charge_all("DWD-SX4", system.all_records())
    assert billed == 1
    assert log.cpu_hours_by_user()["kurt"] == pytest.approx(8 * 0.5)
    assert log.cost_by_user()["kurt"] == pytest.approx(8.0)
    assert log.cpu_hours_by_vsite()["DWD-SX4"] == pytest.approx(4.0)


def test_accounting_skips_unstarted_jobs():
    sim = Simulator()
    system = BatchSystem(sim, machine("DWD-SX4"))
    res = ResourceSet(cpus=8, time_s=3600)
    script = system.dialect.render_script("j", "batch", res, ["x"])
    jid = system.submit(BatchJobSpec(
        name="j", owner="kurt", queue="batch", script=script, resources=res,
    ))
    log = AccountingLog()
    assert log.charge("DWD-SX4", system.query(jid)) is None
    assert len(log) == 0


# -------------------------------------------------------- co-allocation
def _spec(system, name, cpus, time_s=600.0, runtime=300.0):
    res = ResourceSet(cpus=cpus, time_s=time_s)
    script = system.dialect.render_script(name, "batch", res, ["x"])
    return BatchJobSpec(
        name=name, owner="meta", queue="batch", script=script,
        resources=res, wallclock_s=runtime, origin="unicore",
    )


def test_coallocation_on_idle_systems_achieves_sync():
    sim = Simulator()
    a = BatchSystem(sim, machine("FZJ-T3E"))
    b = BatchSystem(sim, machine("ZIB-SP2"))
    alloc = CoAllocator(sim)

    def scenario(sim):
        result = yield from alloc.co_allocate(
            [(a, _spec(a, "partA", 64)), (b, _spec(b, "partB", 32))]
        )
        return result

    p = sim.process(scenario(sim))
    result = sim.run(until=p)
    assert result.achieved
    assert result.start_skew_s == 0.0
    assert result.polls == 1


def test_coallocation_waits_for_capacity_and_can_be_raced():
    """Site autonomy: a local job can steal the window (the paper's
    reason for excluding synchronous meta-computing)."""
    sim = Simulator()
    a = BatchSystem(sim, machine("DWD-SX4"))  # 32 cpus
    b = BatchSystem(sim, machine("LRZ-VPP"))  # 52 cpus
    # a is busy for 1000s.
    a.submit(_spec(a, "busy", 32, time_s=1200.0, runtime=1000.0))
    alloc = CoAllocator(sim, poll_interval_s=10.0)

    def scenario(sim):
        result = yield from alloc.co_allocate(
            [(a, _spec(a, "partA", 32)), (b, _spec(b, "partB", 32))]
        )
        return result

    p = sim.process(scenario(sim))
    result = sim.run(until=p)
    assert result.achieved
    assert result.polls > 1  # had to wait out the local job
    assert min(result.start_times.values()) >= 1000.0
