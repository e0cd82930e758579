"""Edge-case tests across modules: kernel conditions, JMC helpers,
broker candidates, co-allocation exhaustion, network accounting."""

import pytest

from repro.simkernel import EventAborted, Interrupt, Simulator


# ------------------------------------------------------------ kernel edges
def test_allof_fails_fast_on_member_failure():
    sim = Simulator()

    def failing(sim):
        yield sim.timeout(1.0)
        raise RuntimeError("member died")

    def waiter(sim):
        p = sim.process(failing(sim))
        t = sim.timeout(10.0)
        try:
            yield p & t
        except RuntimeError as err:
            return f"caught: {err}"

    p = sim.process(waiter(sim))
    assert sim.run(until=p) == "caught: member died"
    assert sim.now == 1.0  # failed fast, did not wait for the timeout


def test_anyof_failure_propagates():
    sim = Simulator()

    def failing(sim):
        yield sim.timeout(1.0)
        raise ValueError("boom")

    def waiter(sim):
        p = sim.process(failing(sim))
        t = sim.timeout(10.0)
        try:
            yield p | t
        except ValueError:
            return "caught"

    p = sim.process(waiter(sim))
    assert sim.run(until=p) == "caught"


def test_interrupt_non_waiting_process_rejected():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(1.0)

    p = sim.process(proc(sim))
    # Before the simulation starts, the process has not yielded yet.
    with pytest.raises(RuntimeError, match="not waiting"):
        p.interrupt()


def test_interrupt_cause_roundtrip():
    intr = Interrupt("reason")
    assert intr.cause == "reason"
    assert Interrupt().cause is None


def test_event_aborted_carries_cause():
    err = ValueError("inner")
    assert EventAborted(err).cause is err


def test_run_until_already_processed_event():
    sim = Simulator()
    t = sim.timeout(1.0, value="done")
    sim.run()
    assert sim.run(until=t) == "done"


def test_process_failure_via_run_until_raises():
    sim = Simulator()

    def bad(sim):
        yield sim.timeout(1.0)
        raise KeyError("gone")

    p = sim.process(bad(sim))
    with pytest.raises(KeyError):
        sim.run(until=p)


# ------------------------------------------------------------- JMC helpers
def test_jmc_output_helpers():
    from repro.ajo import AJOOutcome, FileOutcome, TaskOutcome
    from repro.client import JobMonitorController
    from repro.vfs import Workstation

    root = AJOOutcome(action_id="root")
    t1 = TaskOutcome(action_id="t1", stdout="hello\n", stderr="warn\n")
    nested = AJOOutcome(action_id="sub")
    t2 = TaskOutcome(action_id="t2", stdout="deep\n")
    nested.add_child(t2)
    root.add_child(t1)
    root.add_child(FileOutcome(action_id="f1"))
    root.add_child(nested)

    outputs = JobMonitorController.list_task_outputs(root)
    assert outputs == {"t1": ("hello\n", "warn\n"), "t2": ("deep\n", "")}

    ws = Workstation("CN=X")
    JobMonitorController.save_output(t1, ws, "/home/x/t1.out")
    assert ws.fs.read("/home/x/t1.out") == b"hello\n"


def test_jmc_render_tree_nested_indent():
    from repro.client import JobMonitorController

    tree = {
        "name": "root", "status": "running", "color": "blue",
        "children": [
            {"name": "leaf", "status": "queued", "color": "yellow"},
        ],
    }
    text = JobMonitorController.render_tree(tree)
    lines = text.splitlines()
    assert lines[0].startswith("[")
    assert lines[1].startswith("  [")


# ------------------------------------------------------------------ broker
def test_broker_candidates_ranked_and_complete():
    from repro.broker import ResourceBroker
    from repro.grid import build_grid
    from repro.resources import ResourceRequest

    grid = build_grid({"FZJ": ["FZJ-T3E"], "LRZ": ["LRZ-VPP"]}, seed=43)
    broker = ResourceBroker.for_grid(grid)
    ranked = broker.candidates(
        ResourceRequest(cpus=4, time_s=3600), baseline_runtime_s=1000.0
    )
    assert [d.vsite for d in ranked] == ["LRZ-VPP", "FZJ-T3E"]
    turnarounds = [d.estimated_turnaround_s for d in ranked]
    assert turnarounds == sorted(turnarounds)


# ----------------------------------------------------------- co-allocation
def test_coallocation_gives_up_after_max_polls():
    from repro.batch import BatchJobSpec, BatchSystem, machine
    from repro.ext import CoAllocator
    from repro.resources import ResourceSet

    sim = Simulator()
    system = BatchSystem(sim, machine("DWD-SX4"))
    res = ResourceSet(cpus=32, time_s=80000)
    script = system.dialect.render_script("hog", "batch", res, ["x"])
    system.submit(BatchJobSpec(name="hog", owner="h", queue="batch",
                               script=script, resources=res, wallclock_s=79000))
    alloc = CoAllocator(sim, poll_interval_s=10.0, max_polls=5)

    part = BatchJobSpec(
        name="part", owner="m", queue="batch",
        script=system.dialect.render_script(
            "part", "batch", ResourceSet(cpus=32, time_s=100), ["x"]
        ),
        resources=ResourceSet(cpus=32, time_s=100),
    )

    def scenario(sim):
        result = yield from alloc.co_allocate([(system, part)])
        return result

    p = sim.process(scenario(sim))
    result = sim.run(until=p)
    assert not result.achieved
    assert result.polls == 5
    assert result.start_skew_s == float("inf")


# --------------------------------------------------------------- networking
def test_link_transmission_delay_and_stats():
    from repro.net import Network

    sim = Simulator()
    net = Network(sim, seed=0)
    net.add_host("a")
    net.add_host("b")
    net.link("a", "b", latency_s=0.0, bandwidth_Bps=100.0)
    link = net.get_link("a", "b")
    assert link.transmission_delay(50) == pytest.approx(0.5)
    net.send("a", "b", "x", 50)
    sim.run()
    assert link.messages_sent == 1
    assert link.bytes_sent == 50
    assert link.messages_lost == 0


def test_asymmetric_link():
    from repro.net import HostUnreachable, Network

    sim = Simulator()
    net = Network(sim, seed=0)
    net.add_host("a")
    net.add_host("b")
    net.link("a", "b", symmetric=False)
    net.send("a", "b", "x", 1)
    with pytest.raises(HostUnreachable):
        net.send("b", "a", "x", 1)
