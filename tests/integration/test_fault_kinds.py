"""Every fault kind, once: what it breaks while it lasts, and that the
grid is whole again when it ends.

The chaos sweep (E13) draws its schedule from seeded streams, so which
handler a given run reaches is luck; this plan is written out by hand,
one event of each :class:`~repro.faults.FaultKind` (the opt-in
``SITE_RESTART`` included), with a probe inside and after every outage.
"""

from repro.api import GridSession
from repro.faults import FaultEvent, FaultInjector, FaultKind, FaultPlan
from repro.grid import build_grid
from repro.observability import telemetry_for

KINDS = (*FaultKind.ALL, FaultKind.SITE_RESTART)


def test_each_fault_kind_takes_effect_and_is_undone():
    grid = build_grid({"FZJ": ["FZJ-T3E"], "ZIB": ["ZIB-SP2"]}, seed=29)
    user = grid.add_user("Chaos User", logins={"FZJ": "chaos", "ZIB": "chaos"})
    session = GridSession(grid, user, "FZJ")
    fzj, zib = grid.usites["FZJ"], grid.usites["ZIB"]
    wan = (fzj.gateway_host.name, zib.gateway_host.name)
    link = grid.network.get_link(*wan)
    back = grid.network.get_link(*reversed(wan))
    latency = link.latency_s
    fzj_batch = fzj.vsites["FZJ-T3E"].batch
    zib_batch = zib.vsites["ZIB-SP2"].batch

    # Something for the faults to hit: a long job running at each site.
    for usite, vsite in (("FZJ", "FZJ-T3E"), ("ZIB", "ZIB-SP2")):
        job = session.new_job(f"victim-{usite}", vsite, usite)
        job.script_task("long", "#!/bin/sh\nwork\n", simulated_runtime_s=1e5)
        session.submit(job)
    session.advance(60.0)
    assert zib_batch.running_job_ids()

    start = grid.sim.now
    plan = FaultPlan(seed=0, intensity=1.0, horizon_s=1000.0, events=(
        FaultEvent(10.0, FaultKind.CHANNEL_DROP, "|".join(wan), 20.0, 0.5),
        FaultEvent(10.0, FaultKind.LATENCY_SPIKE, "|".join(wan), 30.0, 4.0),
        # A second, larger spike overlaps the first and outlasts it.
        FaultEvent(20.0, FaultKind.LATENCY_SPIKE, "|".join(wan), 40.0, 8.0),
        FaultEvent(100.0, FaultKind.GATEWAY_CRASH, "FZJ", 30.0),
        # Already down: a second crash inside the first is skipped.
        FaultEvent(105.0, FaultKind.GATEWAY_CRASH, "FZJ", 10.0),
        FaultEvent(200.0, FaultKind.NJS_CRASH, "FZJ", 30.0),
        FaultEvent(300.0, FaultKind.VSITE_OUTAGE, "FZJ/FZJ-T3E", 30.0),
        FaultEvent(400.0, FaultKind.NODE_FAILURE, "ZIB/ZIB-SP2"),
        FaultEvent(500.0, FaultKind.SITE_RESTART, "ZIB", 60.0),
    ))
    assert {event.kind for event in plan} == set(KINDS)

    probes = {
        "drop": lambda: (link.loss_probability, back.loss_probability),
        "spike": lambda: (link.latency_s / latency, back.latency_s / latency),
        "gateway": lambda: fzj.gateway.down,
        "njs": lambda: fzj.njs.crashed,
        "vsite": lambda: fzj_batch.offline,
        "zib-running": lambda: len(zib_batch.running_job_ids()),
        "site": lambda: (zib.njs.crashed, zib.gateway.down),
    }
    seen = {}

    def probe(at_s, what):
        grid.sim.schedule_callback(
            at_s, lambda: seen.__setitem__((what, at_s), probes[what]())
        )

    for at_s, what in (
        (15.0, "drop"), (35.0, "drop"),
        (15.0, "spike"), (25.0, "spike"), (45.0, "spike"), (65.0, "spike"),
        (110.0, "gateway"), (135.0, "gateway"),
        (210.0, "njs"), (235.0, "njs"),
        (310.0, "vsite"), (335.0, "vsite"),
        (399.0, "zib-running"), (401.0, "zib-running"),
        (530.0, "site"), (565.0, "site"),
    ):
        probe(at_s, what)
    injector = FaultInjector(grid, plan)
    injector.arm()
    session.advance(600.0)

    assert seen == {
        ("drop", 15.0): (0.5, 0.5), ("drop", 35.0): (0.0, 0.0),
        # The larger of the active factors rules; the baseline comes back
        # only with the last spike's end.
        ("spike", 15.0): (4.0, 4.0), ("spike", 25.0): (8.0, 8.0),
        ("spike", 45.0): (8.0, 8.0), ("spike", 65.0): (1.0, 1.0),
        ("gateway", 110.0): True, ("gateway", 135.0): False,
        ("njs", 210.0): True, ("njs", 235.0): False,
        ("vsite", 310.0): True, ("vsite", 335.0): False,
        ("zib-running", 399.0): 1, ("zib-running", 401.0): 0,
        ("site", 530.0): (True, True), ("site", 565.0): (False, False),
    }
    assert [(ev.kind, ev.at_s) for ev in injector.applied] == [
        (ev.kind, ev.at_s) for ev in plan if ev.at_s != 105.0
    ]
    metrics = telemetry_for(grid.sim).metrics
    assert metrics.counter("faults.injected").value == 8
    assert metrics.counter("faults.skipped").value == 1
    for kind in KINDS:
        assert metrics.counter(f"faults.{kind}").value >= 1, kind
    # The NJS came back from its journal both times it lost its memory.
    assert fzj.njs.replays == 1 and zib.njs.replays == 1
    # Every outage is a span of the chaos trace, as long as the outage.
    chaos = telemetry_for(grid.sim).tracer.trace(injector.chaos_trace_id)
    assert [
        (span.name, round(span.end - span.start, 6)) for span in chaos.spans
    ] == [(f"fault.{ev.kind}", ev.duration_s) for ev in injector.applied]
    assert grid.sim.now == start + 600.0
