"""Backend parity: the same workload must yield the same observable
results over every (facade, transport) pairing.

Each scenario is written once against the awaitable session surface and
run three ways — blocking facade on the simkernel backend, async facade
on the simkernel backend, async facade on the real-socket ``aio``
backend — then the returned observables are compared for equality.
This is the contract the Transport split promises: server and protocol
logic cannot tell the fabrics apart.
"""

import asyncio

import pytest

from repro.api import GridSession
from repro.api.aio import AsyncGridSession
from repro.broker import attach_broker
from repro.grid.build import build_grid
from repro.observability import telemetry_for

SITES = {"FZJ": ["FZJ-T3E"], "RUS": ["RUS-T3E"]}
SEED = 11


class _Await:
    """Adapt the blocking GridSession verbs to the awaitable surface so
    one scenario body drives both facades."""

    def __init__(self, session: GridSession) -> None:
        self._session = session

    def __getattr__(self, name):
        verb = getattr(self._session, name)

        async def call(*args, **kwargs):
            return verb(*args, **kwargs)

        return call


def _build(transport, broker=False):
    grid = build_grid(SITES, seed=SEED, transport=transport)
    user = grid.add_user(
        "Parity User", logins={name: "parity" for name in SITES})
    if broker:
        attach_broker(grid)
    return grid, user


def _run_sync_sim(scenario, broker=False):
    grid, user = _build(None, broker=broker)
    session = _Await(GridSession(grid, user, "FZJ"))
    return asyncio.run(scenario(grid, user, session))


def _run_async_sim(scenario, broker=False):
    async def main():
        grid, user = _build(None, broker=broker)
        session = await AsyncGridSession.connect(grid, user, "FZJ")
        return await scenario(grid, user, session)

    return asyncio.run(main())


def _run_async_aio(scenario, broker=False):
    async def main():
        grid, user = _build("aio", broker=broker)
        session = await AsyncGridSession.connect(grid, user, "FZJ")
        try:
            return await scenario(grid, user, session)
        finally:
            await grid.network.aclose()

    return asyncio.run(main())


_RUNNERS = [
    pytest.param(_run_sync_sim, id="sync-sim"),
    pytest.param(_run_async_sim, id="async-sim"),
    pytest.param(_run_async_aio, id="async-aio"),
]


def _assert_parity(scenario, broker=False):
    """Run everywhere; every backend must agree with the blocking sim."""
    want = _run_sync_sim(scenario, broker=broker)
    assert want == _run_async_sim(scenario, broker=broker)
    assert want == _run_async_aio(scenario, broker=broker)
    return want


# -- scenario: submit -> wait -> outcome --------------------------------------

async def _scenario_lifecycle(grid, user, session):
    job = await session.new_job("parity-job", vsite="FZJ-T3E")
    task = job.script_task(
        "work", "#!/bin/sh\nwork\n", simulated_runtime_s=30.0)
    handle = await session.submit(job)
    final = await session.wait(handle)
    outcome = await session.outcome(handle)
    listing = await session.list_jobs()
    return {
        "job_id": str(handle),
        "status": final.status,
        "terminal": final.is_terminal,
        "rollup": outcome.rollup_status().name,
        "exit_code": outcome.child(task.id).exit_code,
        "listed": [(r.job_id, r.status) for r in listing],
    }


def test_lifecycle_parity():
    want = _assert_parity(_scenario_lifecycle)
    assert want["status"] == "successful"
    assert want["rollup"] == "SUCCESSFUL"
    assert want["exit_code"] == 0


# -- scenario: bulk fetch -----------------------------------------------------

_CONTENT = b"0123456789abcdef" * 65536  # 1 MiB: streams in many chunks


async def _scenario_fetch(grid, user, session):
    user.workstation.fs.write("/home/parity/input.dat", _CONTENT)
    job = await session.new_job("parity-fetch", vsite="FZJ-T3E")
    imp = job.import_from_workstation("/home/parity/input.dat", "input.dat")
    work = job.script_task(
        "crunch", "#!/bin/sh\nwc input.dat\n", simulated_runtime_s=10.0)
    job.depends(imp, work, files=["input.dat"])
    handle = await session.submit(job, workstation=user.workstation)
    final = await session.wait(handle)
    fetched = await session.fetch_file(handle, "input.dat")
    metrics = telemetry_for(grid.sim).metrics
    return {
        "status": final.status,
        "fetched_ok": fetched == _CONTENT,
        "fetched_len": len(fetched),
        "chunks_moved": metrics.counter_value("stream.chunks") >= 4,
    }


def test_bulk_fetch_parity():
    want = _assert_parity(_scenario_fetch)
    assert want == {
        "status": "successful",
        "fetched_ok": True,
        "fetched_len": len(_CONTENT),
        "chunks_moved": True,
    }


# -- scenario: fetch under loss (simkernel only: loss is modeled) -------------

async def _scenario_fetch_lossy(grid, user, session):
    ws = user.browser.host.name
    gw = grid.usites["FZJ"].gateway_host.name
    user.workstation.fs.write("/home/parity/input.dat", _CONTENT)
    job = await session.new_job("parity-lossy", vsite="FZJ-T3E")
    imp = job.import_from_workstation("/home/parity/input.dat", "input.dat")
    work = job.script_task(
        "crunch", "#!/bin/sh\nwc input.dat\n", simulated_runtime_s=10.0)
    job.depends(imp, work, files=["input.dat"])
    # Damage the WAN edge only after submit so consignment itself is
    # deterministic; the stream's resume protocol must absorb the loss.
    handle = await session.submit(job, workstation=user.workstation)
    grid.network.get_link(ws, gw).loss_probability = 0.10
    grid.network.get_link(gw, ws).loss_probability = 0.10
    final = await session.wait(handle)
    fetched = await session.fetch_file(handle, "input.dat")
    metrics = telemetry_for(grid.sim).metrics
    return {
        "status": final.status,
        "fetched_ok": fetched == _CONTENT,
        "resumed": metrics.counter_value("stream.resumes") >= 1,
    }


def test_lossy_fetch_parity_between_facades():
    """Both facades must ride out modeled loss identically (the aio
    backend is excluded: real sockets do not lose frames)."""
    want = _run_sync_sim(_scenario_fetch_lossy)
    assert want == _run_async_sim(_scenario_fetch_lossy)
    assert want["status"] == "successful"
    assert want["fetched_ok"] is True


# -- scenario: sends that carry their own preparation time --------------------

async def _scenario_delayed_sends(grid, user, session):
    """``delay_s`` straight through ``Transport.send`` on the WAN edge:
    no message leaves before its delay is up, and one edge's messages
    leave in call order even when a later one is ready first."""
    sim, net = grid.sim, grid.network
    ws = user.browser.host.name
    gw = grid.usites["FZJ"].gateway_host.name
    settled = []

    def sends():
        t0 = sim.now
        events = []
        for tag, size, delay_s in (
            ("slow", 40_000, 0.5), ("fast", 100, 0.1), ("at-once", 100, 0.0),
        ):
            ev = net.send(
                ws, gw, tag, size, channel="parity", deliver=False,
                delay_s=delay_s,
            )
            ev.callbacks.append(
                lambda ev, tag=tag, delay_s=delay_s: settled.append(
                    (tag, ev.value.payload, sim.now - t0 >= delay_s))
            )
            events.append(ev)
        yield sim.all_of(events)

    proc = sim.process(sends(), name="parity-sends")
    if net.realtime:
        await net.drive(proc)
    else:
        sim.run(until=proc)
    return settled


def test_delayed_send_parity():
    want = _assert_parity(_scenario_delayed_sends)
    assert want == [
        ("slow", "slow", True), ("fast", "fast", True),
        ("at-once", "at-once", True),
    ]


# -- scenario: brokered submit ------------------------------------------------

async def _scenario_broker(grid, user, session):
    job = await session.new_job("parity-brokered")
    job.script_task("work", "#!/bin/sh\nwork\n", simulated_runtime_s=30.0)
    handle = await session.submit(job, broker=True)
    final = await session.wait(handle)
    return {
        "status": final.status,
        "usite": handle.usite if hasattr(handle, "usite") else None,
        "vsite": handle.vsite,
    }


def test_broker_submit_parity():
    want = _assert_parity(_scenario_broker, broker=True)
    assert want["status"] == "successful"
    assert want["usite"] in SITES
