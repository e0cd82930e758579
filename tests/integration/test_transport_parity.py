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
import functools
import json

import pytest

import repro.server.gateway as gateway_module
from repro.ajo import AbstractJobObject, ExecuteScriptTask, ExportTask, encode_ajo
from repro.api import GridSession
from repro.api.aio import AsyncGridSession
from repro.broker import attach_broker
from repro.errors import ReproError, SerializationError
from repro.grid.build import build_grid
from repro.observability import telemetry_for
from repro.protocol import encode_consignment
from repro.protocol.messages import Request, RequestKind

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


# -- scenario: refusals, verb by verb -----------------------------------------
#
# A refusal reaches the client as the error the server raised: same
# class, same stable code, same message, whatever the fabric in between.

_THEIR_DN = "CN=Somebody Else,O=Elsewhere,C=DE"
_UNKNOWN = "U99999"


def _njs(grid):
    return grid.usites["FZJ"].njs


async def _raw(grid, session, interaction):
    """One interaction on the session's protocol client, past the applets."""
    home = getattr(session, "_session", session).session

    def plan():
        reply = yield from interaction(home)
        return reply.unwrap()

    proc = grid.sim.process(plan(), name="raw-request")
    if grid.network.realtime:
        return await grid.network.drive(proc)
    return grid.sim.run(until=proc)


async def _raw_consign(grid, session, ajo, ajo_bytes=None):
    """Consign past the JPA, whose own analysis would stop a bad job
    before the server ever saw it."""
    return await _raw(grid, session, lambda home: home.client.consign(
        encode_consignment(ajo_bytes or encode_ajo(ajo)),
        user_dn=home.user_dn, vsite=ajo.vsite,
    ))


def _malformed(kind, payload):
    """A payload the JMC would never build (at the parent commit each
    left the gateway as ``JSONDecodeError`` / ``TypeError`` /
    ``UnicodeDecodeError`` and ended the simulation)."""
    async def case(grid, user, session):
        await _raw(grid, session, lambda home: home.client.interact(
            Request(kind=kind, user_dn=home.user_dn, payload=payload)))

    return case


def _sound_job(user_dn, name="sound"):
    ajo = AbstractJobObject(name, vsite="FZJ-T3E", user_dn=user_dn)
    ajo.add(ExecuteScriptTask(
        "long", script="#!/bin/sh\nwork\n", simulated_runtime_s=1e6))
    return ajo


def _their_job(grid):
    """A live job of another user, consigned at the server."""
    grid.usites["FZJ"].uudb.add_user(_THEIR_DN, "else")
    return _njs(grid).consign(_sound_job(_THEIR_DN, "theirs")).job_id


async def _consign_unmapped(grid, user, session):
    grid.usites["FZJ"].uudb.remove(user.browser.user_dn)
    job = await session.new_job("unmapped", vsite="FZJ-T3E")
    job.script_task("t", "#!/bin/sh\nwhoami\n", simulated_runtime_s=1.0)
    await session.submit(job)


async def _consign_unsound(grid, user, session):
    ajo = _sound_job(user.browser.user_dn, "unsound")
    ajo.add(ExportTask("out", source_path="ghost.dat", destination_path="/x/g"))
    await _raw_consign(grid, session, ajo)


async def _consign_malformed(grid, user, session):
    """Valid JSON, wrong structure: a dependency that is not an object
    (at the parent commit ``TypeError`` left the gateway and ended the
    simulation)."""
    ajo = _sound_job(user.browser.user_dn, "malformed")
    tree = json.loads(encode_ajo(ajo))
    tree["data"]["dependencies"] = [7]
    await _raw_consign(grid, session, ajo, json.dumps(tree).encode())


async def _consign_crashed(grid, user, session):
    _njs(grid).crash()
    await _raw_consign(grid, session, _sound_job(user.browser.user_dn))


async def _list_crashed(grid, user, session):
    _njs(grid).crash()
    await session.list_jobs()


async def _expired(grid, user, session):
    await session.advance(user.browser.user_cert.validity.not_after + 1.0)
    await session.list_jobs()


#: The five verbs that name a job, as the session spells them.
_JOB_VERBS = {
    "query": lambda session, job: session.status(job, allow_stale=False),
    "control": lambda session, job: session.cancel(job),
    "outcome": lambda session, job: session.outcome(job),
    "fetch": lambda session, job: session.fetch_file(job, "out.dat"),
    "dispose": lambda session, job: session.dispose(job),
}


def _on_job(verb, which):
    async def case(grid, user, session):
        if which == "unknown":
            job = _UNKNOWN
        else:
            job = _their_job(grid)
            if which == "crashed":
                _njs(grid).crash()
        await _JOB_VERBS[verb](session, job)

    return case


#: case -> (what the client does, the class and code it must see).
_REFUSALS = {
    "consign-unmapped": (_consign_unmapped, "MappingError", "security.mapping"),
    "consign-unsound": (_consign_unsound, "ConsignError", "AJO201"),
    "consign-malformed": (
        _consign_malformed, "SerializationError", "ajo.serialization"),
    "fetch-malformed": (
        _malformed(RequestKind.FETCH_FILE, b"not json"),
        "SerializationError", "ajo.serialization"),
    "outcome-malformed": (
        _malformed(RequestKind.RETRIEVE_OUTCOME, b"\xff"),
        "SerializationError", "ajo.serialization"),
    "dispose-malformed": (
        _malformed(RequestKind.DISPOSE, b"\xff"),
        "SerializationError", "ajo.serialization"),
    "consign-crashed": (
        _consign_crashed, "ServiceUnavailable", "faults.unavailable"),
    "list-crashed": (_list_crashed, "ServiceUnavailable", "faults.unavailable"),
    "expired-certificate": (
        _expired, "CertificateExpired", "security.certificate_expired"),
    **{
        f"{verb}-{which}": (_on_job(verb, which), cls, code)
        for verb in _JOB_VERBS
        for which, cls, code in (
            ("unknown", "UnknownUnicoreJobError", "server.unknown_job"),
            ("foreign", "ServerError", "server.error"),
            ("crashed", "ServiceUnavailable", "faults.unavailable"),
        )
    },
}


async def _scenario_refusal(grid, user, session, case):
    """What the client saw, and whether it is what the gateway sent."""
    sent = []
    refusal = gateway_module._refusal

    def spy(request, err):
        sent.append(err)
        return refusal(request, err)

    gateway_module._refusal = spy
    try:
        await _REFUSALS[case][0](grid, user, session)
    except ReproError as seen:
        [raised] = sent
        return {
            "class": type(seen).__name__,
            "code": seen.code,
            "as_raised": (type(seen), seen.code, str(seen))
            == (type(raised), raised.code, str(raised)),
        }
    finally:
        gateway_module._refusal = refusal
    return "not refused"


@pytest.mark.parametrize("case", sorted(_REFUSALS))
def test_a_refusal_reaches_the_client_as_the_server_raised_it(case):
    _, cls, code = _REFUSALS[case]
    seen = _run_sync_sim(functools.partial(_scenario_refusal, case=case))
    assert seen == {"class": cls, "code": code, "as_raised": True}


def test_the_gateway_keeps_serving_after_a_malformed_consign():
    async def scenario(grid, user, session):
        with pytest.raises(SerializationError, match="malformed AJO"):
            await _consign_malformed(grid, user, session)
        for kind, payload in (
            (RequestKind.FETCH_FILE, b"not json"),
            (RequestKind.FETCH_FILE, b"[1]"),
            (RequestKind.FETCH_FILE, b'{"job_id": [1], "path": "x"}'),
            (RequestKind.RETRIEVE_OUTCOME, b"\xff"),
            (RequestKind.DISPOSE, b"\xff"),
        ):
            with pytest.raises(SerializationError, match=kind.upper()):
                await _malformed(kind, payload)(grid, user, session)
        good = _sound_job(user.browser.user_dn, "after")
        return await _raw_consign(grid, session, good), await session.list_jobs()

    payload, listing = _run_sync_sim(scenario)
    assert [row.name for row in listing] == ["after"]
    assert listing[0].job_id.encode() in payload


@pytest.mark.parametrize("case", [
    "consign-unmapped", "consign-unsound", "dispose-foreign",
    "fetch-unknown", "query-crashed", "expired-certificate",
])
def test_refusal_parity(case):
    """One case of each kind over every pairing, the real sockets too
    (the wire codec carries ``error_code``)."""
    want = _assert_parity(functools.partial(_scenario_refusal, case=case))
    assert want["as_raised"] is True
