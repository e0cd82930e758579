"""Direct unit tests for gateway behaviours hard to reach via clients."""

import pytest

from repro import asn1
from repro.errors import CertificateExpired, CertificateRevoked
from repro.grid import build_grid
from repro.protocol.messages import Reply, Request, RequestKind


@pytest.fixture()
def wired():
    grid = build_grid({"FZJ": ["FZJ-T3E"]}, seed=59)
    user = grid.add_user("GW User", logins={"FZJ": "gw"})
    session = grid.connect_user(user, "FZJ")
    return grid, user, session


def test_request_from_unregistered_host_is_dropped(wired):
    """A request arriving outside any authenticated channel gets no reply
    and counts as an authentication failure."""
    grid, user, session = wired
    gateway = grid.usites["FZJ"].gateway
    before = gateway.auth_failures
    # Craft a raw request into the gateway inbox from a host that never
    # performed the handshake.
    grid.network.add_host("intruder")
    grid.network.link("intruder", gateway.host.name)
    request = Request(kind=RequestKind.LIST, user_dn="CN=Nobody", payload=b"{}")
    grid.network.send("intruder", gateway.host.name, request, request.wire_size)
    grid.sim.run()
    assert gateway.auth_failures == before + 1
    assert grid.network.host("intruder").received_messages == 0  # no reply


def test_reply_cache_returns_identical_reply(wired):
    grid, user, session = wired
    gateway = grid.usites["FZJ"].gateway
    from repro.ajo import ListService, encode_service

    request = Request(
        kind=RequestKind.LIST, user_dn=session.user_dn,
        payload=encode_service(ListService("l")),
    )
    replies = []

    def scenario(sim):
        r1 = yield from session.client.interact(request)
        replies.append(r1)

    p = grid.sim.process(scenario(grid.sim))
    grid.sim.run(until=p)
    cached = gateway._reply_cache[request.request_id].reply
    assert isinstance(cached, Reply)
    assert cached.payload == replies[0].payload


def test_every_verb_of_the_protocol_has_its_one_handler(wired):
    """The vocabulary and the dispatch table are the same set (a dict
    holds each verb once), and no two verbs share a handler."""
    grid, user, session = wired
    handlers = grid.usites["FZJ"].gateway.handlers
    assert set(handlers) == set(RequestKind.ALL)
    assert len({handler.__name__ for handler in handlers.values()}) == 8


def test_revoked_mid_session_certificate_refused_per_request(wired):
    """Revocation takes effect on the *next request*, not just the next
    connection — the gateway re-validates every time."""
    grid, user, session = wired
    from repro.client import JobMonitorController

    jmc = JobMonitorController(session)

    def list_jobs(sim):
        return (yield from jmc.list_jobs())

    p = grid.sim.process(list_jobs(grid.sim))
    assert grid.sim.run(until=p) == []

    grid.ca.revoke(user.browser.user_cert, reason="compromised")

    p2 = grid.sim.process(list_jobs(grid.sim))
    with pytest.raises(CertificateRevoked, match="authentication failed"):
        grid.sim.run(until=p2)


def test_certificate_expiring_mid_session_refused_on_next_request(wired):
    """The validity window is checked against the clock of each request:
    a channel opened in time does not outlive its certificate."""
    grid, user, session = wired
    from repro.client import JobMonitorController

    jmc = JobMonitorController(session)

    def list_jobs(sim):
        return (yield from jmc.list_jobs())

    assert grid.sim.run(until=grid.sim.process(list_jobs(grid.sim))) == []

    grid.sim.run(until=user.browser.user_cert.validity.not_after + 1.0)

    with pytest.raises(CertificateExpired, match="authentication failed.*valid"):
        grid.sim.run(until=grid.sim.process(list_jobs(grid.sim)))


def test_serve_unknown_applet_raises(wired):
    grid, user, session = wired
    from repro.server import ServerError

    with pytest.raises(ServerError, match="no applet"):
        grid.usites["FZJ"].gateway.serve_applet("Backdoor")


def test_resource_pages_decode_for_all_vsites(wired):
    grid, user, session = wired
    from repro.resources import ResourcePage

    pages = grid.usites["FZJ"].gateway.resource_pages()
    assert set(pages) == {"FZJ-T3E"}
    page = ResourcePage.from_asn1(pages["FZJ-T3E"])
    assert page.vsite == "FZJ-T3E"


def test_malformed_consignment_rejected_cleanly(wired):
    grid, user, session = wired

    def scenario(sim):
        request = Request(
            kind=RequestKind.CONSIGN_JOB, user_dn=session.user_dn,
            payload=b"this is not a consignment",
        )
        reply = yield from session.client.interact(request)
        return reply

    p = grid.sim.process(scenario(grid.sim))
    reply = grid.sim.run(until=p)
    assert not reply.ok
    assert "malformed consignment" in reply.error


@pytest.mark.parametrize("spec", [
    ["U00001@FZJ"],
    ["U00001@FZJ", "out.dat", "extra"],
    ["U00001@FZJ", 7],
    [b"U00001@FZJ", "out.dat"],
    {"job_id": "U00001@FZJ", "path": "out.dat"},
    "U00001@FZJ/out.dat",
])
def test_fetch_spec_that_is_not_two_strings_is_refused(wired, spec):
    grid, user, session = wired
    request = Request(
        kind=RequestKind.FETCH_FILE, user_dn=session.user_dn,
        payload=asn1.encode(spec),
    )

    def scenario(sim):
        return (yield from session.client.interact(request))

    reply = grid.sim.run(until=grid.sim.process(scenario(grid.sim)))
    assert not reply.ok
    assert reply.error_code == "ajo.serialization"
    assert "[job_id, path]" in reply.error


def test_ajo_user_mismatch_rejected(wired):
    """An AJO naming a different user than the authenticated one."""
    grid, user, session = wired
    from repro.ajo import AbstractJobObject, ExecuteScriptTask, encode_ajo
    from repro.protocol.consignment import encode_consignment

    ajo = AbstractJobObject(
        "forged", vsite="FZJ-T3E", user_dn="CN=Somebody Else"
    )
    ajo.add(ExecuteScriptTask("t", script="#!/bin/sh\nx\n"))

    def scenario(sim):
        request = Request(
            kind=RequestKind.CONSIGN_JOB, user_dn=session.user_dn,
            payload=encode_consignment(encode_ajo(ajo)),
        )
        reply = yield from session.client.interact(request)
        return reply

    p = grid.sim.process(scenario(grid.sim))
    reply = grid.sim.run(until=p)
    assert not reply.ok
    assert "names user" in reply.error


def test_reply_cache_is_bounded_by_the_retry_window(wired):
    """Streamed replies used to stay pinned for the gateway's lifetime.

    Entries age out once no retry can still ask for them: the cache
    holds a window's worth however many fetches went by, a disposed
    job's content is let go, and a retry inside the window is still
    answered from the cache with a re-pushed stream.
    """
    from repro.client import JobMonitorController, JobPreparationAgent
    from repro.observability import telemetry_for
    from repro.protocol.datapath import INLINE_FILE_MAX, fetch_bulk_payload
    from repro.server.gateway import REPLY_RETENTION_S

    grid, user, session = wired
    sim = grid.sim
    gateway = grid.usites["FZJ"].gateway
    metrics = telemetry_for(sim).metrics
    content = bytes(range(256)) * 1200
    assert len(content) > INLINE_FILE_MAX
    user.workstation.fs.write("/home/gw/input.dat", content)
    jpa = JobPreparationAgent(session)
    jmc = JobMonitorController(session)
    job = jpa.new_job("pinned", vsite="FZJ-T3E")
    imp = job.import_from_workstation("/home/gw/input.dat", "input.dat")
    work = job.script_task("w", script="#!/bin/sh\nx\n", simulated_runtime_s=5.0)
    job.depends(imp, work, files=["input.dat"])

    def run(gen):
        return sim.run(until=sim.process(gen))

    def consign_and_wait():
        job_id = yield from jpa.submit(job, workstation=user.workstation)
        yield from jmc.wait_for_completion(job_id)
        return job_id

    job_id = run(consign_and_wait())

    # Many more fetches than one window holds, four to a window.
    fetches = 40

    def fetch_spaced():
        for _ in range(fetches):
            assert (yield from jmc.fetch_file(job_id, "input.dat")) == content
            yield sim.timeout(REPLY_RETENTION_S / 4)

    run(fetch_spaced())
    assert len(gateway._reply_cache) <= 5
    assert gateway.requests_served > fetches

    # A retry inside the window: same request id, answered from the
    # cache (nothing re-served), stream pushed again.
    request = Request(
        kind=RequestKind.FETCH_FILE, user_dn=session.user_dn,
        payload=asn1.encode([job_id, "input.dat"]),
    )

    def fetch_twice():
        got = []
        for _ in range(2):
            reply = yield from session.client.interact(request)
            got.append((yield from fetch_bulk_payload(
                session.datapath, reply.payload
            )))
            yield sim.timeout(REPLY_RETENTION_S / 2)
        return got

    served = gateway.requests_served
    opens = metrics.counter_value("stream.opens")
    assert run(fetch_twice()) == [content, content]
    assert gateway.requests_served == served + 1
    assert metrics.counter_value("stream.opens") == opens + 2

    # Dispose, let the window pass: the next request sweeps the cache
    # and nothing in it pins the disposed job's content any more.
    def dispose_then_list():
        yield from jmc.dispose(job_id)
        yield sim.timeout(2 * REPLY_RETENTION_S)
        yield from jmc.list_jobs()

    run(dispose_then_list())
    assert len(gateway._reply_cache) == 1
    assert all(c.push is None for c in gateway._reply_cache.values())
