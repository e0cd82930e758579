"""What the section 5.2 firewall split may cost a file on the data plane.

The gateway and the NJS of a split site are joined by an IP socket.  A
streamed file crosses it one frame at a time, each crossing folded into
the step that carries the frame on: a fetch waits for one chunk's
crossing, not the whole payload's, and a consign request waits behind
at most one frame of its upload.  A retried request answered from the
gateway's reply cache crosses nothing: the gateway holds the answer.
"""

from repro import asn1
from repro.client import JobMonitorController, JobPreparationAgent
from repro.grid.build import Grid, _build_applets
from repro.net.sim_transport import Network
from repro.net.stream import FrameType, decode_frame
from repro.protocol.datapath import DEFAULT_CHUNK_BYTES
from repro.protocol.messages import Request, RequestKind
from repro.security.ca import CertificateAuthority
from repro.server.gateway import AUTH_CPU_S
from repro.simkernel import Simulator

#: One MiB, cut into four chunks.
CONTENT = bytes(range(256)) * (4 * DEFAULT_CHUNK_BYTES // 256)

#: Float slack on a sum of simulated seconds.
EPS = 1e-9


def _site(firewall_split: bool):
    """One Usite, split behind a firewall or not, with a user whose
    finished job holds ``input.dat``; returns what a scenario needs."""
    sim = Simulator()
    network = Network(sim, seed=29)
    ca = CertificateAuthority(key_bits=384, seed=29)
    grid = Grid(sim, network, ca)
    grid.applets.update(_build_applets(ca))
    usite = grid.add_usite("FZJ", ["FZJ-T3E"], firewall_split=firewall_split)
    user = grid.add_user("Fay Wall", logins={"FZJ": "fay"})
    user.workstation.fs.write("/home/fay/input.dat", CONTENT)
    session = grid.connect_user(user, "FZJ")
    jpa = JobPreparationAgent(session)
    jmc = JobMonitorController(session)
    job = jpa.new_job("split" if firewall_split else "colo", vsite="FZJ-T3E")
    imp = job.import_from_workstation("/home/fay/input.dat", "input.dat")
    work = job.script_task(
        "crunch", script="#!/bin/sh\nwc input.dat\n", simulated_runtime_s=30.0
    )
    job.depends(imp, work, files=["input.dat"])
    return grid, usite, session, jpa, jmc, job, user


def _crossing(link, size: int) -> float:
    """``size`` bytes across an idle firewall socket."""
    return link.transmission_delay(size) + link.latency_s


def _run(grid, generator):
    return grid.sim.run(until=grid.sim.process(generator))


def _fetch_after_idle(firewall_split: bool):
    """Consign, wait, let the lines fall idle, then time one fetch of the
    four-chunk file; returns the seconds, the site and the sizes that
    crossed the channel (the request, then the OPEN frame, one DATA
    frame and the reply)."""
    grid, usite, session, jpa, jmc, job, user = _site(firewall_split)
    channel = session.channel
    sent = []
    send = type(channel).send

    def logged(
        self, payload, size_bytes, to_server=True, deliver=True, ready_s=0.0
    ):
        sent.append((payload, size_bytes))
        return send(self, payload, size_bytes, to_server, deliver, ready_s)

    def scenario(sim):
        job_id = yield from jpa.submit(job, workstation=user.workstation)
        yield from jmc.wait_for_completion(job_id)
        yield sim.timeout(60.0)
        del sent[:]
        started = sim.now
        assert (yield from jmc.fetch_file(job_id, "input.dat")) == CONTENT
        return sim.now - started

    type(channel).send = logged
    try:
        seconds = _run(grid, scenario(grid.sim))
    finally:
        type(channel).send = send
    (request, request_size), (open_frame, open_size), (_, chunk_size), *_, (
        _, reply_size
    ) = sent
    assert isinstance(request, Request)
    assert decode_frame(open_frame).ftype == FrameType.OPEN
    return seconds, usite, (request_size, open_size, chunk_size, reply_size)


def test_a_split_fetch_crosses_one_chunk_not_the_whole_payload():
    colocated, _, sizes = _fetch_after_idle(firewall_split=False)
    split, usite, split_sizes = _fetch_after_idle(firewall_split=True)
    assert split_sizes == sizes
    request_size, open_size, chunk_size, reply_size = sizes
    network = usite.network
    inward = network.get_link(usite.gateway_host.name, usite.njs_host.name)
    outward = network.get_link(usite.njs_host.name, usite.gateway_host.name)
    # The request crosses in, the OPEN frame out; then the first chunk's
    # crossing is paid, and the later ones overlap the WAN sends of the
    # chunks before them; the reply crosses last.  Store-and-forward pays
    # the crossing of all four chunks before the OPEN frame leaves.
    extra = (
        _crossing(inward, request_size) + _crossing(outward, open_size)
        + _crossing(outward, chunk_size) + _crossing(outward, reply_size)
    )
    assert split > colocated
    assert split - colocated <= extra + EPS, (split - colocated, extra)
    assert extra < _crossing(outward, len(CONTENT))


def test_a_consign_waits_behind_at_most_one_frame_of_its_upload(monkeypatch):
    grid, usite, session, jpa, jmc, job, user = _site(firewall_split=True)
    gateway = usite.gateway
    frames = []  # (sim time, frame bytes) as each reaches the gateway
    requests = []  # (sim time, wire size) of the CONSIGN request there
    consigned = []  # sim time its handler ran, i.e. it reached the NJS
    feed = gateway.datapath.feed
    receive = gateway._receive

    def fed(raw):
        frames.append((grid.sim.now, len(raw)))
        return feed(raw)

    def received(message):
        if isinstance(message.payload, Request):
            requests.append((grid.sim.now, message.payload.wire_size))
        receive(message)

    consign = gateway.handlers[RequestKind.CONSIGN_JOB]

    def handler(request, span):
        consigned.append(grid.sim.now)
        return consign(request, span)

    monkeypatch.setattr(gateway.datapath, "feed", fed)
    monkeypatch.setitem(gateway.handlers, RequestKind.CONSIGN_JOB, handler)
    gateway.host.serve(received)

    def scenario(sim):
        return (yield from jpa.submit(job, workstation=user.workstation))

    _run(grid, scenario(grid.sim))
    assert len(frames) == 1 + 4  # OPEN, four chunks
    last_frame_at, frame_size = frames[-1]
    [(request_at, request_size)] = requests
    [consign_at] = consigned
    inward = grid.network.get_link(usite.gateway_host.name, usite.njs_host.name)
    # Once authenticated, the request leaves for the NJS behind at most
    # the last frame, and carries its own bytes alone; store-and-forward
    # carries all four chunks with it instead.
    leaves = max(
        request_at + AUTH_CPU_S,
        last_frame_at + inward.transmission_delay(frame_size),
    )
    assert consign_at <= leaves + _crossing(inward, request_size) + EPS


def test_a_retry_answered_from_the_reply_cache_crosses_nothing():
    grid, usite, session, jpa, jmc, job, user = _site(firewall_split=True)
    outward = grid.network.get_link(usite.njs_host.name, usite.gateway_host.name)

    def submit(sim):
        job_id = yield from jpa.submit(job, workstation=user.workstation)
        yield from jmc.wait_for_completion(job_id)
        return job_id

    job_id = _run(grid, submit(grid.sim))
    request = Request(
        kind=RequestKind.FETCH_FILE, user_dn=session.user_dn,
        payload=asn1.encode([job_id, "input.dat"]),
    )
    crossed = []

    def fetch(sim):
        before = outward.bytes_sent
        yield from session.client.interact(request)
        crossed.append(outward.bytes_sent - before)

    _run(grid, fetch(grid.sim))
    served = usite.gateway.requests_served
    _run(grid, fetch(grid.sim))  # the same request id: a retry
    assert usite.gateway.requests_served == served  # answered from the cache
    first, retry = crossed
    assert first > len(CONTENT)
    assert retry == 0


def test_nothing_sends_on_the_firewall_socket(monkeypatch):
    """Every crossing of the gateway-NJS socket is a relay: a job's
    consign, wait and fetch put no message on it."""
    grid, usite, session, jpa, jmc, job, user = _site(firewall_split=True)
    sent = []
    send = Network.send

    def logged(self, src, dst, *args, **kwargs):
        if {src, dst} == {usite.gateway_host.name, usite.njs_host.name}:
            sent.append((src, dst))
        return send(self, src, dst, *args, **kwargs)

    monkeypatch.setattr(Network, "send", logged)

    def scenario(sim):
        job_id = yield from jpa.submit(job, workstation=user.workstation)
        yield from jmc.wait_for_completion(job_id)
        assert (yield from jmc.fetch_file(job_id, "input.dat")) == CONTENT

    _run(grid, scenario(grid.sim))
    assert sent == []
