"""What a stream costs: simulated time on an idle line, queue entries on
a peer route.

A stream keeps two DATA frames in flight, so the next frame is sealed
and opened while the one before it crosses the line.  On an idle access
line a four-chunk fetch therefore pays the seal+open and the latency of
a chunk once, not once per chunk; stop-and-wait pays them four times.
Behind a firewall split each frame crosses the site's socket just ahead
of its channel send, so the fetch pays one chunk's crossing, not the
whole payload's.  On an NJS-NJS route every frame is a process of its
own, started inside the call that makes it, whose seal and open, and
whose crossing of the sender's firewall socket, ride ahead of the WAN
hop: one delivery per remaining hop and the wake-up of the stream that
waits for it, nothing else.  And what a stream costs in memory: a file
streamed from site to site within one process is one ``bytes`` object,
and pushing one to a client copies and compares none of its chunks.
"""

import collections
import gc
import random
import tracemalloc
import weakref
import zlib

import pytest

from repro.api import GridSession
from repro.client import JobMonitorController, JobPreparationAgent
from repro.grid import build_grid
from repro.net.https import DEFAULT_PER_RECORD_CPU_S
from repro.net import stream as net_stream
from repro.net.stream import FrameType, WireFrame, decode_frame
from repro.protocol.datapath import DEFAULT_CHUNK_BYTES
from repro.protocol.messages import Reply
from repro.security.ssl import SSLSession
from repro.server.gateway import AUTH_CPU_S
from repro.server.njs.peerlink import PeerFrame
from repro.simkernel import CallbackSlot, Simulator
from repro.vfs import body as vfs_body

#: One MiB, cut into four chunks.
CONTENT = bytes(range(256)) * (4 * DEFAULT_CHUNK_BYTES // 256)
CHUNKS = 4

#: Float slack on a sum of simulated seconds.
EPS = 1e-9


@pytest.fixture()
def two_sites():
    grid = build_grid({"FZJ": ["FZJ-T3E"], "ZIB": ["ZIB-SP2"]}, seed=13)
    user = grid.add_user(
        "Clara Schmidt", logins={"FZJ": "clara", "ZIB": "cschmidt"}
    )
    return grid, user


def _seal_open(size: int) -> float:
    return 2 * SSLSession.record_count(size) * DEFAULT_PER_RECORD_CPU_S


def _transmission(link, size: int) -> float:
    return link.transmission_delay(SSLSession.wire_bytes(size))


def _crossing(link, size: int) -> float:
    """Bytes across the firewall socket, unframed, on an idle link."""
    return link.transmission_delay(size) + link.latency_s


def _trip(link, size: int) -> float:
    """One https message of ``size`` payload bytes across an idle line."""
    return _seal_open(size) + _transmission(link, size) + link.latency_s


def test_a_four_chunk_fetch_pays_seal_open_and_latency_once(
    two_sites, monkeypatch
):
    grid, user = two_sites
    session = grid.connect_user(user, "FZJ")
    user.workstation.fs.write("/home/clara/input.dat", CONTENT)
    jpa = JobPreparationAgent(session)
    jmc = JobMonitorController(session)
    job = jpa.new_job("fetch-back", vsite="FZJ-T3E")
    imp = job.import_from_workstation("/home/clara/input.dat", "input.dat")
    work = job.script_task(
        "crunch", script="#!/bin/sh\nwc input.dat\n", simulated_runtime_s=30.0
    )
    job.depends(imp, work, files=["input.dat"])
    channel = session.channel
    up = grid.network.get_link(channel.client_host, channel.server_host)
    down = grid.network.get_link(channel.server_host, channel.client_host)
    site = grid.usites["FZJ"]
    assert site.firewall_split
    inward = grid.network.get_link(site.gateway_host.name, site.njs_host.name)
    outward = grid.network.get_link(site.njs_host.name, site.gateway_host.name)

    asked = []  # (sim time, request payload bytes), client -> gateway
    pushed = []  # (sim time, message, payload bytes), gateway -> client
    send = type(channel).send

    def logged(
        self, payload, size_bytes, to_server=True, deliver=True, ready_s=0.0
    ):
        if self.client_host == channel.client_host:
            if to_server:
                asked.append((grid.sim.now, size_bytes))
            else:
                pushed.append((grid.sim.now, payload, size_bytes))
        return send(self, payload, size_bytes, to_server, deliver, ready_s)

    def scenario(sim):
        job_id = yield from jpa.submit(job, workstation=user.workstation)
        yield from jmc.wait_for_completion(job_id)
        yield sim.timeout(60.0)  # the line falls idle
        del asked[:], pushed[:]
        fetched = yield from jmc.fetch_file(job_id, "input.dat")
        return fetched, sim.now

    monkeypatch.setattr(type(channel), "send", logged)
    fetched, done = grid.sim.run(until=grid.sim.process(scenario(grid.sim)))
    assert fetched == CONTENT

    [(started, request_size)] = asked
    (_, open_frame, open_size), *data, (_, reply, reply_size) = pushed
    assert decode_frame(open_frame).ftype == FrameType.OPEN
    assert isinstance(reply, Reply)
    assert [decode_frame(raw).ftype for _, raw, _ in data] == [FrameType.DATA] * CHUNKS
    chunk_size = data[0][2]
    assert {size for _, _, size in data} == {chunk_size}
    # The request crosses in; the OPEN frame crosses out and goes alone;
    # then the line carries four chunks back to back, and only the first
    # waits for its crossing and seal+open and only the last for its
    # latency before the reply crosses and leaves.  Stop-and-wait misses
    # this by 3 * (seal+open + latency) of a chunk, crossing the whole
    # payload ahead of the OPEN frame by 3 chunks' crossing.
    budget = (
        _trip(up, request_size) + AUTH_CPU_S + _crossing(inward, request_size)
        + _crossing(outward, open_size) + _trip(down, open_size)
        + _crossing(outward, chunk_size)
        + _seal_open(chunk_size) + CHUNKS * _transmission(down, chunk_size)
        + down.latency_s
        + _crossing(outward, reply_size) + _trip(down, reply_size)
    )
    assert done - started <= budget + EPS


def _cause(item) -> str:
    if type(item) is CallbackSlot:
        return f"slot {item.fn.__qualname__}"
    name = item.name or type(item).__name__
    if name.startswith("delivery:") and isinstance(item.value.payload, PeerFrame):
        return "peer hop delivered"
    return {
        "peer-frame": "peer-frame wakes the stream",
    }.get(name, name)


def test_a_peer_stream_costs_three_entries_per_frame(two_sites, monkeypatch):
    grid, _ = two_sites
    zib = grid.usites["ZIB"].njs
    route = zib.peers.routes["FZJ"]
    assert len(route) == 3  # both sites are split: NJS, gw, gw, NJS
    delivered = len(route) - 1  # the first hop is ZIB's socket, relayed

    def stream(sim):
        yield from zib.peers.stream(
            "FZJ", CONTENT, {"kind": "group-return", "path": "render.out"}
        )

    grid.sim.run(until=grid.sim.process(stream(grid.sim)))  # shake hands once
    entries = []
    step = Simulator.step

    def named_step(self):
        item = self._queue[0][2]
        if not getattr(item, "cancelled", False):
            entries.append(_cause(item))
        step(self)

    monkeypatch.setattr(Simulator, "step", named_step)
    grid.sim.run(until=grid.sim.process(stream(grid.sim), name="stream"))
    costs = collections.Counter(entries)
    assert costs.pop("stream") == 1
    frames = 1 + CHUNKS  # the OPEN frame, then one per chunk
    assert costs == {
        "peer hop delivered": delivered * frames,
        "peer-frame wakes the stream": frames,
    }


def test_a_streamed_file_is_held_once(two_sites):
    """A file uploaded to FZJ, handed to a sub-job at ZIB and fetched back
    is one ``bytes`` object in this process: each receiver compares its
    chunks with the body the sender framed and adopts its bytes, instead
    of joining a copy (four copies without that).  Every site still wraps
    them in a body of its own, and once the job is disposed no body of
    it is held for adoption."""
    grid, user = two_sites
    session = GridSession(grid, user, "FZJ")
    content = random.Random(15).randbytes(CHUNKS * DEFAULT_CHUNK_BYTES - 7)
    user.workstation.fs.write("/home/clara/input.dat", content)
    job = session.new_job("held-once", "FZJ-T3E")
    imp = job.import_from_workstation("/home/clara/input.dat", "input.dat")
    sub = job.sub_job("held-once-consume", vsite="ZIB-SP2", usite="ZIB")
    sub.script_task("consume", "#!/bin/sh\nwc input.dat\n",
                    simulated_runtime_s=60.0)
    job.depends(imp, sub, files=["input.dat"])
    handle = session.submit(job)
    assert session.wait(handle).status == "successful"
    fzj, zib = grid.usites["FZJ"].njs, grid.usites["ZIB"].njs
    group_id = zib.runs.serving(handle.job_id)[-1].job_id

    sites = [fzj.fetch_uspace_file(handle.job_id, "input.dat"),
             zib.fetch_uspace_file(group_id, "input.dat")]
    fetched = session.fetch_file(handle, "input.dat")
    assert fetched == content
    held = [user.workstation.fs.body("/home/clara/input.dat").data,
            *(body.data for body in sites), fetched]
    assert len({id(data) for data in held}) == 1
    assert sites[0] is not sites[1]  # each site's own body and checks

    site_bodies = [weakref.ref(body) for body in sites]
    del sites, held, fetched
    session.dispose(handle)
    zib.dispose(group_id)
    gc.collect()
    assert [ref() for ref in site_bodies] == [None, None]
    workstation = user.workstation.fs.body("/home/clara/input.dat")
    kept = vfs_body._HELD.get(vfs_body.held_key(content))
    assert kept is None or kept is workstation


def test_a_pushed_file_is_neither_copied_nor_compared(two_sites, monkeypatch):
    """A 4 MiB file pushed from the gateway to the client crosses as its
    frames' headers beside the sending body's own chunk views, and the
    client proves each chunk by identity: the push and the reassembly
    allocate less than one chunk between them and compare no byte against
    the held body.  (A frame joined to its header is a chunk-sized copy,
    and the receiver keeps every one until the stream completes: 4 MiB.)
    Every frame's CRC is still taken."""
    grid, user = two_sites
    session = GridSession(grid, user, "FZJ")
    content = random.Random(16).randbytes(16 * DEFAULT_CHUNK_BYTES)
    user.workstation.fs.write("/home/clara/input.dat", content)
    job = session.new_job("pushed", "FZJ-T3E")
    imp = job.import_from_workstation("/home/clara/input.dat", "input.dat")
    work = job.script_task("t", "#!/bin/sh\nwc input.dat\n")
    job.depends(imp, work, files=["input.dat"])
    handle = session.submit(job)
    assert session.wait(handle).status == "successful"
    body = grid.usites["FZJ"].njs.fetch_uspace_file(handle.job_id, "input.dat")

    pushed = []  # what the gateway hands the client's channel
    channel = session.session.channel
    send = type(channel).send

    def logged(self, payload, size_bytes, to_server=True, deliver=True, ready_s=0.0):
        if not to_server and isinstance(payload, WireFrame):
            pushed.append(payload)
        return send(self, payload, size_bytes, to_server, deliver, ready_s)

    compares = []
    equal_at = net_stream._equal_at

    def counted(held, chunk, offset):
        compares.append(offset)
        return equal_at(held, chunk, offset)

    checked = []  # bytes handed to CRC-32
    crc32 = zlib.crc32

    def metered(chunk, value=0):
        checked.append(len(chunk))
        return crc32(chunk, value)

    monkeypatch.setattr(type(channel), "send", logged)
    monkeypatch.setattr(net_stream, "_equal_at", counted)
    monkeypatch.setattr(zlib, "crc32", metered)
    tracemalloc.start()
    try:
        fetched = session.fetch_file(handle, "input.dat")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fetched is body.data
    data = [raw for raw in pushed if decode_frame(raw).ftype == FrameType.DATA]
    assert len(data) == 16
    assert all(raw.payload.obj is body.data for raw in data)
    assert compares == []
    assert sum(checked) >= len(content)  # the receiver's pass, whole
    assert peak < DEFAULT_CHUNK_BYTES
