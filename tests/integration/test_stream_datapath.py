"""The data plane end to end: chunked uploads, resumable transfers,
streamed result fetches.

The control plane (AJO consignment, status queries, acks) keeps its
small messages; everything bulky — workstation files riding with a
consignment, Uspace-to-Uspace transfers, outcome and file fetches —
moves as binary-framed chunked streams.  These tests drive whole jobs
through the three-tier stack and check the split behaves: big payloads
stream in chunks, a WAN drop mid-transfer resumes from the last acked
chunk instead of restarting, and fetched bytes come back exact.
"""

import types

import pytest

from repro.ajo import AbstractJobObject, ExecuteScriptTask, encode_ajo
from repro.client import JobMonitorController, JobPreparationAgent
from repro.errors import ReproError, UnsafePathError
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultEvent, FaultKind, FaultPlan
from repro.grid import build_grid
from repro.net.errors import ConnectionLost
from repro.net.stream import FrameType, WireFrame, decode_frame
from repro.observability import telemetry_for
from repro.protocol.consignment import validate_manifest_paths
from repro.protocol.datapath import (
    CHUNK_RETRIES,
    INLINE_FILE_MAX,
    DataPlaneEndpoint,
    claim,
)
from repro.protocol.retry import RetryPolicy
from repro.server.njs.peerlink import ForwardGroup, GroupResult, PeerFrame
from repro.storage.journal import Parent


@pytest.fixture()
def two_sites():
    grid = build_grid({"FZJ": ["FZJ-T3E"], "ZIB": ["ZIB-SP2"]}, seed=13)
    user = grid.add_user(
        "Clara Schmidt",
        organization="FZ Juelich",
        logins={"FZJ": "clara", "ZIB": "cschmidt"},
    )
    session = grid.connect_user(user, "FZJ")
    return grid, user, session


def test_large_consign_upload_streams_and_roundtrips(two_sites):
    """A workstation file above the inline ceiling streams to the NJS
    in chunks and comes back byte-exact through a streamed fetch."""
    grid, user, session = two_sites
    content = bytes(range(256)) * 1200  # ~300 KiB, all byte values
    assert len(content) > INLINE_FILE_MAX
    user.workstation.fs.write("/home/clara/input.dat", content)
    jpa = JobPreparationAgent(session)
    jmc = JobMonitorController(session)

    job = jpa.new_job("bulk-upload", vsite="FZJ-T3E")
    imp = job.import_from_workstation("/home/clara/input.dat", "input.dat")
    work = job.script_task(
        "crunch", script="#!/bin/sh\nwc input.dat\n", simulated_runtime_s=30.0
    )
    job.depends(imp, work, files=["input.dat"])

    def scenario(sim):
        job_id = yield from jpa.submit(job, workstation=user.workstation)
        final = yield from jmc.wait_for_completion(job_id)
        fetched = yield from jmc.fetch_file(job_id, "input.dat")
        return job_id, final, fetched

    p = grid.sim.process(scenario(grid.sim))
    job_id, final, fetched = grid.sim.run(until=p)
    assert final.status == "successful"
    # Byte-exact roundtrip: upload stream in, push stream back out.
    assert fetched == content
    metrics = telemetry_for(grid.sim).metrics
    # The upload and the fetch each moved multiple chunks; nothing was
    # lost, so nothing resumed.
    assert metrics.counter_value("stream.opens") >= 2
    assert metrics.counter_value("stream.chunks") >= 4
    assert metrics.counter_value("stream.resumes") == 0
    # Framing overhead is bytes, not base64: the data plane carried both
    # directions for well under 3x one payload.
    assert metrics.counter_value("stream.wire_bytes") < 3 * len(content)
    # The file physically landed in the job's uspace.
    assert grid.usites["FZJ"].njs.runs[job_id].file("input.dat") == content


def _run_transfer_job(two_sites, drop_wan: bool):
    """A 1 MiB Uspace file transferred FZJ -> ZIB ahead of the sub-job
    that reads it there; optionally with the WAN link dropped under it."""
    grid, user, session = two_sites
    jpa = JobPreparationAgent(session)
    jmc = JobMonitorController(session)

    root = jpa.new_job("xfer-under-fire", vsite="FZJ-T3E")
    work = root.script_task(
        "produce", script="#!/bin/sh\nmake data\n", simulated_runtime_s=60.0
    )
    remote = root.sub_job("consume@ZIB", vsite="ZIB-SP2", usite="ZIB")
    remote.script_task(
        "consume", script="#!/bin/sh\nread big.dat\n", simulated_runtime_s=60.0
    )
    xfer = root.transfer_to_usite("big.dat", "ZIB")
    root.depends(work, xfer, files=["big.dat"])
    root.depends(xfer, remote.ajo)

    if drop_wan:
        # The 1 MiB transfer starts right after the 60 s produce task;
        # drop the gateway-gateway link across that window.  Chunk resends
        # are spaced a few seconds apart, so the stream rides out the
        # outage.
        gw_a = grid.usites["FZJ"].gateway_host.name
        gw_b = grid.usites["ZIB"].gateway_host.name
        plan = FaultPlan(
            seed=13, intensity=1.0, horizon_s=200.0,
            events=(
                FaultEvent(
                    at_s=61.0, kind=FaultKind.CHANNEL_DROP,
                    target=f"{gw_a}|{gw_b}", duration_s=10.0, severity=1.0,
                ),
            ),
        )
        FaultInjector(grid, plan).arm()

    def scenario(sim):
        job_id = yield from jpa.submit(root)
        final = yield from jmc.wait_for_completion(job_id)
        return job_id, final

    p = grid.sim.process(scenario(grid.sim))
    job_id, final = grid.sim.run(until=p)
    assert final.status == "successful"
    assert grid.usites["FZJ"].njs.forwarding.transfers_bytes == 1 << 20
    # The file arrived before the group that reads it, so it waited in
    # the early-file stash under the parent job id; the group claimed it
    # on arrival, and nothing is left behind at quiescence.
    zib = grid.usites["ZIB"].njs
    assert len(zib.runs.serving(job_id)[-1].file("big.dat")) == 1 << 20
    assert zib.forwarding.stashes()["early"] == {}
    return telemetry_for(grid.sim).metrics


def test_transfer_resumes_after_wan_drop(two_sites):
    """E13-style channel drop mid-transfer: the stream resends only the
    chunks that were lost, and the job still succeeds."""
    metrics = _run_transfer_job(two_sites, drop_wan=True)
    # Chunks really were lost and resent from the last acked point...
    assert metrics.counter_value("stream.resumes") >= 1
    # ...rather than the whole payload restarting: the wire carried far
    # less than two full copies of the 1 MiB file.
    assert metrics.counter_value("stream.wire_bytes") < 2 * (1 << 20)


def test_transfer_ahead_of_its_group_reaches_the_group_uspace(two_sites):
    metrics = _run_transfer_job(two_sites, drop_wan=False)
    assert metrics.counter_value("stream.resumes") == 0


def test_forwarded_group_stages_and_returns_large_files(two_sites):
    """Forward staging and group returns both use the data plane when
    the dependency files exceed the inline ceiling (1 MiB here)."""
    grid, user, session = two_sites
    jpa = JobPreparationAgent(session)
    jmc = JobMonitorController(session)

    root = jpa.new_job("coupled", vsite="FZJ-T3E")
    pre = root.script_task(
        "preprocess", script="#!/bin/sh\nprep\n", simulated_runtime_s=60.0
    )
    post_group = root.sub_job("postprocess@ZIB", vsite="ZIB-SP2", usite="ZIB")
    post_group.script_task(
        "render", script="#!/bin/sh\nrender field.dat\n",
        simulated_runtime_s=60.0,
    )
    final_task = root.script_task(
        "archive", script="#!/bin/sh\ntar render.out\n",
        simulated_runtime_s=30.0,
    )
    root.depends(pre, post_group.ajo, files=["field.dat"])
    root.depends(post_group.ajo, final_task, files=["render.out"])

    def scenario(sim):
        job_id = yield from jpa.submit(root)
        final = yield from jmc.wait_for_completion(job_id)
        return job_id, final

    p = grid.sim.process(scenario(grid.sim))
    job_id, final = grid.sim.run(until=p)
    assert final.status == "successful"
    metrics = telemetry_for(grid.sim).metrics
    # field.dat streamed out with the forwarded group, render.out
    # streamed back with the group result: two streams, 1 MiB each.
    assert metrics.counter_value("stream.opens") >= 2
    assert metrics.counter_value("stream.chunks") >= 8
    # The returned file was staged into the root group's Uspace for the
    # archive step.
    root_run = grid.usites["FZJ"].njs.runs[job_id]
    assert len(root_run.file("render.out")) == 1 << 20


def test_group_return_stream_nobody_expects_is_dropped(two_sites):
    """Result files stream home ahead of their GroupResult and stay parked
    until it claims them.  A result nobody awaits — its forward was given
    up on, an earlier copy answered it, or a restart forgot it — is
    dropped with the streams it names, so they are not pinned for ever."""
    grid, user, session = two_sites
    fzj, zib = grid.usites["FZJ"].njs, grid.usites["ZIB"].njs
    metrics = telemetry_for(grid.sim).metrics
    data = bytes(range(256)) * 16

    def result_home(key):
        def scenario(sim):
            entry = yield from zib.peers.stream(
                "FZJ", data, {"kind": "group-return", "path": "render.out"}
            )
            yield from zib.peers.send("FZJ", GroupResult(
                key, ok=True, files={"render.out": entry}
            ))
            yield sim.timeout(1.0)  # let the FZJ inbox drain
            return entry

        entry = grid.sim.run(until=grid.sim.process(scenario(grid.sim)))
        return entry, metrics.counter_value("njs.dropped_peer_messages")

    key = ("U1@FZJ", "ajo000007")
    reply = fzj.peers.expect(key, "group-result")
    entry, dropped = result_home(key)
    assert dropped == 0 and reply.value.files == {"render.out": entry}
    # The awaited result's claim takes the parked stream.
    assert claim(fzj.forwarding.datapath, reply.value.files) == {
        "render.out": data
    }
    # A second copy of it, and one nobody ever asked for.
    for n, unasked in enumerate([key, ("U1@FZJ", "ajo000008")], start=1):
        entry, dropped = result_home(unasked)
        assert dropped == n
        assert fzj.forwarding.datapath.take(entry.stream_id) is None
    # The restart forgot who was waiting.
    fzj.peers.expect(key, "group-result")
    fzj.crash()
    fzj.restart()
    entry, dropped = result_home(key)
    assert dropped == 3
    assert fzj.forwarding.datapath.take(entry.stream_id) is None


@pytest.mark.parametrize("forgery", ["inline", "streamed", "another-user"])
def test_a_forged_forwarded_group_is_refused(two_sites, forgery):
    """A group is refused whole, and leaves no run and no stream behind,
    when a staging file is named ``../…`` (inside the ForwardGroup or
    streamed ahead of it) or its AJO names another user than the one
    the message carries: a peer's group passes the gateway's rule."""
    grid, user, session = two_sites
    fzj, zib = grid.usites["FZJ"].njs, grid.usites["ZIB"].njs
    another = forgery == "another-user"
    group = AbstractJobObject(
        "evil", vsite="FZJ-T3E", usite="FZJ",
        user_dn="CN=Somebody Else" if another else "",
    )
    group.add(ExecuteScriptTask("t", script="#!/bin/sh\nx\n"))
    data = b"\x5a" * (INLINE_FILE_MAX + 1)
    reply = zib.peers.expect(("U1@ZIB", group.id), "group-result")
    runs = len(fzj.runs)

    def scenario(sim):
        item = data
        if forgery == "streamed":
            item = yield from zib.peers.stream(
                "FZJ", data, {"kind": "forward-stage", "path": "../evil"}
            )
        yield from zib.peers.send("FZJ", ForwardGroup(
            parent=Parent("U1@ZIB", "ZIB"), group_id=group.id,
            user_dn=session.user_dn, ajo_bytes=encode_ajo(group),
            files={} if another else {"../evil": item},
        ))
        return (yield reply), item

    result, item = grid.sim.run(until=grid.sim.process(scenario(grid.sim)))
    assert not result.ok and len(fzj.runs) == runs
    if another:
        assert result.error.startswith("AJO names user 'CN=Somebody Else'")
        return
    with pytest.raises(UnsafePathError) as refused:
        validate_manifest_paths(["../evil"], what="forwarded staging")
    assert result.error == str(refused.value)
    if forgery == "streamed":
        assert fzj.forwarding.datapath.take(item.stream_id) is None


# --------------------------------------------------- loss inside the window
#: Half the width of a drop window: far below the ~1 s between two
#: frames on the access line, so one window catches one sending.
DROP_HALF_S = 1e-3
MiB = 1 << 20


def _log_frames(grid, src, dst):
    """``(sim time, frame)`` of every frame handed to the ``src -> dst``
    link, peer-tunnelled or not, in call order."""
    sent = []
    send = grid.network.send

    def logged(s, d, payload, size_bytes, **kwargs):
        raw = payload.raw if isinstance(payload, PeerFrame) else payload
        if (s, d) == (src, dst) and isinstance(raw, (bytes, WireFrame)):
            sent.append((grid.sim.now, decode_frame(raw)))
        return send(s, d, payload, size_bytes, **kwargs)

    grid.network.send = logged
    return sent


def _drop(grid, src, dst, start_s, duration_s):
    """Drop what enters the ``src``/``dst`` link pair in that window of
    simulated time (absolute); the injector caps the loss at 0.99."""
    FaultInjector(grid, FaultPlan(
        seed=13, intensity=1.0, horizon_s=start_s + duration_s,
        events=(FaultEvent(
            at_s=start_s - grid.sim.now, kind=FaultKind.CHANNEL_DROP,
            target=f"{src}|{dst}", duration_s=duration_s, severity=1.0,
        ),),
    )).arm()


def _fetch_back(monkeypatch, drop=None):
    """Upload 1 MiB (four chunks), then fetch it back on an idle access
    line; ``drop = (start_s, duration_s)`` drops the gateway -> client
    link pair in that window.  The run is deterministic, so a fault-free
    run says when each pushed frame leaves."""
    grid = build_grid({"FZJ": ["FZJ-T3E"], "ZIB": ["ZIB-SP2"]}, seed=13)
    user = grid.add_user("Clara Schmidt", logins={"FZJ": "clara", "ZIB": "cs"})
    fed = []  # frames handed to the client's endpoint
    feed = DataPlaneEndpoint.feed

    def logged_feed(endpoint, raw):
        if endpoint is session.datapath:
            fed.append(decode_frame(raw))
        return feed(endpoint, raw)

    monkeypatch.setattr(DataPlaneEndpoint, "feed", logged_feed)
    session = grid.connect_user(user, "FZJ")
    # Patient enough to outlast a push that exhausts its retries.
    session.client.retry = RetryPolicy(max_attempts=10)
    gw, ws = session.channel.server_host, session.channel.client_host
    if drop is not None:
        _drop(grid, gw, ws, *drop)
    sent = _log_frames(grid, gw, ws)
    content = bytes(range(256)) * (MiB // 256)
    user.workstation.fs.write("/home/clara/input.dat", content)
    jpa = JobPreparationAgent(session)
    jmc = JobMonitorController(session)
    job = jpa.new_job("fetch-back", vsite="FZJ-T3E")
    imp = job.import_from_workstation("/home/clara/input.dat", "input.dat")
    work = job.script_task("t", script="#!/bin/sh\nwc input.dat\n")
    job.depends(imp, work, files=["input.dat"])

    def scenario(sim):
        job_id = yield from jpa.submit(job, workstation=user.workstation)
        yield from jmc.wait_for_completion(job_id)
        try:
            return (yield from jmc.fetch_file(job_id, "input.dat"))
        except ReproError as err:
            return err

    fetched = grid.sim.run(until=grid.sim.process(scenario(grid.sim)))
    grid.sim.run(until=grid.sim.now + 600.0)  # every frame settled
    return types.SimpleNamespace(
        fetched=fetched, content=content, sent=sent, fed=fed,
        metrics=telemetry_for(grid.sim).metrics,
    )


def _pushed_order(run):
    """The push's frames as the client was fed them: "open" or a chunk's
    sequence number."""
    return [
        "open" if frame.ftype == FrameType.OPEN else frame.seq
        for frame in run.fed
    ]


@pytest.mark.parametrize(
    "index, order",
    [
        (0, ["open", 0, 1, 2, 3]),  # the OPEN frame, alone on the line
        # Chunk 2 leaves when chunk 0 arrives; chunk 3 is in flight
        # behind it, and arrives before chunk 2's resend.
        (3, ["open", 0, 1, 3, 2]),
    ],
    ids=["open", "data-with-successor-in-flight"],
)
def test_a_frame_lost_inside_the_window_is_resent_alone(
    monkeypatch, index, order
):
    probe = _fetch_back(monkeypatch)
    assert [frame.ftype for _, frame in probe.sent] == (
        [FrameType.OPEN] + [FrameType.DATA] * 4
    )
    leaves = probe.sent[index][0]
    run = _fetch_back(monkeypatch, drop=(leaves - DROP_HALF_S, 2 * DROP_HALF_S))
    assert run.fetched == run.content
    assert run.metrics.counter_value("stream.resumes") == 1
    assert len(run.sent) == len(probe.sent) + 1
    # No DATA frame reaches the client before its stream's OPEN frame.
    assert _pushed_order(run) == order


def test_a_frame_that_exhausts_its_retries_aborts_the_push_quietly(monkeypatch):
    """Chunk 2 is lost on every try while chunk 3, sent behind it, is lost
    unobserved: the push raises ConnectionLost and counts an abort, the
    simulator sees no unhandled failure, and the client's retried request
    pushes the file again once the line is back."""
    leaves = _fetch_back(monkeypatch).sent[3][0]
    # The line stays down until chunk 2's last resend has left.
    lost = _fetch_back(monkeypatch, drop=(leaves - DROP_HALF_S, 400.0)).sent
    resends = [t for t, frame in lost if frame.seq == 2]
    assert len(resends) >= 1 + CHUNK_RETRIES
    last = resends[CHUNK_RETRIES]
    run = _fetch_back(
        monkeypatch, drop=(leaves - DROP_HALF_S, last - leaves + 2 * DROP_HALF_S)
    )
    assert run.metrics.counter_value("gateway.push_aborts") == 1
    assert run.metrics.counter_value("stream.resumes") == 1 + CHUNK_RETRIES
    data = [frame.seq for _, frame in run.sent if frame.ftype == FrameType.DATA]
    assert data[:4 + CHUNK_RETRIES] == [0, 1, 2, 3] + [2] * CHUNK_RETRIES
    assert run.fetched == run.content  # pushed again from the reply cache


def test_a_peer_frame_that_exhausts_its_retries_raises_and_leaves_no_failure():
    """The same on an NJS-NJS route, where each frame is a process: the
    stream raises ConnectionLost, and the frame process left in flight
    behind the lost one fails unobserved."""

    def run(drop=None):
        grid = build_grid({"FZJ": ["FZJ-T3E"], "ZIB": ["ZIB-SP2"]}, seed=13)
        zib = grid.usites["ZIB"].njs
        wan = (grid.usites["ZIB"].gateway_host.name,
               grid.usites["FZJ"].gateway_host.name)

        def stream(sim):
            try:
                yield from zib.peers.stream(
                    "FZJ", bytes(MiB), {"kind": "group-return", "path": "x"}
                )
            except ConnectionLost:
                return "lost"
            return "sent"

        grid.sim.run(until=grid.sim.process(stream(grid.sim)))  # handshake
        if drop is not None:
            _drop(grid, *wan, *drop)
        sent = _log_frames(grid, *wan)
        outcome = grid.sim.run(until=grid.sim.process(stream(grid.sim)))
        grid.sim.run(until=grid.sim.now + 600.0)  # every frame settled
        return outcome, sent, telemetry_for(grid.sim).metrics

    outcome, sent, _ = run()
    assert outcome == "sent" and len(sent) == 5
    outcome, sent, metrics = run(drop=(sent[3][0] - DROP_HALF_S, 400.0))
    assert outcome == "lost"
    assert metrics.counter_value("stream.resumes") == 1 + CHUNK_RETRIES
    # Chunk 3 left behind chunk 2, once, and was lost unobserved.
    assert [frame.seq for _, frame in sent if frame.ftype == FrameType.DATA] == (
        [0, 1, 2, 3] + [2] * CHUNK_RETRIES
    )
