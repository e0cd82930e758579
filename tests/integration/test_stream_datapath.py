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

import pytest

from repro.client import JobMonitorController, JobPreparationAgent
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultEvent, FaultKind, FaultPlan
from repro.grid import build_grid
from repro.observability import telemetry_for
from repro.protocol.datapath import INLINE_FILE_MAX


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
    assert final["status"] == "successful"
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
    run = grid.usites["FZJ"].njs.runs[job_id]
    uspace = next(iter(run.uspaces.values()))
    assert uspace.read("input.dat") == content


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
    assert final["status"] == "successful"
    assert grid.usites["FZJ"].njs.forwarding.transfers_bytes == 1 << 20
    # The file arrived before the group that reads it, so it waited in
    # the early-file stash under the parent job id; the group claimed it
    # on arrival, and nothing is left behind at quiescence.
    zib = grid.usites["ZIB"].njs
    group_run = zib.forwarding.foreign_run(job_id)
    uspace = next(iter(group_run.uspaces.values()))
    assert uspace.size("big.dat") == 1 << 20
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
    assert final["status"] == "successful"
    metrics = telemetry_for(grid.sim).metrics
    # field.dat streamed out with the forwarded group, render.out
    # streamed back with the group result: two streams, 1 MiB each.
    assert metrics.counter_value("stream.opens") >= 2
    assert metrics.counter_value("stream.chunks") >= 8
    # The returned file reached the root run for the archive step.
    root_run = grid.usites["FZJ"].njs.runs[job_id]
    remote_files = root_run.remote_files.get(post_group.ajo.id, {})
    assert len(remote_files.get("render.out", b"")) == 1 << 20


def test_group_return_stream_nobody_expects_is_dropped(two_sites):
    """Result files that stream home ahead of a GroupResult are kept only
    while the forward that asked for them still waits; a forward given up
    on, or forgotten by a restart, must not pin its files for ever."""
    grid, user, session = two_sites
    fzj, zib = grid.usites["FZJ"].njs, grid.usites["ZIB"].njs
    metrics = telemetry_for(grid.sim).metrics
    data = bytes(range(256)) * 16

    def stream_home(corr_id):
        def scenario(sim):
            yield from zib.peers.stream(
                "FZJ", data,
                {"kind": "group-return", "corr": corr_id, "path": "render.out"},
            )
            yield sim.timeout(1.0)  # let the FZJ inbox drain

        grid.sim.run(until=grid.sim.process(scenario(grid.sim)))
        return metrics.counter_value("njs.dropped_peer_messages")

    corr_id, _reply = fzj.peers.expect("group-result")
    assert stream_home(corr_id) == 0
    assert fzj.forwarding.stashes()["returned"] == {corr_id: {"render.out": data}}
    # Nobody ever asked for this one.
    assert stream_home(corr_id + 1000) == 1
    assert fzj.forwarding.stashes()["returned"] == {corr_id: {"render.out": data}}
    # The restart forgot who was waiting: the same stream is now unclaimed.
    fzj.crash()
    fzj.restart()
    assert stream_home(corr_id) == 2
    assert fzj.forwarding.stashes()["returned"] == {}
