"""Tests for the AJO/Outcome wire codec and outcome semantics."""

import pytest

from repro.ajo import (
    AbstractJobObject,
    ActionStatus,
    AJOOutcome,
    CompileTask,
    ControlService,
    ExecuteScriptTask,
    ExportTask,
    FileOutcome,
    ImportTask,
    LinkTask,
    ListService,
    QueryService,
    SerializationError,
    ServiceOutcome,
    TaskOutcome,
    TransferTask,
    UserTask,
    decode_ajo,
    decode_outcome,
    encode_ajo,
    encode_outcome,
)
from repro.resources import ResourceRequest


def rich_job() -> AbstractJobObject:
    """A job exercising every concrete wire type."""
    root = AbstractJobObject(
        "cfd-study",
        vsite="FZJ-T3E",
        usite="FZJ",
        user_dn="CN=Alice, O=FZJ, C=DE",
        account_group="zam",
        site_security="smartcard:42",
    )
    imp = root.add(
        ImportTask(
            "fetch-mesh",
            source_path="/home/alice/mesh.grid",
            destination_path="mesh.grid",
            source_space="workstation",
        )
    )
    comp = root.add(
        CompileTask(
            "compile",
            sources=["solver.f90"],
            compiler="f90",
            options=["-O3"],
            resources=ResourceRequest(cpus=1, time_s=300),
        )
    )
    link = root.add(
        LinkTask("link", objects=["solver.o"], output="solver.exe", libraries=["mpi"])
    )
    run = root.add(
        UserTask(
            "run",
            executable="solver.exe",
            arguments=["-n", "64"],
            resources=ResourceRequest(cpus=64, time_s=7200, memory_mb=8192),
            environment={"OMP_NUM_THREADS": "1"},
        )
    )
    exp = root.add(
        ExportTask("save", source_path="result.dat", destination_path="/arch/result.dat")
    )
    root.add_dependency(imp, comp, files=["mesh.grid"])
    root.add_dependency(comp, link, files=["solver.o"])
    root.add_dependency(link, run, files=["solver.exe"])
    root.add_dependency(run, exp, files=["result.dat"])

    sub = AbstractJobObject("post-process", vsite="ZIB-SP2", usite="ZIB")
    sub.add(ExecuteScriptTask("viz", script="#!/bin/sh\nrender result.dat\n"))
    sub.add(
        TransferTask(
            "bring-results",
            source_path="result.dat",
            destination_path="result.dat",
            destination_usite="ZIB",
        )
    )
    root.add(sub)
    return root


# ---------------------------------------------------------------- AJO codec
def test_ajo_roundtrip_full():
    job = rich_job()
    restored = decode_ajo(encode_ajo(job))
    assert restored == job
    assert restored.total_actions() == job.total_actions()
    assert [d.files for d in restored.dependencies] == [
        d.files for d in job.dependencies
    ]


def test_ajo_encoding_deterministic():
    job = rich_job()
    assert encode_ajo(job) == encode_ajo(job)


def test_ajo_decode_preserves_subjob_destination():
    restored = decode_ajo(encode_ajo(rich_job()))
    sub = restored.sub_jobs()[0]
    assert sub.vsite == "ZIB-SP2"
    assert sub.usite == "ZIB"


def test_decode_rejects_garbage():
    with pytest.raises(SerializationError):
        decode_ajo(b"not json")
    with pytest.raises(SerializationError):
        decode_ajo(b'{"unicore_ajo": 99}')
    with pytest.raises(SerializationError):
        decode_ajo(b'{"unicore_ajo": 1, "type": "warp", "data": {}}')


def test_encode_rejects_bare_task():
    with pytest.raises(SerializationError):
        encode_ajo(UserTask("t", executable="x"))


def test_decode_rejects_truncated_payload():
    import json

    envelope = json.loads(encode_ajo(rich_job()))
    del envelope["data"]["name"]
    with pytest.raises(SerializationError):
        decode_ajo(json.dumps(envelope).encode())


def test_services_roundtrip_inside_envelope():
    """Services travel standalone; check their payloads reconstruct."""
    from repro.ajo.serialize import _decode_action, _encode_action

    for svc in (
        ControlService("kill", target_job_id="ajo42", verb="cancel"),
        ListService("ls"),
        QueryService("q", target_job_id="ajo42", detail="groups"),
    ):
        clone = _decode_action(_encode_action(svc))
        assert clone == svc


# ------------------------------------------------------------------ outcomes
def test_outcome_mark_transitions():
    out = TaskOutcome(action_id="x")
    out.mark(ActionStatus.QUEUED)
    out.mark(ActionStatus.RUNNING)
    out.mark(ActionStatus.SUCCESSFUL)
    assert out.status.is_terminal
    with pytest.raises(ValueError):
        out.mark(ActionStatus.FAILED)


def test_outcome_roundtrip_each_kind():
    task = TaskOutcome(action_id="t", exit_code=1, stdout="out", stderr="err")
    task.mark(ActionStatus.FAILED, reason="exit 1")
    file_out = FileOutcome(action_id="f", bytes_moved=1024, effective_bandwidth=2.5)
    svc = ServiceOutcome(action_id="s", answer={"jobs": ["a", "b"]})
    agg = AJOOutcome(action_id="root")
    agg.add_child(task)
    agg.add_child(file_out)
    agg.add_child(svc)

    restored = decode_outcome(encode_outcome(agg))
    assert isinstance(restored, AJOOutcome)
    rt = restored.child("t")
    assert isinstance(rt, TaskOutcome)
    assert rt.exit_code == 1 and rt.stdout == "out" and rt.reason == "exit 1"
    rf = restored.child("f")
    assert isinstance(rf, FileOutcome)
    assert rf.bytes_moved == 1024
    rs = restored.child("s")
    assert isinstance(rs, ServiceOutcome)
    assert rs.answer == {"jobs": ["a", "b"]}


def test_outcome_decode_rejects_garbage():
    with pytest.raises(SerializationError):
        decode_outcome(b"nope")
    with pytest.raises(SerializationError):
        decode_outcome(b'{"unicore_outcome": 1, "kind": "alien", "data": {}}')


def test_rollup_status_rules():
    agg = AJOOutcome(action_id="root")
    a = TaskOutcome(action_id="a")
    b = TaskOutcome(action_id="b")
    agg.add_child(a)
    agg.add_child(b)
    assert agg.rollup_status() is ActionStatus.PENDING
    a.mark(ActionStatus.QUEUED)
    assert agg.rollup_status() is ActionStatus.QUEUED
    a.mark(ActionStatus.RUNNING)
    assert agg.rollup_status() is ActionStatus.RUNNING
    a.mark(ActionStatus.SUCCESSFUL)
    b.mark(ActionStatus.QUEUED)
    b.mark(ActionStatus.RUNNING)
    b.mark(ActionStatus.FAILED)
    assert agg.rollup_status() is ActionStatus.FAILED


def test_rollup_all_successful():
    agg = AJOOutcome(action_id="root")
    for name in "ab":
        child = TaskOutcome(action_id=name)
        child.mark(ActionStatus.SUCCESSFUL)
        agg.add_child(child)
    assert agg.rollup_status() is ActionStatus.SUCCESSFUL


def test_rollup_killed_dominates_success():
    agg = AJOOutcome(action_id="root")
    ok = TaskOutcome(action_id="ok")
    ok.mark(ActionStatus.SUCCESSFUL)
    dead = TaskOutcome(action_id="dead")
    dead.mark(ActionStatus.KILLED)
    agg.add_child(ok)
    agg.add_child(dead)
    assert agg.rollup_status() is ActionStatus.KILLED


def test_rollup_reads_through_a_sub_group_in_flight():
    root = AJOOutcome(action_id="root")
    sub = AJOOutcome(action_id="sub")
    task = TaskOutcome(action_id="t")
    sub.add_child(task)
    root.add_child(sub)
    task.mark(ActionStatus.QUEUED)
    assert root.rollup_status() is ActionStatus.QUEUED
    # Every child of the sub-group ended, but the group is not over
    # until it is marked so: the job does not read as finished.
    task.mark(ActionStatus.SUCCESSFUL)
    assert sub.rollup_status() is ActionStatus.SUCCESSFUL
    assert root.rollup_status() is ActionStatus.PENDING
    sub.mark(ActionStatus.SUCCESSFUL)
    assert root.rollup_status() is ActionStatus.SUCCESSFUL


def test_rollup_empty_uses_own_status():
    agg = AJOOutcome(action_id="root")
    assert agg.rollup_status() is ActionStatus.PENDING


def test_status_colors_cover_all_states():
    for status in ActionStatus:
        assert status.display_color


def test_status_terminality():
    assert ActionStatus.SUCCESSFUL.is_terminal
    assert ActionStatus.FAILED.is_terminal
    assert ActionStatus.KILLED.is_terminal
    assert ActionStatus.NOT_ATTEMPTED.is_terminal
    assert not ActionStatus.PENDING.is_terminal
    assert not ActionStatus.QUEUED.is_terminal
    assert not ActionStatus.RUNNING.is_terminal
    assert ActionStatus.SUCCESSFUL.is_success
    assert not ActionStatus.FAILED.is_success


def test_outcome_find_recursive():
    root = AJOOutcome(action_id="root")
    mid = AJOOutcome(action_id="mid")
    leaf = TaskOutcome(action_id="leaf")
    mid.add_child(leaf)
    root.add_child(mid)
    root.add_child(TaskOutcome(action_id="top"))
    assert root.find("root") is root
    assert root.find("top").action_id == "top"
    assert root.find("mid") is mid
    assert root.find("leaf") is leaf
    with pytest.raises(KeyError):
        root.find("ghost")
