"""Unit tests for the consignment envelope and task incarnation."""

import pytest

from repro.ajo import (
    CompileTask,
    ExecuteScriptTask,
    ImportTask,
    LinkTask,
    SerializationError,
    UserTask,
)
from repro.batch import machine
from repro.batch.base import FileEffect
from repro import asn1
from repro.protocol.consignment import decode_consignment_envelope, encode_consignment
from repro.protocol.datapath import FileEntry, decode_item, item_value
from repro.resources import ResourceRequest
from repro.security.uudb import UserMapping
from repro.server.errors import IncarnationError
from repro.server.njs.incarnation import incarnate_task
from repro.server.vsite import Vsite
from repro.simkernel import Simulator
from repro.vfs import UspaceManager

MAPPING = UserMapping(dn="CN=U", login="u1", gid="proj")


def t3e():
    sim = Simulator()
    vsite = Vsite(sim, machine("FZJ-T3E"))
    uspace = UspaceManager("FZJ-T3E").create("j")
    return vsite, uspace


# ------------------------------------------------------------ consignment
def test_consignment_roundtrip():
    files = {
        "/home/u/a.f90": b"program a\nend\n",
        "/home/u/b.dat": b"\x00\x01",
        "/home/u/big.dat": FileEntry(1 << 20, 0xDEADBEEF, (7 << 32) | 1),
    }
    blob = encode_consignment(b"AJO-BYTES", files)
    consignment = decode_consignment_envelope(blob)
    assert consignment.ajo_bytes == b"AJO-BYTES"
    assert consignment.files == files
    # Each item is the value a bulk reply carries, too.
    for item in files.values():
        assert decode_item(asn1.encode(item_value(item))) == item


def test_consignment_empty_files():
    consignment = decode_consignment_envelope(encode_consignment(b"X"))
    assert consignment.ajo_bytes == b"X" and consignment.files == {}


def test_consignment_rejects_garbage():
    with pytest.raises(SerializationError):
        decode_consignment_envelope(b"not json")
    with pytest.raises(SerializationError):
        decode_consignment_envelope(b'{"unicore_consignment": 9}')
    with pytest.raises(SerializationError):
        decode_consignment_envelope(
            b'{"unicore_consignment": 1, "ajo": "!!!", "files": {}}'
        )
    for shape in ([b"AJO"], [b"AJO", {}, {}], ["AJO", {}], [b"AJO", []],
                  [b"AJO", {"a": "text"}], [b"AJO", {"a": [1, 2]}]):
        with pytest.raises(SerializationError, match="malformed consignment"):
            decode_consignment_envelope(asn1.encode(shape))


# ------------------------------------------------------------- incarnation
def test_incarnate_compile_emits_local_compiler_and_objects():
    vsite, uspace = t3e()
    task = CompileTask("c", sources=["m.f90", "s.f90"], options=["-O2"])
    spec = incarnate_task(task, vsite, MAPPING, uspace)
    assert "f90 -c -O2 m.f90" in spec.script
    assert spec.owner == "u1" and spec.group == "proj"
    effect_paths = {e.path for e in spec.effects}
    assert effect_paths == {"m.o", "s.o"}
    assert spec.origin == "unicore"


def test_incarnate_link_emits_libraries_and_executable():
    vsite, uspace = t3e()
    task = LinkTask("l", objects=["m.o"], output="app", libraries=["mpi", "blas"])
    spec = incarnate_task(task, vsite, MAPPING, uspace)
    assert "f90 -o app m.o -lmpi -lblas" in spec.script
    assert {e.path for e in spec.effects} == {"app"}


def test_incarnate_user_task_uses_run_prefix():
    vsite, uspace = t3e()
    task = UserTask("r", executable="app", arguments=["-i", "x"],
                    resources=ResourceRequest(cpus=16, time_s=600))
    spec = incarnate_task(task, vsite, MAPPING, uspace)
    assert "mpprun -n 16 ./app -i x" in spec.script


def test_incarnate_script_task_heredoc():
    vsite, uspace = t3e()
    task = ExecuteScriptTask("s", script="#!/bin/sh\necho hi\n", interpreter="ksh")
    spec = incarnate_task(task, vsite, MAPPING, uspace)
    assert "ksh <<'UNICORE_EOF'" in spec.script
    assert "echo hi" in spec.script


def test_incarnate_without_mapping_binds_no_account():
    """The NJS incarnates before it maps the user; delivery binds owner
    and group."""
    vsite, uspace = t3e()
    task = ExecuteScriptTask("s", script="#!/bin/sh\necho hi\n")
    bound = incarnate_task(task, vsite, MAPPING, uspace)
    unbound = incarnate_task(task, vsite, None, uspace)
    assert unbound.owner == ""
    assert unbound.script == bound.script and unbound.queue == bound.queue


def test_incarnate_unknown_compiler_fails():
    vsite, uspace = t3e()
    task = CompileTask("c", sources=["m.c"], compiler="hpf")
    with pytest.raises(IncarnationError, match="no local translation"):
        incarnate_task(task, vsite, MAPPING, uspace)


def test_incarnate_file_task_rejected():
    vsite, uspace = t3e()
    task = ImportTask("i", source_path="/a", destination_path="b")
    with pytest.raises(IncarnationError, match="handled by the NJS"):
        incarnate_task(task, vsite, MAPPING, uspace)


def test_incarnate_runtime_scaling_by_machine_speed():
    task = UserTask("r", executable="a", simulated_runtime_s=1000.0,
                    resources=ResourceRequest(cpus=4, time_s=9000))
    t3e_vsite, t3e_uspace = t3e()
    sim = Simulator()
    vpp_vsite = Vsite(sim, machine("LRZ-VPP"))
    vpp_uspace = UspaceManager("LRZ-VPP").create("j")
    t3e_spec = incarnate_task(task, t3e_vsite, MAPPING, t3e_uspace)
    vpp_spec = incarnate_task(task, vpp_vsite, MAPPING, vpp_uspace)
    assert t3e_spec.wallclock_s == pytest.approx(1000.0)
    assert vpp_spec.wallclock_s == pytest.approx(250.0)  # 4x vector speed


def test_incarnate_default_runtime_is_half_the_limit():
    vsite, uspace = t3e()
    task = UserTask("r", executable="a",
                    resources=ResourceRequest(cpus=1, time_s=1000))
    spec = incarnate_task(task, vsite, MAPPING, uspace)
    assert spec.wallclock_s == pytest.approx(500.0)


def test_incarnate_extra_outputs_deduplicated():
    vsite, uspace = t3e()
    task = LinkTask("l", objects=["m.o"], output="app")
    spec = incarnate_task(
        task, vsite, MAPPING, uspace,
        extra_outputs=(FileEffect("app", size_bytes=1),
                       FileEffect("log.txt", size_bytes=2)),
    )
    paths = [e.path for e in spec.effects]
    assert paths.count("app") == 1  # intrinsic product wins
    assert "log.txt" in paths


def test_incarnate_script_parses_under_own_dialect():
    vsite, uspace = t3e()
    task = UserTask("r", executable="a")
    spec = incarnate_task(task, vsite, MAPPING, uspace)
    directives = vsite.batch.dialect.parse_directives(spec.script)
    assert directives["-q"] == spec.queue
    assert spec.queue in vsite.batch.queues


def test_incarnate_routes_to_tightest_queue():
    from repro.server.njs.incarnation import select_queue

    vsite, uspace = t3e()  # T3E: small<=128cpu/1h, medium<=256/12h, batch
    assert select_queue(vsite, ResourceRequest(cpus=4, time_s=600)) == "small"
    assert select_queue(vsite, ResourceRequest(cpus=4, time_s=7200)) == "medium"
    assert select_queue(vsite, ResourceRequest(cpus=200, time_s=600)) == "medium"
    assert select_queue(vsite, ResourceRequest(cpus=500, time_s=600)) == "batch"
    assert (
        select_queue(vsite, ResourceRequest(cpus=4, time_s=80000)) == "batch"
    )
    with pytest.raises(IncarnationError, match="no queue admits"):
        select_queue(vsite, ResourceRequest(cpus=9999, time_s=600))
