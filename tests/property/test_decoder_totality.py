"""Property-based tests: the JSON decoders are total over bytes.

``decode_ajo`` and ``decode_service`` parse what a client sent,
``decode_outcome`` what a peer or an old journal row holds,
``GridSnapshot.from_bytes`` a file from disk, ``decode_value`` a row a
storage backend read back.  Arbitrary bytes, a valid encoding with bytes
changed, and a valid encoding whose JSON *structure* was changed (a node
replaced, dropped or retyped — still valid JSON) must each end in a value
or in a ``ReproError`` the registry holds: never a bare ``TypeError``,
``ValueError``, ``KeyError`` or ``AttributeError``.
The binary decoders have their own suites (``test_wire_properties.py``,
``test_stream_properties.py``, ``test_asn1_properties.py``).
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ajo import AbstractJobObject, ExecuteScriptTask, UserTask
from repro.ajo.outcome import AJOOutcome, FileOutcome, TaskOutcome
from repro.ajo.serialize import (
    decode_ajo,
    decode_outcome,
    decode_service,
    encode_ajo,
    encode_outcome,
    encode_service,
)
from repro.ajo.services import ListService
from repro.ajo.tasks import ImportTask, TransferTask
from repro.errors import ERROR_CODES, ReproError
from repro.grid import GridSnapshot, build_grid
from repro.resources import ResourceRequest
from repro.storage import decode_value, encode_value


def _valid_ajo() -> bytes:
    root = AbstractJobObject("root", vsite="FZJ-T3E", usite="FZJ", user_dn="CN=u")
    imp = root.add(ImportTask("in", source_path="/x/in", destination_path="in"))
    work = root.add(ExecuteScriptTask(
        "work", script="#!/bin/sh\nx\n", simulated_runtime_s=5.0,
        resources=ResourceRequest(cpus=4, time_s=600.0, memory_mb=64.0),
        environment={"A": "b"},
    ))
    sub = AbstractJobObject("sub", vsite="ZIB-SP2", usite="ZIB")
    sub.add(UserTask("u", executable="./a.out", arguments=["-n", "1"]))
    root.add(sub)
    xfer = root.add(TransferTask(
        "move", source_path="out", destination_path="out", destination_usite="ZIB",
    ))
    root.add_dependency(imp, work, files=["in"])
    root.add_dependency(work, xfer, files=["out"])
    root.add_dependency(xfer, sub)
    return encode_ajo(root)


def _valid_outcome() -> bytes:
    root = AJOOutcome(action_id="a1")
    root.add_child(TaskOutcome(action_id="a2", exit_code=0, stdout="ok\n"))
    root.add_child(FileOutcome(action_id="a3", bytes_moved=7))
    inner = AJOOutcome(action_id="a4")
    inner.add_child(TaskOutcome(action_id="a5", exit_code=1, stderr="no\n"))
    root.add_child(inner)
    return encode_outcome(root)


def _valid_snapshot() -> bytes:
    grid = build_grid({"FZJ": ["FZJ-T3E"]}, seed=3)
    user = grid.add_user("Fuzz", logins={"FZJ": "fuzz"})
    user.workstation.fs.write("/home/fuzz/in.dat", b"\x00\x01binary")
    return grid.snapshot().to_bytes()


def _valid_row() -> bytes:
    return encode_value({
        "job_id": "fzj.7", "seq": 3, "ajo": b"\x00\x01{binary}\xff",
        "files": {"result.dat": "ab" * 32},
        "history": [[0.5, "consigned"], [2.0, None, {"raw": b"x"}]],
    })


DECODERS = {
    "ajo": (decode_ajo, _valid_ajo()),
    "service": (decode_service, encode_service(ListService("list", since_seq=3))),
    "outcome": (decode_outcome, _valid_outcome()),
    "snapshot": (GridSnapshot.from_bytes, _valid_snapshot()),
    "row": (decode_value, _valid_row()),
}
which = st.sampled_from(sorted(DECODERS))


def _value_or_registered_error(name: str, data: bytes) -> None:
    decode = DECODERS[name][0]
    try:
        decode(data)
    except ReproError as err:
        assert ERROR_CODES.get(err.code) is type(err), (name, err)


@settings(max_examples=200, deadline=None)
@given(name=which, data=st.binary(max_size=256))
def test_arbitrary_bytes_decode_or_are_refused(name, data):
    _value_or_registered_error(name, data)


@settings(max_examples=300, deadline=None)
@given(
    name=which,
    edits=st.lists(
        st.tuples(
            st.integers(0, 1 << 20),
            st.sampled_from(["set", "drop", "insert"]),
            st.integers(0, 255),
        ),
        min_size=1, max_size=4,
    ),
)
def test_byte_mutated_encodings_decode_or_are_refused(name, edits):
    data = bytearray(DECODERS[name][1])
    for at, how, byte in edits:
        at %= len(data)
        if how == "set":
            data[at] = byte
        elif how == "drop":
            del data[at]
        else:
            data.insert(at, byte)
    _value_or_registered_error(name, bytes(data))


json_values = st.recursive(
    st.one_of(
        st.none(), st.booleans(), st.integers(-(2**40), 2**40),
        st.floats(allow_nan=False, allow_infinity=False), st.text(max_size=6),
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.text(max_size=6), inner, max_size=3),
    ),
    max_leaves=6,
)


def _nodes(tree):
    """Every ``(container, key)`` slot of a JSON tree, depth first."""
    if isinstance(tree, dict):
        items = list(tree.items())
    elif isinstance(tree, list):
        items = list(enumerate(tree))
    else:
        return
    for key, child in items:
        yield tree, key
        yield from _nodes(child)


@settings(max_examples=400, deadline=None)
@given(
    name=which,
    edits=st.lists(
        st.tuples(st.integers(0, 1 << 20), st.booleans(), json_values),
        min_size=1, max_size=3,
    ),
)
def test_structure_mutated_encodings_decode_or_are_refused(name, edits):
    tree = json.loads(DECODERS[name][1])
    for at, drop, value in edits:
        slots = list(_nodes(tree))
        if not slots:
            break
        container, key = slots[at % len(slots)]
        if drop:
            del container[key]
        else:
            container[key] = value
    _value_or_registered_error(name, json.dumps(tree).encode())


def test_the_valid_encodings_decode():
    for decode, data in DECODERS.values():
        assert decode(data) is not None
