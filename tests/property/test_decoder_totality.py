"""Property-based tests: every decoder of outside bytes is total.

One table, ``DECODERS``, names each with a valid encoding:

* the binary ones, which read through ``repro.bytereader.ByteReader``:
  the socket MSG body, the data-plane frame and its OPEN preamble, and
  the values of ``repro.asn1`` — a consignment and a bulk reply (one
  file manifest each), a resource page, ``GridSnapshot.from_bytes`` (a
  file from disk), a storage row as a backend reads it back, the
  journal and outcome-store row readers over such a row, the replies
  and request a JMC exchanges with a gateway (a status tree, a listing
  delta, a FETCH_FILE spec, an acknowledgement), and the capacity report
  a broker polls (resource pages inside);
* the JSON ones: ``decode_ajo`` and ``decode_service`` (what a client
  sent) and ``decode_outcome`` (what a peer or a blob holds).

Arbitrary bytes and a valid encoding with bytes changed must each end in
a value or in a ``ReproError`` the registry maps back to its class: never
a bare ``TypeError``, ``ValueError``, ``KeyError``, ``IndexError``,
``struct.error`` or ``RecursionError``.  The JSON encodings and the
``repro.asn1`` values are also mutated in their *structure* (a node
replaced, dropped or retyped — still a valid encoding), which is how a
row of the wrong shape reaches a row reader.  Nesting past the reader's
bound has its own tests beside each codec (``test_wire_codec.py``,
``test_asn1_properties.py``).
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import asn1
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
from repro.api import GridSession
from repro.errors import (
    ERROR_CODES,
    FrameError,
    ReproError,
    SerializationError,
    StorageError,
)
from repro.grid import GridSnapshot, build_grid
from repro.net import stream, wire
from repro.protocol.consignment import (
    decode_consignment_envelope,
    encode_consignment,
)
from repro.protocol.datapath import FileEntry, decode_item, item_value
from repro.protocol.messages import Request
from repro.protocol.views import (
    CapacityView,
    JobListing,
    JobListingDelta,
    JobStatusView,
    VsiteCapacity,
    decode_ack,
)
from repro.resources import ResourcePageEditor, ResourcePageError, ResourceRequest
from repro.server.gateway import _fetch_spec
from repro.storage import JobJournal, MemoryBackend, OutcomeRecord, OutcomeStore


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
    return asn1.encode({
        "job_id": "fzj.7", "seq": 3, "ajo": b"\x00\x01{binary}\xff",
        "files": {"result.dat": "ab" * 32},
        "history": [[0.5, "consigned"], [2.0, None, {"raw": b"x"}]],
    })


def _consign_row() -> bytes:
    return asn1.encode({
        "ajo": "cd" * 32, "user_dn": "CN=u", "trace_id": "t1",
        "workstation_files": {"/home/u/in": "ab" * 32},
        "parent_job_id": "U7@ZIB", "forward_meta": ["ZIB", ["out"]],
    })


def _outcome_row() -> bytes:
    backend = MemoryBackend()
    OutcomeStore(backend, "o").put(OutcomeRecord(
        job_id="U1", name="demo", user_dn="CN=u", status="successful",
        submitted_at=1.5, recovered=False,
    ), b"o", {"out": b"body"})
    return asn1.encode(backend.table("o").get("U1"))


def _value(data: bytes) -> object:
    """The one value ``data`` encodes, read as a backend reads a row."""
    return asn1.decode(data, StorageError)


def _reload_journal(data: bytes) -> list:
    """The entries a cold start rebuilds from ``data`` as a consign row."""
    backend = MemoryBackend()
    table = backend.table("j")
    table.put("U1", _value(data))
    table.put("U1/task", ["VS", "B1"])
    journal = JobJournal(backend, name="j")
    journal.reload(set(), str)
    return journal.incomplete()


def _read_outcome(data: bytes) -> OutcomeRecord:
    """The record a cold start rebuilds from ``data`` as an outcome row."""
    backend = MemoryBackend()
    backend.table("o").put("U1", _value(data))
    (record,) = OutcomeStore(backend, "o").records(str)
    return record


def _status_view(data: bytes) -> JobStatusView:
    return JobStatusView.from_value(asn1.decode(data, SerializationError))


def _listing_delta(data: bytes) -> JobListingDelta:
    return JobListingDelta.from_value(asn1.decode(data, SerializationError))


def _capacity(data: bytes) -> CapacityView:
    return CapacityView.from_value(asn1.decode(data, SerializationError))


_TREE = JobStatusView("a1", "root", "running", "blue", children=(
    JobStatusView("a2", "work", "successful", "green"),
    JobStatusView("a3", "sub", "queued", "yellow", children=(
        JobStatusView("a4", "u", "pending", "grey"),
    )),
))
_DELTA = JobListingDelta(seq=9, epoch=2, full=False, listings=(
    JobListing("U00001@FZJ", "first", "successful", 1.5, recovered=True),
    JobListing("U00002@FZJ", "second", "running", 30.0),
), removed=("U00000@FZJ",))

_PAGE = (
    ResourcePageEditor("FZJ-T3E").set_system("Cray T3E", "UNICOS/mk", 307.2)
    .set_range("cpus", 1, 512).set_range("time_s", 1, 86_400)
    .set_range("memory_mb", 1, 65_536).set_range("disk_permanent_mb", 0, 1_000)
    .set_range("disk_temporary_mb", 0, 1_000).add_compiler("f90", invocation="f90 -O3")
    .publish()
)
_CAPACITY = CapacityView("FZJ", 120.0, vsites=(
    VsiteCapacity("FZJ", "FZJ-T3E", 120.0, 512, 508, 2, 1, 7200.0, 1.0, _PAGE),
), reclaimable=("U00002@FZJ",), terminal=("U00001@FZJ",))

_MSG = wire.encode_message(
    7, "ws", "gw",
    Request(kind="query", user_dn="CN=u", payload=b"\x00q", vsite="V",
            trace_id="t", parent_span_id="s"),
    300, "ctl", True,
)
_ENTRY = FileEntry(10, 5, 42)
BINARY_DECODERS = {
    "wire.msg": (
        lambda data: wire.decode_frame(wire.FTYPE_MSG, data),
        _MSG[wire.HEADER.size:],
    ),
    "stream.frame": (
        stream.decode_frame,
        bytes(stream.encode_frame(stream.Frame(stream_id=9, seq=2, payload=b"chunk"))),
    ),
    "stream.open": (
        stream.OpenInfo.decode,
        stream.OpenInfo(10, 4, 3, 5, {"kind": "upload", "path": "a/b"}).encode(),
    ),
    "consignment": (
        decode_consignment_envelope,
        encode_consignment(b"AJO", {"/home/u/in": b"x", "big.dat": _ENTRY}),
    ),
    "bulk_reply": (decode_item, asn1.encode(item_value(_ENTRY))),
    "asn1": (
        lambda data: asn1.decode(data, ResourcePageError),
        asn1.encode({"cpus": 4, "queues": [{"name": "q", "limit": 1.5}],
                     "ok": True, "note": None, "raw": b"\x00\xff"}),
    ),
    "snapshot": (GridSnapshot.from_bytes, _valid_snapshot()),
    "row": (_value, _valid_row()),
    "journal_row": (_reload_journal, _consign_row()),
    "outcome_row": (_read_outcome, _outcome_row()),
    "status_view": (_status_view, asn1.encode(_TREE.to_value())),
    "listing_delta": (_listing_delta, asn1.encode(_DELTA.to_value())),
    "capacity": (_capacity, asn1.encode(_CAPACITY.to_value())),
    "fetch_spec": (_fetch_spec, asn1.encode(["U00001@FZJ", "out/result.dat"])),
    "ack": (decode_ack, asn1.encode("U00001@FZJ")),
}
#: The binary decoders whose input is one ``repro.asn1`` value.
VALUE_DECODERS = (
    "snapshot", "row", "journal_row", "outcome_row",
    "status_view", "listing_delta", "capacity", "fetch_spec", "consignment",
    "bulk_reply",
)
JSON_DECODERS = {
    "ajo": (decode_ajo, _valid_ajo()),
    "service": (decode_service, encode_service(ListService("list", since_seq=3))),
    "outcome": (decode_outcome, _valid_outcome()),
}
DECODERS = {**BINARY_DECODERS, **JSON_DECODERS}
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


_WIRE = stream.encode_frame(
    stream.Frame(stream_id=9, seq=2, payload=memoryview(b"a chunk of bytes")[2:9])
)


@settings(max_examples=300, deadline=None)
@given(
    edits=st.lists(
        st.tuples(
            st.integers(0, 1 << 20),
            st.sampled_from(["set", "drop", "insert"]),
            st.integers(0, 255),
        ),
        max_size=4,
    ),
    resize=st.integers(-7, 3),
)
def test_a_wire_frame_with_a_mutated_header_or_payload_length_is_refused(
    edits, resize
):
    """A frame in two pieces is read as strictly as a joined one: with its
    header's bytes changed it decodes or raises a :class:`FrameError`,
    never another exception, and with a payload of another length than
    its header names it always raises one."""
    header = bytearray(_WIRE.header)
    for at, how, byte in edits:
        at %= len(header) or 1
        if how == "set" and header:
            header[at] = byte
        elif how == "drop" and header:
            del header[at]
        else:
            header.insert(at, byte)
    payload = bytes(_WIRE.payload)[:len(_WIRE.payload) + resize] + b"+" * resize
    try:
        frame = stream.decode_frame(stream.WireFrame(bytes(header), payload))
    except FrameError as err:
        assert ERROR_CODES.get(err.code) is FrameError
    else:
        assert resize == 0 and len(header) == len(_WIRE.header)
        assert frame.payload is payload


#: What each manifest decoder raises on bytes it would not have written:
#: its codec's error and nothing else.
MANIFEST_ERRORS = {"consignment": SerializationError, "bulk_reply": FrameError}


@settings(max_examples=300, deadline=None)
@given(
    name=st.sampled_from(sorted(MANIFEST_ERRORS)),
    at=st.integers(0, 1 << 20),
    cut=st.integers(0, 8),
    junk=st.binary(max_size=16),
)
def test_hostile_manifests_raise_only_their_codec_error(name, at, cut, junk):
    valid = DECODERS[name][1]
    at %= len(valid)
    try:
        DECODERS[name][0](valid[:at] + junk + valid[at + cut:])
    except MANIFEST_ERRORS[name]:
        pass


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
    """Every ``(container, key)`` slot of a decoded tree, depth first."""
    if isinstance(tree, dict):
        items = list(tree.items())
    elif isinstance(tree, list):
        items = list(enumerate(tree))
    else:
        return
    for key, child in items:
        yield tree, key
        yield from _nodes(child)


#: How each structurally mutated decoder's input is taken apart and put
#: back together.
TREE_CODECS = {
    **{name: (json.loads, lambda tree: json.dumps(tree).encode())
       for name in JSON_DECODERS},
    **{name: (_value, asn1.encode) for name in VALUE_DECODERS},
}


@settings(max_examples=400, deadline=None)
@given(
    name=st.sampled_from(sorted(TREE_CODECS)),
    edits=st.lists(
        st.tuples(st.integers(0, 1 << 20), st.booleans(), json_values),
        min_size=1, max_size=3,
    ),
)
def test_structure_mutated_encodings_decode_or_are_refused(name, edits):
    load, dump = TREE_CODECS[name]
    tree = load(DECODERS[name][1])
    for at, drop, value in edits:
        slots = list(_nodes(tree))
        if not slots:
            break
        container, key = slots[at % len(slots)]
        if drop:
            del container[key]
        else:
            container[key] = value
    _value_or_registered_error(name, dump(tree))


def test_the_valid_encodings_decode():
    for decode, data in DECODERS.values():
        assert decode(data) is not None


def test_a_reply_round_trips_into_its_view():
    assert _status_view(DECODERS["status_view"][1]) == _TREE
    assert _listing_delta(DECODERS["listing_delta"][1]) == _DELTA


@pytest.mark.parametrize("decode, value", [
    # A status node of four items, not five.
    (_status_view, ["a1", "root", "running", "blue"]),
    # An int where the node's name belongs, deep in the tree.
    (_status_view, ["a1", "root", "running", "blue",
                    [["a2", 7, "queued", "yellow", []]]]),
    # A keyed map where the node's sequence belongs.
    (_status_view, {"id": "a1", "name": "root", "status": "running",
                    "color": "blue", "children": []}),
    # A listing whose ``recovered`` is not a bool.
    (_listing_delta, [1, 0, True,
                      [["U00001@FZJ", "first", "successful", 1.5, 1]], []]),
    # A map where the delta's listings belong.
    (_listing_delta, [1, 0, True, {"U00001@FZJ": "first"}, []]),
    (_listing_delta, [1, 0, True, [], [7]]),
    (_fetch_spec, ["U00001@FZJ"]),
    (_fetch_spec, ["U00001@FZJ", 7]),
    (_fetch_spec, {"job_id": "U00001@FZJ", "path": "out"}),
    (decode_ack, ["U00001@FZJ"]),
])
def test_a_reply_of_the_wrong_shape_is_refused(decode, value):
    with pytest.raises(SerializationError):
        decode(asn1.encode(value))


def _in_flight_snapshot() -> dict:
    grid = build_grid({"FZJ": ["FZJ-T3E"]}, seed=3)
    user = grid.add_user("Fuzz", logins={"FZJ": "fuzz"})
    session = GridSession(grid, user, "FZJ")
    job = session.new_job("in-flight")
    job.script_task("t", "#!/bin/sh\nx\n", simulated_runtime_s=500.0)
    session.submit(job)
    session.advance(10.0)
    return _value(grid.snapshot().to_bytes())


def test_a_snapshot_with_a_journal_row_of_the_wrong_shape_is_refused_on_restore():
    plain = _in_flight_snapshot()
    rows = plain["storage"]["tables"]["FZJ.journal"]
    (job_id,) = (key for key in rows if "/" not in key)
    del rows[job_id]["forward_meta"]
    snapshot = GridSnapshot.from_bytes(asn1.encode(plain))
    with pytest.raises(StorageError, match=f"row '{job_id}' has the wrong shape"):
        build_grid(restore_from=snapshot)
