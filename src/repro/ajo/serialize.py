"""The AJO wire codec.

The paper serializes AJOs with Java object serialization; here the
"transferable unit between the UNICORE components" (section 4.1) is a
versioned, type-tagged JSON tree.  The codec is total over the Figure 3
hierarchy: every action class registers its type tag, and decoding
reconstructs the exact object graph (children, dependencies, resources).

Encoded form::

    {"unicore_ajo": 1,              # envelope version
     "type": "ajo",                 # registry tag
     "data": {...payload...,
              "children": [<encoded child>...],
              "dependencies": [{"pred": ..., "succ": ..., "files": [...]}]}}
"""

from __future__ import annotations

import json
import typing

from repro.ajo.actions import AbstractAction
from repro.ajo.errors import AJOError, SerializationError
from repro.ajo.job import AbstractJobObject
from repro.ajo.outcome import Outcome, _OUTCOME_KINDS
from repro.ajo.services import ControlService, ListService, QueryService
from repro.ajo.tasks import (
    CompileTask,
    ExecuteScriptTask,
    ExportTask,
    ImportTask,
    LinkTask,
    TransferTask,
    UserTask,
)
from repro.resources.errors import ResourceError
from repro.resources.model import ResourceRequest

__all__ = [
    "encode_ajo",
    "decode_ajo",
    "encode_outcome",
    "decode_outcome",
    "encode_service",
    "decode_service",
    "ENVELOPE_VERSION",
]

ENVELOPE_VERSION = 1

# ------------------------------------------------------------------ registry
_REGISTRY: dict[str, type[AbstractAction]] = {
    cls.type_tag: cls
    for cls in (
        AbstractJobObject,
        UserTask,
        ExecuteScriptTask,
        CompileTask,
        LinkTask,
        ImportTask,
        ExportTask,
        TransferTask,
        ControlService,
        ListService,
        QueryService,
    )
}


def _encode_action(action: AbstractAction) -> dict[str, typing.Any]:
    tag = action.type_tag
    if tag not in _REGISTRY or type(action) is not _REGISTRY[tag]:
        raise SerializationError(
            f"{type(action).__name__} is not a concrete wire type; only "
            f"{sorted(_REGISTRY)} cross the wire"
        )
    data = action.to_payload()
    if isinstance(action, AbstractJobObject):
        data["children"] = [_encode_action(c) for c in action.children]
        data["dependencies"] = [
            {"pred": d.predecessor_id, "succ": d.successor_id, "files": list(d.files)}
            for d in action.dependencies
        ]
    return {"type": tag, "data": data}


#: What structurally wrong but valid JSON raises on its way to an object:
#: a missing key, a node of the wrong type, a constructor handed the wrong
#: kind of value, nesting deeper than the interpreter's stack — and what the
#: model itself refuses (a dependency on an unknown child, a negative
#: resource).  All of it is a malformed encoding, so a server has one
#: error to refuse by.
_MALFORMED = (
    KeyError, TypeError, ValueError, AttributeError, RecursionError,
    AJOError, ResourceError,
)


_T = typing.TypeVar("_T")


def _decode(
    data: bytes,
    marker: str,
    what: str,
    build: typing.Callable[[dict[str, typing.Any]], _T],
) -> _T:
    """What ``build`` makes of the JSON envelope in ``data``, once that is
    checked for kind and version; anything else is a SerializationError."""
    try:
        envelope = json.loads(data)
    except (ValueError, RecursionError) as err:  # bad UTF-8 is a ValueError
        raise SerializationError(f"not a valid {what} encoding: {err}") from err
    if not isinstance(envelope, dict) or envelope.get(marker) != ENVELOPE_VERSION:
        raise SerializationError(
            f"unsupported {what} envelope (need version {ENVELOPE_VERSION})"
        )
    try:
        return build(envelope)
    except _MALFORMED as err:
        raise SerializationError(
            f"malformed {what}: {type(err).__name__}: {err}"
        ) from err


# Constructor adapters: payload dict -> instance.  Resources re-hydrate via
# ResourceRequest.from_dict; extra payload keys are the constructor kwargs.
# Raises what _MALFORMED names; _decode turns that into SerializationError.
def _decode_action(node: dict[str, typing.Any]) -> AbstractAction:
    tag = node["type"]
    cls = _REGISTRY.get(tag)
    if cls is None:
        raise SerializationError(f"unknown action type tag {tag!r}")
    data = dict(node["data"])
    children = data.pop("children", None)
    dependencies = data.pop("dependencies", None)
    resources = data.pop("resources", None)

    kwargs: dict[str, typing.Any] = {
        "name": data.pop("name"), "action_id": data.pop("id"),
    }
    if resources is not None:
        kwargs["resources"] = ResourceRequest.from_dict(resources)
    kwargs.update(data)
    action = cls(**kwargs)

    if isinstance(action, AbstractJobObject):
        for child_node in children or []:
            action.add(_decode_action(child_node))
        for dep in dependencies or []:
            action.add_dependency(dep["pred"], dep["succ"], files=dep["files"])
    return action


def _decode_outcome(envelope: dict[str, typing.Any]) -> Outcome:
    return _OUTCOME_KINDS[envelope["kind"]].from_payload(envelope["data"])


# ------------------------------------------------------------------- public
def encode_ajo(job: AbstractJobObject) -> bytes:
    """Serialize a full AJO tree to wire bytes."""
    if not isinstance(job, AbstractJobObject):
        raise SerializationError(
            f"top-level wire unit must be an AbstractJobObject, got "
            f"{type(job).__name__}"
        )
    envelope = {"unicore_ajo": ENVELOPE_VERSION, **_encode_action(job)}
    return json.dumps(envelope, sort_keys=True, separators=(",", ":")).encode()


def decode_ajo(data: bytes) -> AbstractJobObject:
    """Reconstruct the AJO tree encoded by :func:`encode_ajo`."""
    action = _decode(data, "unicore_ajo", "AJO", _decode_action)
    if not isinstance(action, AbstractJobObject):
        raise SerializationError("decoded wire unit is not a job object")
    return action


def encode_service(service: AbstractAction) -> bytes:
    """Serialize a standalone service request (Control/List/Query)."""
    envelope = {"unicore_service": ENVELOPE_VERSION, **_encode_action(service)}
    return json.dumps(envelope, sort_keys=True, separators=(",", ":")).encode()


def decode_service(data: bytes) -> AbstractAction:
    """Reconstruct a service encoded by :func:`encode_service`."""
    return _decode(data, "unicore_service", "service", _decode_action)


def encode_outcome(outcome: Outcome) -> bytes:
    """Serialize an outcome (tree) to wire bytes."""
    envelope = {
        "unicore_outcome": ENVELOPE_VERSION,
        "kind": outcome.kind,
        "data": outcome.to_payload(),
    }
    return json.dumps(envelope, sort_keys=True, separators=(",", ":")).encode()


def decode_outcome(data: bytes) -> Outcome:
    """Reconstruct an outcome encoded by :func:`encode_outcome`."""
    return _decode(data, "unicore_outcome", "outcome", _decode_outcome)
