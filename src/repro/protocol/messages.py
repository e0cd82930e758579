"""Protocol envelopes: requests and replies.

Every request crossing a tier boundary wraps a serialized AJO (or a
service query) with routing and identity metadata.  Wire sizes are
explicit so the simulated network can charge for them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count

__all__ = ["RequestKind", "Request", "Reply"]

#: Bytes of envelope metadata around the payload (ids, DN, kind).
ENVELOPE_OVERHEAD_BYTES = 256

_request_ids = count(1)


class RequestKind:
    """The request vocabulary of the high-level protocol."""

    #: Consign a UNICORE job (payload: encoded AJO).
    CONSIGN_JOB = "consign_job"
    #: Query status/outcomes of a job (payload: encoded QueryService).
    QUERY = "query"
    #: List the user's jobs (payload: encoded ListService).
    LIST = "list"
    #: Control a job (payload: encoded ControlService).
    CONTROL = "control"
    #: Fetch a finished job's full outcome including output files.
    RETRIEVE_OUTCOME = "retrieve_outcome"
    #: Fetch one file from the job's Uspace back to the workstation
    #: ("sends data back to the workstation only on user request while
    #: the user is working with the JMC", section 5.6).
    FETCH_FILE = "fetch_file"
    #: Release a finished job: destroy its Uspaces and forget it.
    DISPOSE = "dispose"
    #: The site's load report for a broker (empty payload; the reply is
    #: a :class:`~repro.protocol.views.CapacityView`).
    CAPACITY = "capacity"

    ALL = (CONSIGN_JOB, QUERY, LIST, CONTROL, RETRIEVE_OUTCOME, FETCH_FILE,
           DISPOSE, CAPACITY)


@dataclass(slots=True)
class Request:
    """A client-to-server protocol message."""

    kind: str
    user_dn: str
    payload: bytes
    #: Target Vsite for user mapping at the gateway (may be empty).
    vsite: str = ""
    request_id: int = field(default_factory=lambda: next(_request_ids))
    #: Trace context carried across the tier boundary (empty = untraced).
    trace_id: str = ""
    parent_span_id: str = ""

    def __post_init__(self) -> None:
        if self.kind not in RequestKind.ALL:
            raise ValueError(f"unknown request kind {self.kind!r}")
        if not isinstance(self.payload, (bytes, bytearray)):
            raise TypeError("request payload must be bytes")

    @property
    def wire_size(self) -> int:
        return ENVELOPE_OVERHEAD_BYTES + len(self.payload)


@dataclass(slots=True)
class Reply:
    """A server-to-client protocol message, correlated by request id."""

    request_id: int
    ok: bool
    payload: bytes = b""
    error: str = ""
    #: Stable machine-readable code of the server-side exception (the
    #: :attr:`repro.errors.ReproError.code` contract), e.g.
    #: ``"faults.unavailable"``.  Empty exactly when ``ok``.
    error_code: str = ""

    @property
    def wire_size(self) -> int:
        return ENVELOPE_OVERHEAD_BYTES + len(self.payload) + len(self.error)

    def unwrap(self) -> bytes:
        """The payload of a success; a refusal raises the error the
        server raised.

        The one place a failed reply becomes an exception: the class
        ``error_code`` names in :data:`repro.errors.ERROR_CODES`, built
        from ``error``.  A code the registry does not hold is an
        analyzer diagnostic (``AJOnnn``), which the NJS raised as a
        :class:`~repro.server.errors.ConsignError` carrying that code.
        """
        if self.ok:
            return self.payload
        # Imported here: the registry imports every layer's errors
        # module, this package's among them.
        from repro.errors import ERROR_CODES, ConsignError

        cls = ERROR_CODES.get(self.error_code)
        if cls is not None:
            raise cls(self.error)
        refused = ConsignError(self.error)
        refused.code = self.error_code
        raise refused
