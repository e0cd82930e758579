"""The UNICORE high-level protocol.

Paper section 5.3: "The UNICORE protocols define the form of requests for
some action to be performed (high-level protocol) ... It defines a
client-server type of communication.  JPA/JMC act as client while NJS
(resp. the gateway) acts as both client and server ... It is an
asynchronous protocol.  This design is suitable for batch processing ...
and it is more robust than a synchronous protocol.  By minimizing the
length of time that an interaction takes the asynchronous protocol
protects against any unreliability of the underlying communication
mechanism."

- :mod:`repro.protocol.messages` — request/reply envelopes;
- :mod:`repro.protocol.client` — the asynchronous consign-then-poll
  client of the paper;
- :mod:`repro.protocol.sync` — a synchronous hold-the-connection client,
  implemented solely as the comparison baseline for experiment E4;
- :mod:`repro.protocol.retry` — bounded-retry policies;
- :mod:`repro.protocol.consignment` — the consignment (AJO + the
  manifest of its workstation files);
- :mod:`repro.protocol.datapath` — the streaming data plane: chunked,
  checksummed, resumable bulk transfers kept out of the control plane,
  and the one file manifest every file-carrying message uses.
"""

from repro.protocol.messages import Reply, Request, RequestKind
from repro.protocol.retry import RetryExhausted, RetryPolicy
from repro.protocol.client import AsyncProtocolClient, ReplyRouter
from repro.protocol.sync import SyncProtocolClient, SyncInteractionBroken
from repro.protocol.consignment import (
    Consignment,
    decode_consignment_envelope,
    encode_consignment,
    validate_manifest_paths,
)
from repro.protocol.datapath import (
    DEFAULT_CHUNK_BYTES,
    INLINE_FILE_MAX,
    DataPlaneEndpoint,
    FileEntry,
    Manifest,
    StreamIdAllocator,
    claim,
    fetch_bulk_payload,
    send_stream,
    ship,
)

__all__ = [
    "AsyncProtocolClient",
    "Consignment",
    "DEFAULT_CHUNK_BYTES",
    "DataPlaneEndpoint",
    "FileEntry",
    "INLINE_FILE_MAX",
    "Manifest",
    "Reply",
    "ReplyRouter",
    "Request",
    "RequestKind",
    "RetryExhausted",
    "RetryPolicy",
    "StreamIdAllocator",
    "SyncInteractionBroken",
    "SyncProtocolClient",
    "claim",
    "decode_consignment_envelope",
    "encode_consignment",
    "fetch_bulk_payload",
    "send_stream",
    "ship",
    "validate_manifest_paths",
]
