"""Whole-grid checkpointing: freeze a deployment, thaw it later.

A :class:`GridSnapshot` is everything needed to rebuild a grid that
*continues* the original run rather than starting over:

* the **build recipe** (sites, seed, WAN shape, gateway counts) — the
  deterministic part, re-executed on restore so hosts, certificates, and
  links come back identical;
* the **storage dump** — every durable table (NJS journals, outcome
  stores, UUDB mappings, resource pages, job-id cursors) plus
  the ``"blobs"`` section, the digest-sorted file bodies their manifests
  name;
* the **simkernel cursors** — virtual clock, per-link loss-RNG states,
  and the network message-id counter, so the resumed run draws the exact
  sequences the uninterrupted run would have;
* the **user recipes** and their workstation files, re-registered
  without touching the UUDB (the mappings are already in the dump).

What a snapshot deliberately does *not* carry: in-flight simulation
events and live client sessions.  Jobs caught mid-run are journaled, so
:func:`repro.grid.build.build_grid` with ``restore_from=`` recovers them
the same way a crashed NJS does — replay — while finished jobs come back
as restored listings.  Take snapshots at quiescent points (no pending
events) when byte-identical continuation matters.
"""

from __future__ import annotations

import typing
from dataclasses import dataclass, field

from repro import asn1
from repro.storage.errors import SnapshotError

__all__ = ["GridSnapshot", "SNAPSHOT_VERSION"]

#: Bump when the on-disk layout changes incompatibly.  Version 1 kept
#: file bodies inside the journal and outcome records; 2 moved them to
#: the storage dump's ``"blobs"`` section; 3 dropped the dump's
#: ``"logs"`` section (the journal is a table of live rows); 4 moved the
#: AJO and outcome encodings from the journal and outcome rows to the
#: blobs; 5 is one :mod:`repro.asn1` value instead of JSON text, so blob
#: bodies and workstation files are stored raw; 6 drops the correlation
#: ticket from a forwarded group's consign row (``forward_meta``).
#: Other versions are refused.
SNAPSHOT_VERSION = 6

#: What each field of an encoded snapshot must hold.
_FIELD_TYPES: dict[str, type | tuple[type, ...]] = {
    "clock": (int, float), "build": dict, "users": list,
    "workstation_files": dict, "storage": dict, "network": dict,
    "gateway_rr": dict,
}


@dataclass(slots=True)
class GridSnapshot:
    """A point-in-time image of a whole grid deployment."""

    clock: float
    build: dict
    users: list = field(default_factory=list)
    workstation_files: dict = field(default_factory=dict)
    storage: dict = field(default_factory=dict)
    network: dict = field(default_factory=dict)
    gateway_rr: dict = field(default_factory=dict)
    version: int = SNAPSHOT_VERSION

    # -- serialization -------------------------------------------------------
    def to_bytes(self) -> bytes:
        """Canonical encoding: one :mod:`repro.asn1` value."""
        return asn1.encode({
            "version": self.version,
            "clock": self.clock,
            "build": self.build,
            "users": self.users,
            "workstation_files": self.workstation_files,
            "storage": self.storage,
            "network": self.network,
            "gateway_rr": self.gateway_rr,
        })

    @classmethod
    def from_bytes(cls, raw: bytes) -> "GridSnapshot":
        plain = asn1.decode(raw, SnapshotError)
        version = plain.get("version") if isinstance(plain, dict) else None
        if version != SNAPSHOT_VERSION:
            raise SnapshotError(
                f"snapshot version {version!r} not supported "
                f"(expected {SNAPSHOT_VERSION})"
            )
        fields = {"gateway_rr": {}, **typing.cast(dict, plain)}
        for name, kind in _FIELD_TYPES.items():
            value = fields.get(name)
            if not isinstance(value, kind):
                raise SnapshotError(
                    f"snapshot field {name!r} is missing or mistyped "
                    f"({type(value).__name__})"
                )
        return cls(**{name: fields[name] for name in _FIELD_TYPES})

    def save(self, path: str) -> None:
        with open(path, "wb") as fh:
            fh.write(self.to_bytes())

    @classmethod
    def load(cls, path: str) -> "GridSnapshot":
        with open(path, "rb") as fh:
            return cls.from_bytes(fh.read())

    # -- introspection -------------------------------------------------------
    def site_names(self) -> list[str]:
        return sorted(typing.cast(dict, self.build.get("sites", {})))

    def __repr__(self) -> str:
        return (
            f"<GridSnapshot v{self.version} clock={self.clock:.3f} "
            f"sites={self.site_names()} users={len(self.users)}>"
        )
