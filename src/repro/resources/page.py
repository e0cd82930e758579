"""The per-Vsite resource page.

Paper section 5.4: "Each UNICORE site provides a so called resource page
reflecting resource information about their Vsites.  Besides minimum and
maximum values for the resources needed for batch submission it contains
information about the system architecture, performance, and operating
system as well as available application and system software."
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import asn1
from repro.resources.errors import ResourcePageError
from repro.resources.model import RESOURCE_AXES, ResourceRange
from repro.resources.software import SoftwareCatalogue, SoftwareItem

__all__ = ["ResourcePage"]


@dataclass(slots=True)
class ResourcePage:
    """Everything the JPA needs to know about one Vsite.

    Attributes
    ----------
    vsite:
        Name of the virtual site this page describes.
    architecture / operating_system:
        Free-text system identification (e.g. ``"Cray T3E"`` / ``"UNICOS/mk"``).
    peak_gflops:
        Advertised performance figure.
    ranges:
        Per-axis :class:`ResourceRange` limits for batch submission.
    software:
        The installed compilers / libraries / packages.
    """

    vsite: str
    architecture: str
    operating_system: str
    peak_gflops: float
    ranges: dict[str, ResourceRange]
    software: SoftwareCatalogue = field(default_factory=SoftwareCatalogue)

    def __post_init__(self) -> None:
        if not self.vsite:
            raise ResourcePageError("resource page requires a vsite name")
        missing = set(RESOURCE_AXES) - set(self.ranges)
        if missing:
            raise ResourcePageError(f"resource page missing axes {sorted(missing)}")
        unknown = set(self.ranges) - set(RESOURCE_AXES)
        if unknown:
            raise ResourcePageError(f"resource page has unknown axes {sorted(unknown)}")

    # -- ASN.1 persistence -----------------------------------------------------
    def to_asn1(self) -> bytes:
        """Encode this page in the ASN.1 format of the paper."""
        payload = {
            "vsite": self.vsite,
            "architecture": self.architecture,
            "operating_system": self.operating_system,
            "peak_gflops": float(self.peak_gflops),
            "ranges": {
                axis: [float(r.minimum), float(r.maximum)]
                for axis, r in self.ranges.items()
            },
            "software": [
                {
                    "kind": item.kind,
                    "name": item.name,
                    "version": item.version,
                    "invocation": item.invocation,
                }
                for item in self.software
            ],
        }
        return asn1.encode(payload)

    @classmethod
    def from_asn1(cls, data: bytes) -> "ResourcePage":
        """Decode a page written by :meth:`to_asn1`."""
        raw = asn1.decode(data, ResourcePageError)
        if not isinstance(raw, dict):
            raise ResourcePageError("resource page must decode to a map")
        try:
            ranges = {
                axis: ResourceRange(minimum=lo, maximum=hi)
                for axis, (lo, hi) in raw["ranges"].items()
            }
            software = SoftwareCatalogue(
                [
                    SoftwareItem(
                        kind=entry["kind"],
                        name=entry["name"],
                        version=entry["version"],
                        invocation=entry["invocation"],
                    )
                    for entry in raw["software"]
                ]
            )
            return cls(
                vsite=raw["vsite"],
                architecture=raw["architecture"],
                operating_system=raw["operating_system"],
                peak_gflops=raw["peak_gflops"],
                ranges=ranges,
                software=software,
            )
        except (AttributeError, KeyError, TypeError, ValueError) as err:
            raise ResourcePageError(f"malformed resource page: {err}") from err

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ResourcePage):
            return NotImplemented
        return (
            self.vsite == other.vsite
            and self.architecture == other.architecture
            and self.operating_system == other.operating_system
            and self.peak_gflops == other.peak_gflops
            and self.ranges == other.ranges
            and self.software == other.software
        )
