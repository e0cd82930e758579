"""X.509-style certificates.

A :class:`Certificate` binds a :class:`DistinguishedName` to a public key
for a validity window, signed by an issuer.  The To-Be-Signed (TBS) part
is encoded canonically (sorted-key JSON) so signatures are stable across
processes.  The paper uses X.509v3 certificates as the *unique UNICORE
user identification*; here the DN string plays that role and is what the
gateway's UUDB maps to a local login (section 4 of the paper).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.security.errors import CertificateError, CertificateExpired, SignatureInvalid
from repro.security.rsa import RSAPublicKey, verify

__all__ = ["DistinguishedName", "Validity", "Certificate", "CertificateRole"]


class CertificateRole:
    """The three certificate roles of the UNICORE security architecture."""

    USER = "user"
    SERVER = "server"
    SOFTWARE = "software"
    CA = "ca"

    ALL = (USER, SERVER, SOFTWARE, CA)


@dataclass(frozen=True, slots=True, order=True)
class DistinguishedName:
    """An X.500 distinguished name: CN / OU / O / L / C.

    >>> dn = DistinguishedName(cn="Mathilde Romberg", o="FZ Juelich", c="DE")
    >>> str(dn)
    'CN=Mathilde Romberg, O=FZ Juelich, C=DE'
    """

    cn: str
    ou: str = ""
    o: str = ""
    l: str = ""  # noqa: E741 - X.500 attribute name
    c: str = ""
    #: ``str(self)``: rendered once, every request compares and looks it up.
    _text: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.cn:
            raise CertificateError("distinguished name requires a CN")
        for attr in ("cn", "ou", "o", "l", "c"):
            if "," in getattr(self, attr) or "=" in getattr(self, attr):
                raise CertificateError(
                    f"DN attribute {attr} must not contain ',' or '='"
                )
        parts = [("CN", self.cn), ("OU", self.ou), ("O", self.o),
                 ("L", self.l), ("C", self.c)]
        object.__setattr__(
            self, "_text", ", ".join(f"{k}={v}" for k, v in parts if v)
        )

    def __str__(self) -> str:
        return self._text

    @classmethod
    def parse(cls, text: str) -> "DistinguishedName":
        """Parse ``'CN=x, O=y, ...'`` back into a DN."""
        fields: dict[str, str] = {}
        for chunk in text.split(","):
            chunk = chunk.strip()
            if not chunk:
                continue
            if "=" not in chunk:
                raise CertificateError(f"malformed DN component {chunk!r}")
            key, _, value = chunk.partition("=")
            fields[key.strip().lower()] = value.strip()
        if "cn" not in fields:
            raise CertificateError(f"DN {text!r} lacks a CN")
        return cls(
            cn=fields.get("cn", ""),
            ou=fields.get("ou", ""),
            o=fields.get("o", ""),
            l=fields.get("l", ""),
            c=fields.get("c", ""),
        )


@dataclass(frozen=True, slots=True)
class Validity:
    """Certificate validity window in simulated epoch seconds."""

    not_before: float
    not_after: float

    def __post_init__(self) -> None:
        if self.not_after <= self.not_before:
            raise CertificateError("validity window is empty or inverted")

    def contains(self, now: float) -> bool:
        return self.not_before <= now <= self.not_after

    @property
    def lifetime(self) -> float:
        return self.not_after - self.not_before


@dataclass(frozen=True, slots=True)
class Certificate:
    """A signed binding of a DN to a public key.

    Attributes
    ----------
    serial:
        Unique per issuing CA.
    role:
        One of :class:`CertificateRole` — user, server, software, or ca.
    extensions:
        Free-form string map (e.g. ``{"site": "FZJ"}``); signed.
    signature:
        RSA signature by the issuer over :meth:`tbs_bytes`.
    """

    serial: int
    subject: DistinguishedName
    issuer: DistinguishedName
    public_key: RSAPublicKey
    validity: Validity
    role: str
    extensions: dict[str, str] = field(default_factory=dict)
    signature: int = 0
    #: :meth:`tbs_bytes`: encoded once, every validation verifies over it.
    _tbs: bytes = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.role not in CertificateRole.ALL:
            raise CertificateError(f"unknown certificate role {self.role!r}")
        object.__setattr__(
            self, "_tbs",
            json.dumps(
                self.tbs_dict(), sort_keys=True, separators=(",", ":")
            ).encode(),
        )

    # -- canonical encoding --------------------------------------------------
    def tbs_dict(self) -> dict[str, object]:
        """The to-be-signed content as a plain dict."""
        return {
            "serial": self.serial,
            "subject": str(self.subject),
            "issuer": str(self.issuer),
            "public_key": self.public_key.to_dict(),
            "not_before": self.validity.not_before,
            "not_after": self.validity.not_after,
            "role": self.role,
            "extensions": dict(sorted(self.extensions.items())),
        }

    def tbs_bytes(self) -> bytes:
        """Canonical byte encoding of the to-be-signed content."""
        return self._tbs

    def with_signature(self, signature: int) -> "Certificate":
        return Certificate(
            serial=self.serial,
            subject=self.subject,
            issuer=self.issuer,
            public_key=self.public_key,
            validity=self.validity,
            role=self.role,
            extensions=dict(self.extensions),
            signature=signature,
        )

    # -- checks ---------------------------------------------------------------
    @property
    def is_self_signed(self) -> bool:
        return self.subject == self.issuer

    def verify_signature(self, issuer_key: RSAPublicKey) -> None:
        """Raise :class:`SignatureInvalid` unless ``issuer_key`` signed this."""
        if self.signature == 0:
            raise SignatureInvalid(f"certificate {self.serial} is unsigned")
        verify(issuer_key, self.tbs_bytes(), self.signature)

    def check_validity(self, now: float) -> None:
        """Raise :class:`CertificateExpired` if ``now`` is outside the window."""
        if not self.validity.contains(now):
            raise CertificateExpired(
                f"certificate for {self.subject} valid "
                f"[{self.validity.not_before}, {self.validity.not_after}], "
                f"checked at {now}"
            )

    def __str__(self) -> str:
        return f"Certificate[{self.role}] {self.subject} (serial {self.serial})"
