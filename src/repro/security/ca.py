"""Certificate Authority and trust store.

The paper (section 5.2) relies on "the existence of a Certificate
Authority (CA) to generate the X.509v3 certificates for the server
systems, the software developers, and the users", following the DFN-PCA
guidelines.  :class:`CertificateAuthority` plays that role: it issues
role-tagged certificates, maintains a revocation list, and its self-signed
root certificate anchors the :class:`CertificateStore` trust checks done
by gateways and browsers.
"""

from __future__ import annotations

from itertools import count

from repro.security.errors import (
    CertificateError,
    CertificateRevoked,
    SignatureInvalid,
    UntrustedIssuer,
)
from repro.security.rsa import RSAKeyPair, RSAPublicKey
from repro.security.x509 import Certificate, CertificateRole, DistinguishedName, Validity

__all__ = ["CertificateAuthority", "CertificateStore"]

#: Default certificate lifetime: two simulated years (the project duration).
DEFAULT_LIFETIME = 2 * 365 * 24 * 3600.0


class CertificateAuthority:
    """Issues and revokes certificates under a self-signed root.

    Parameters
    ----------
    name:
        CN of the CA (e.g. ``"DFN-PCA"``).
    key_bits:
        RSA modulus size for the CA key and a default for issued keys.
    seed:
        Root seed making all key generation deterministic.
    """

    def __init__(
        self,
        name: str = "DFN-PCA",
        organization: str = "Deutsches Forschungsnetz",
        country: str = "DE",
        key_bits: int = 512,
        seed: int | None = None,
    ) -> None:
        self.dn = DistinguishedName(cn=name, o=organization, c=country)
        self.key_bits = key_bits
        self._seed = seed
        self._keypair = RSAKeyPair.generate(bits=key_bits, seed=seed)
        self._serials = count(1)
        self._issued: dict[int, Certificate] = {}
        self._revoked: dict[int, str] = {}
        self.root_certificate = self._make_root()

    def _make_root(self) -> Certificate:
        cert = Certificate(
            serial=next(self._serials),
            subject=self.dn,
            issuer=self.dn,
            public_key=self._keypair.public,
            validity=Validity(0.0, 10 * DEFAULT_LIFETIME),
            role=CertificateRole.CA,
        )
        signed = cert.with_signature(self._keypair.sign(cert.tbs_bytes()))
        self._issued[signed.serial] = signed
        return signed

    # -- issuance ---------------------------------------------------------
    def issue(
        self,
        subject: DistinguishedName,
        role: str,
        not_before: float = 0.0,
        lifetime: float = DEFAULT_LIFETIME,
        extensions: dict[str, str] | None = None,
        key_seed: int | None = None,
    ) -> tuple[Certificate, RSAKeyPair]:
        """Issue a certificate plus the fresh keypair it certifies.

        Returns ``(certificate, keypair)``; the caller keeps the private
        half (this CA does not escrow keys).
        """
        if role == CertificateRole.CA:
            raise CertificateError("subordinate CAs are issued via issue_sub_ca()")
        keypair = RSAKeyPair.generate(
            bits=self.key_bits,
            seed=key_seed if key_seed is not None else self._derive_seed(subject),
        )
        cert = Certificate(
            serial=next(self._serials),
            subject=subject,
            issuer=self.dn,
            public_key=keypair.public,
            validity=Validity(not_before, not_before + lifetime),
            role=role,
            extensions=extensions or {},
        )
        signed = cert.with_signature(self._keypair.sign(cert.tbs_bytes()))
        self._issued[signed.serial] = signed
        return signed, keypair

    def _derive_seed(self, subject: DistinguishedName) -> int | None:
        if self._seed is None:
            return None
        # Deterministic per-subject key material from the CA seed.
        import hashlib

        h = hashlib.sha256(f"{self._seed}:{subject}".encode()).digest()
        return int.from_bytes(h[:8], "big")

    # -- revocation ---------------------------------------------------------
    def revoke(self, certificate: Certificate, reason: str = "unspecified") -> None:
        """Add ``certificate`` to the revocation list."""
        if self._issued.get(certificate.serial) != certificate:
            raise CertificateError(
                f"certificate with serial {certificate.serial} was not issued "
                "by this CA"
            )
        self._revoked[certificate.serial] = reason

    def is_revoked(self, certificate: Certificate) -> bool:
        return certificate.serial in self._revoked

    @property
    def crl(self) -> dict[int, str]:
        """The certificate revocation list: serial → reason."""
        return dict(self._revoked)

    @property
    def issued_count(self) -> int:
        return len(self._issued)


class CertificateStore:
    """A trust store: validates certificates against trusted CAs.

    Gateways and browsers each hold one.  Validation checks, in order:
    issuer is trusted, signature verifies, validity window contains *now*,
    and the certificate is not on the issuer's CRL.  A signature is
    verified once: the store keeps each ``(issuer key, tbs, signature)``
    that verified, and every other check runs on every validation.
    """

    def __init__(self, trusted: list[CertificateAuthority] | None = None) -> None:
        self._cas: dict[str, CertificateAuthority] = {}
        self._verified: set[tuple[RSAPublicKey, bytes, int]] = set()
        for ca in trusted or []:
            self.add_trusted_ca(ca)

    def add_trusted_ca(self, ca: CertificateAuthority) -> None:
        self._cas[str(ca.dn)] = ca

    @property
    def trusted_issuers(self) -> list[str]:
        return sorted(self._cas)

    def validate(self, certificate: Certificate, now: float) -> None:
        """Full validation; raises a :class:`CertificateError` subclass on failure."""
        issuer = str(certificate.issuer)
        ca = self._cas.get(issuer)
        if ca is None:
            raise UntrustedIssuer(
                f"issuer {issuer!r} is not among trusted CAs {self.trusted_issuers}"
            )
        key = ca.root_certificate.public_key
        signed = (key, certificate.tbs_bytes(), certificate.signature)
        if signed not in self._verified:
            try:
                certificate.verify_signature(key)
            except SignatureInvalid as err:
                # A certificate naming a trusted issuer but not signed by
                # it is a forgery attempt, not a mere signature hiccup.
                raise UntrustedIssuer(
                    f"certificate claims issuer {issuer!r} but its signature "
                    f"does not verify: {err}"
                ) from err
            self._verified.add(signed)
        certificate.check_validity(now)
        if ca.is_revoked(certificate):
            raise CertificateRevoked(
                f"certificate serial {certificate.serial} revoked: "
                f"{ca.crl[certificate.serial]}"
            )
