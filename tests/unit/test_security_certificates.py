"""Unit tests for DNs, certificates, the CA, and the trust store."""

import pytest

from repro.security import (
    Certificate,
    CertificateAuthority,
    CertificateError,
    CertificateExpired,
    CertificateRevoked,
    CertificateStore,
    DistinguishedName,
    SignatureInvalid,
    UntrustedIssuer,
    Validity,
)
from repro.security.x509 import CertificateRole


@pytest.fixture(scope="module")
def ca():
    return CertificateAuthority(key_bits=384, seed=11)


@pytest.fixture(scope="module")
def user_cert(ca):
    dn = DistinguishedName(cn="Alice Adams", o="FZ Juelich", c="DE")
    cert, key = ca.issue(dn, role=CertificateRole.USER)
    return cert, key


# ----------------------------------------------------------------- DN
def test_dn_str_roundtrip():
    dn = DistinguishedName(cn="Alice", ou="ZAM", o="FZJ", l="Juelich", c="DE")
    assert DistinguishedName.parse(str(dn)) == dn


def test_dn_str_omits_empty_fields():
    dn = DistinguishedName(cn="Bob")
    assert str(dn) == "CN=Bob"


def test_dn_requires_cn():
    with pytest.raises(CertificateError):
        DistinguishedName(cn="")
    with pytest.raises(CertificateError):
        DistinguishedName.parse("O=FZJ, C=DE")


def test_dn_rejects_separator_chars():
    with pytest.raises(CertificateError):
        DistinguishedName(cn="evil, CN=admin")


def test_dn_parse_malformed():
    with pytest.raises(CertificateError):
        DistinguishedName.parse("CN=a, garbage")


def test_dn_is_hashable_and_ordered():
    a = DistinguishedName(cn="a")
    b = DistinguishedName(cn="b")
    assert len({a, b, DistinguishedName(cn="a")}) == 2
    assert a < b


# -------------------------------------------------------------- Validity
def test_validity_window():
    v = Validity(10.0, 20.0)
    assert v.contains(10.0) and v.contains(20.0) and v.contains(15.0)
    assert not v.contains(9.999) and not v.contains(20.001)
    assert v.lifetime == 10.0


def test_validity_rejects_inverted():
    with pytest.raises(CertificateError):
        Validity(20.0, 10.0)
    with pytest.raises(CertificateError):
        Validity(10.0, 10.0)


# ------------------------------------------------------------ Certificate
def test_issue_and_verify(ca, user_cert):
    cert, key = user_cert
    cert.verify_signature(ca.root_certificate.public_key)
    assert cert.role == CertificateRole.USER
    assert cert.public_key == key.public
    assert not cert.is_self_signed


def test_root_is_self_signed(ca):
    root = ca.root_certificate
    assert root.is_self_signed
    root.verify_signature(root.public_key)


def test_unknown_role_rejected(ca):
    with pytest.raises(CertificateError):
        Certificate(
            serial=1,
            subject=DistinguishedName(cn="x"),
            issuer=ca.dn,
            public_key=ca.root_certificate.public_key,
            validity=Validity(0, 1),
            role="wizard",
        )


def test_tampered_certificate_fails_signature(ca, user_cert):
    cert, _ = user_cert
    forged = Certificate(
        serial=cert.serial,
        subject=DistinguishedName(cn="Mallory"),  # changed subject
        issuer=cert.issuer,
        public_key=cert.public_key,
        validity=cert.validity,
        role=cert.role,
        signature=cert.signature,
    )
    with pytest.raises(SignatureInvalid):
        forged.verify_signature(ca.root_certificate.public_key)


def test_unsigned_certificate_rejected(ca, user_cert):
    cert, _ = user_cert
    unsigned = cert.with_signature(0)
    with pytest.raises(SignatureInvalid):
        unsigned.verify_signature(ca.root_certificate.public_key)


def test_expiry_check(ca):
    dn = DistinguishedName(cn="Shortlived")
    cert, _ = ca.issue(dn, role=CertificateRole.USER, not_before=100.0, lifetime=50.0)
    cert.check_validity(125.0)
    with pytest.raises(CertificateExpired):
        cert.check_validity(99.0)
    with pytest.raises(CertificateExpired):
        cert.check_validity(151.0)


def test_serials_unique(ca):
    c1, _ = ca.issue(DistinguishedName(cn="u1"), role=CertificateRole.USER)
    c2, _ = ca.issue(DistinguishedName(cn="u2"), role=CertificateRole.USER)
    assert c1.serial != c2.serial


def test_deterministic_issuance_per_subject():
    ca1 = CertificateAuthority(key_bits=384, seed=5)
    ca2 = CertificateAuthority(key_bits=384, seed=5)
    dn = DistinguishedName(cn="Determined User")
    cert1, key1 = ca1.issue(dn, role=CertificateRole.USER)
    cert2, key2 = ca2.issue(dn, role=CertificateRole.USER)
    assert key1.public == key2.public
    assert cert1.signature == cert2.signature


def test_extensions_are_signed(ca):
    dn = DistinguishedName(cn="Ext User")
    cert, _ = ca.issue(dn, role=CertificateRole.USER, extensions={"site": "FZJ"})
    tampered = Certificate(
        serial=cert.serial,
        subject=cert.subject,
        issuer=cert.issuer,
        public_key=cert.public_key,
        validity=cert.validity,
        role=cert.role,
        extensions={"site": "ZIB"},
        signature=cert.signature,
    )
    with pytest.raises(SignatureInvalid):
        tampered.verify_signature(ca.root_certificate.public_key)


def test_ca_refuses_direct_sub_ca(ca):
    with pytest.raises(CertificateError):
        ca.issue(DistinguishedName(cn="Evil CA"), role=CertificateRole.CA)


# ------------------------------------------------------------- revocation
def test_revocation(ca):
    cert, _ = ca.issue(DistinguishedName(cn="Revoked User"), role=CertificateRole.USER)
    assert not ca.is_revoked(cert)
    ca.revoke(cert, reason="key compromise")
    assert ca.is_revoked(cert)
    assert ca.crl[cert.serial] == "key compromise"


def test_revoke_foreign_certificate_rejected(ca):
    other_ca = CertificateAuthority(key_bits=384, seed=77)
    cert, _ = other_ca.issue(DistinguishedName(cn="Foreign"), role=CertificateRole.USER)
    with pytest.raises(CertificateError):
        ca.revoke(cert)


# ------------------------------------------------------------- trust store
def test_store_validates_good_certificate(ca, user_cert):
    cert, _ = user_cert
    store = CertificateStore(trusted=[ca])
    store.validate(cert, now=100.0)


def test_store_rejects_untrusted_issuer(user_cert):
    cert, _ = user_cert
    store = CertificateStore()  # trusts nobody
    with pytest.raises(UntrustedIssuer):
        store.validate(cert, now=100.0)


def test_store_rejects_revoked(ca):
    cert, _ = ca.issue(DistinguishedName(cn="ToRevoke"), role=CertificateRole.USER)
    store = CertificateStore(trusted=[ca])
    store.validate(cert, now=1.0)
    ca.revoke(cert)
    with pytest.raises(CertificateRevoked):
        store.validate(cert, now=1.0)


def test_store_rejects_expired(ca):
    cert, _ = ca.issue(
        DistinguishedName(cn="Expired"), role=CertificateRole.USER, lifetime=10.0
    )
    store = CertificateStore(trusted=[ca])
    with pytest.raises(CertificateExpired):
        store.validate(cert, now=11.0)


def test_store_lists_trusted_issuers(ca):
    store = CertificateStore(trusted=[ca])
    assert str(ca.dn) in store.trusted_issuers


# --------------------------------------------- a signature verified once
def test_the_store_verifies_a_signature_once(ca, monkeypatch):
    cert, _ = ca.issue(DistinguishedName(cn="Often Seen"), role=CertificateRole.USER)
    verified = []
    verify_signature = Certificate.verify_signature

    def counted(self, issuer_key):
        verified.append(self.serial)
        return verify_signature(self, issuer_key)

    monkeypatch.setattr(Certificate, "verify_signature", counted)
    store = CertificateStore(trusted=[ca])
    for now in range(50):
        store.validate(cert, now=float(now))
    assert verified == [cert.serial]


@pytest.mark.parametrize("after_acceptance, refusal", [
    ("signature tampered", UntrustedIssuer),
    ("window expired", CertificateExpired),
    ("serial revoked", CertificateRevoked),
    ("CA replaced with a new key", UntrustedIssuer),
])
def test_a_kept_signature_still_refuses(ca, after_acceptance, refusal):
    """Once a genuine certificate was accepted, the store still refuses
    its forged signature, its expiry, its revocation, and a CA of the
    same DN that is now trusted under another key."""
    cert, _ = ca.issue(
        DistinguishedName(cn=f"Accepted {after_acceptance}"),
        role=CertificateRole.USER, lifetime=100.0,
    )
    store = CertificateStore(trusted=[ca])
    store.validate(cert, now=1.0)
    now = 1.0
    if after_acceptance == "signature tampered":
        cert = cert.with_signature(cert.signature + 1)
    elif after_acceptance == "window expired":
        now = 101.0
    elif after_acceptance == "serial revoked":
        ca.revoke(cert)
    else:  # the same DN, another key
        store.add_trusted_ca(CertificateAuthority(
            name=ca.dn.cn, organization=ca.dn.o, country=ca.dn.c,
            key_bits=384, seed=78,
        ))
    with pytest.raises(refusal):
        store.validate(cert, now=now)
