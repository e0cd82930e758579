"""Toy RSA signatures over SHA-256 digests.

This is *textbook* RSA with deterministic full-domain-ish padding — small
keys, fast keygen, real mathematical signatures that fail on any bit flip.
It deliberately does not attempt production-grade padding (OAEP/PSS):
what the architecture reproduction needs from the crypto layer is
(1) unforgeability against accidental modification, (2) key identity, and
(3) measurable sign/verify cost. See DESIGN.md "Substitutions".
"""

from __future__ import annotations

import functools
import hashlib
import random
import typing
from dataclasses import dataclass

from repro.security.errors import SignatureInvalid
from repro.security.numbertheory import generate_prime, modinv

__all__ = ["RSAPublicKey", "RSAKeyPair", "sign", "verify", "digest"]

_E = 65537


def digest(data: bytes) -> bytes:
    """SHA-256 digest of ``data`` — the hash underlying all signatures."""
    return hashlib.sha256(data).digest()


@dataclass(frozen=True, slots=True)
class RSAPublicKey:
    """An RSA public key ``(n, e)``."""

    n: int
    e: int

    @property
    def bits(self) -> int:
        return self.n.bit_length()

    def fingerprint(self) -> str:
        """Short hex fingerprint identifying this key."""
        material = f"{self.n:x}:{self.e:x}".encode()
        return hashlib.sha256(material).hexdigest()[:16]

    def to_dict(self) -> dict[str, typing.Any]:
        return {"n": f"{self.n:x}", "e": self.e}

    @classmethod
    def from_dict(cls, d: dict[str, typing.Any]) -> "RSAPublicKey":
        return cls(n=int(d["n"], 16), e=int(d["e"]))


@dataclass(frozen=True, slots=True)
class RSAKeyPair:
    """An RSA keypair; the private exponent stays inside this object."""

    public: RSAPublicKey
    d: int

    @classmethod
    def generate(cls, bits: int = 512, seed: int | None = None) -> "RSAKeyPair":
        """Generate a keypair with a modulus of ``bits`` bits.

        A seeded keypair is a pure function of ``(bits, seed)``: it is
        derived once per process and the same object is returned to every
        later caller, so a second grid built from the same seeds runs no
        prime search.  With ``seed=None`` the keypair is fresh on every
        call, drawn from a system-seeded stream, and never shared.
        """
        if bits < 288:
            raise ValueError("modulus below 288 bits cannot pad a SHA-256 digest")
        if seed is None:
            return _derive(bits, random.Random())
        return _derive_seeded(bits, seed)

    def sign(self, data: bytes) -> int:
        return sign(self, data)


def _derive(bits: int, rng: random.Random) -> RSAKeyPair:
    """The prime search: two primes from ``rng``, then the private exponent."""
    half = bits // 2
    while True:
        p = generate_prime(half, rng)
        q = generate_prime(bits - half, rng)
        if p == q:
            continue
        phi = (p - 1) * (q - 1)
        if phi % _E == 0:
            continue
        return RSAKeyPair(public=RSAPublicKey(n=p * q, e=_E), d=modinv(_E, phi))


@functools.cache
def _derive_seeded(bits: int, seed: int) -> RSAKeyPair:
    # Safe to share: the keypair is frozen, and no grid counts or stores
    # how its keys were made.
    return _derive(bits, random.Random(seed))


def _encode_digest(data: bytes, n: int) -> int:
    """Deterministically pad SHA-256(data) to an integer < n.

    Layout (big-endian): ``0x01 || 0xFF.. || 0x00 || digest`` truncated to
    fit below ``n`` — a simplified EMSA-PKCS1-v1_5.
    """
    dg = digest(data)
    k = (n.bit_length() - 1) // 8  # bytes that always fit below n
    if k < len(dg) + 2:
        raise ValueError("modulus too small for SHA-256 padding")
    padded = b"\x01" + b"\xff" * (k - len(dg) - 2) + b"\x00" + dg
    return int.from_bytes(padded, "big")


def sign(keypair: RSAKeyPair, data: bytes) -> int:
    """Sign ``data``; returns the signature as an integer."""
    m = _encode_digest(data, keypair.public.n)
    return pow(m, keypair.d, keypair.public.n)


def verify(public: RSAPublicKey, data: bytes, signature: int) -> None:
    """Verify ``signature`` over ``data``; raises :class:`SignatureInvalid`.

    Raising (rather than returning bool) forces call sites to handle
    failure explicitly — a misuse-resistance idiom.
    """
    if not isinstance(signature, int) or not 0 < signature < public.n:
        raise SignatureInvalid("signature out of range for modulus")
    expected = _encode_digest(data, public.n)
    if pow(signature, public.e, public.n) != expected:
        raise SignatureInvalid("signature does not match data under this key")
