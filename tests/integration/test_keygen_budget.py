"""A deterministic cost proxy for the security tier: prime searches per grid.

A deployment's keys are a pure function of its seed: the CA's root key,
one server key per gateway, the applet developer's key and one key per
user all derive from ``(bits, seed)``.  Each seeded keypair is derived
once per process, so a second grid built from the same seed — another
benchmark repetition, another test, a snapshot thaw — runs no prime
search at all, and is certified exactly as the first.  An unseeded key is
drawn fresh every time and shared with nobody.
"""

import pytest

from repro.ajo import encode_outcome
from repro.api import GridSession
from repro.grid import build_german_grid, build_grid
from repro.security import numbertheory, rsa
from repro.security.ca import CertificateAuthority
from repro.security.rsa import RSAKeyPair
from repro.security.x509 import CertificateRole, DistinguishedName


class _PrimeMeter:
    """``generate_prime``, counting its calls."""

    def __init__(self) -> None:
        self.calls = 0

    def __call__(self, bits, rng):
        self.calls += 1
        return numbertheory.generate_prime(bits, rng)


@pytest.fixture
def primes(monkeypatch):
    meter = _PrimeMeter()
    monkeypatch.setattr(rsa, "generate_prime", meter)
    return meter


def _certificates(grid):
    """The deployment's certificates: root, each site's, the applet signer's."""
    return (
        grid.ca.root_certificate,
        {name: usite.server_cert for name, usite in grid.usites.items()},
        {name: applet.signer_certificate for name, applet in grid.applets.items()},
    )


def test_a_second_grid_from_the_same_seed_runs_no_prime_search(primes):
    first = build_german_grid(seed=10)
    searched = primes.calls
    second = build_german_grid(seed=10)

    # Unshared, every build searched 16 primes: two for each of 8 keys
    # (root, six gateways, the applet developer).
    assert primes.calls == searched
    assert _certificates(second) == _certificates(first)


def test_a_snapshot_thaw_runs_no_prime_search_and_stays_byte_identical(primes):
    grid = build_grid({"FZJ": ["FZJ-T3E"]}, seed=26)
    user = grid.add_user("Keyed User", logins={"FZJ": "keyed"})
    session = GridSession(grid, user, "FZJ")
    job = session.new_job("keyed", "FZJ-T3E")
    job.script_task("work", "#!/bin/sh\nwork\n", simulated_runtime_s=60.0)
    handle = session.submit(job)
    assert session.wait(handle).status == "successful"
    outcome = encode_outcome(session.outcome(handle))
    snap = grid.snapshot()

    searched = primes.calls
    thawed = build_grid(restore_from=snap)

    # Unshared, a thaw searched 8: root, gateway, developer and user.
    assert primes.calls == searched
    assert _certificates(thawed) == _certificates(grid)
    assert thawed.snapshot().to_bytes() == snap.to_bytes()
    again = GridSession(thawed, thawed.users["Keyed User"], "FZJ")
    assert encode_outcome(again.outcome(handle.job_id)) == outcome


@pytest.mark.parametrize("seed", [0, 1])
def test_a_seeded_keypair_is_one_object_per_process(seed):
    assert RSAKeyPair.generate(384, seed=seed) is RSAKeyPair.generate(384, seed=seed)
    assert RSAKeyPair.generate(512, seed=seed) is not RSAKeyPair.generate(384, seed=seed)


def test_an_unseeded_keypair_is_fresh_and_never_shared():
    kept = rsa._derive_seeded.cache_info().currsize
    a, b = RSAKeyPair.generate(384), RSAKeyPair.generate(384)
    assert a.public.n != b.public.n

    ca_a, ca_b = CertificateAuthority(key_bits=384), CertificateAuthority(key_bits=384)
    assert ca_a.root_certificate.public_key.n != ca_b.root_certificate.public_key.n
    dn = DistinguishedName(cn="Fresh User", o="FZ Juelich", c="DE")
    (_, key_a), (_, key_b) = (ca.issue(dn, CertificateRole.USER) for ca in (ca_a, ca_b))
    assert key_a.public.n != key_b.public.n
    assert rsa._derive_seeded.cache_info().currsize == kept
