"""Unit tests for workload generation and metrics helpers."""

import numpy as np
import pytest

from repro.batch import BatchSystem, machine
from repro.grid import (
    LocalLoadGenerator,
    WorkloadProfile,
    build_grid,
    synth_job,
)
from repro.grid.metrics import TierTimes
from repro.simkernel import Simulator, derive_rng


# ----------------------------------------------------------------- profile
def test_profile_runtime_distribution_mean():
    profile = WorkloadProfile(mean_runtime_s=1000.0, sigma_runtime=0.5)
    rng = derive_rng(1, "p")
    samples = [profile.sample_runtime(rng) for _ in range(4000)]
    assert np.mean(samples) == pytest.approx(1000.0, rel=0.1)
    assert min(samples) > 0


def test_profile_cpus_are_powers_of_two_within_bounds():
    profile = WorkloadProfile(min_cpus=2, max_cpus=64)
    rng = derive_rng(1, "c")
    for _ in range(200):
        cpus = profile.sample_cpus(rng)
        assert 2 <= cpus <= 64
        assert cpus & (cpus - 1) == 0


# ---------------------------------------------------------------- synth_job
def test_synth_job_builds_valid_pipeline():
    grid = build_grid({"FZJ": ["FZJ-T3E"]}, seed=31)
    user = grid.add_user("W", logins={"FZJ": "w"})
    session = grid.connect_user(user, "FZJ")
    from repro.client import JobPreparationAgent

    jpa = JobPreparationAgent(session)
    rng = derive_rng(31, "wl")
    builder = synth_job(jpa, rng, "job7", vsite="FZJ-T3E")
    from repro.analysis import analyze_ajo

    assert analyze_ajo(builder.ajo).ok
    kinds = {type(t).__name__ for t in builder.ajo.tasks()}
    assert "ImportTask" in kinds and "ExportTask" in kinds
    assert len(builder.ajo.dependencies) >= 2


def test_synth_job_deterministic_per_seed():
    grid = build_grid({"FZJ": ["FZJ-T3E"]}, seed=31)
    user = grid.add_user("W", logins={"FZJ": "w"})
    session = grid.connect_user(user, "FZJ")
    from repro.client import JobPreparationAgent

    jpa = JobPreparationAgent(session)
    a = synth_job(jpa, derive_rng(5, "x"), "j", vsite="FZJ-T3E")
    b = synth_job(jpa, derive_rng(5, "x"), "j", vsite="FZJ-T3E")
    ra = [t.resources for t in a.ajo.tasks()]
    rb = [t.resources for t in b.ajo.tasks()]
    assert ra == rb


# ------------------------------------------------------------- local load
def test_local_load_generator_submits_poisson_stream():
    sim = Simulator()
    batch = BatchSystem(sim, machine("RUKA-SP2"))
    gen = LocalLoadGenerator(
        sim, batch, derive_rng(3, "load"),
        arrival_rate_per_s=1 / 100.0, horizon_s=20_000.0,
        profile=WorkloadProfile(mean_runtime_s=500.0, max_cpus=16),
    )
    sim.run()
    # ~200 expected arrivals; allow wide tolerance.
    assert 120 < len(gen.submitted) < 300
    records = batch.all_records()
    assert all(r.state.is_terminal for r in records)
    assert all(r.spec.origin == "local" for r in records)
    # Scripts are in the machine's dialect.
    assert all("#@" in r.spec.script for r in records)


def test_local_load_generator_stops_at_horizon():
    sim = Simulator()
    batch = BatchSystem(sim, machine("RUKA-SP2"))
    LocalLoadGenerator(
        sim, batch, derive_rng(3, "load2"),
        arrival_rate_per_s=1 / 10.0, horizon_s=1000.0,
    )
    sim.run()
    assert all(
        r.submit_time <= 1000.0 for r in batch.all_records()
    )


# ------------------------------------------------------------------ metrics
def test_tier_times_accounting():
    t = TierTimes(handshake_s=1.0, consign_s=0.5, gateway_auth_s=0.2,
                  incarnation_s=0.1, batch_wait_s=10.0, execution_s=100.0,
                  outcome_return_s=0.2)
    assert t.middleware_total() == pytest.approx(2.0)
    assert t.total() == pytest.approx(112.0)
    labels = [label for label, _ in t.rows()]
    assert "execution" in labels and "batch queue wait" in labels
