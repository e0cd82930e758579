"""Property-based tests for the federation broker's matcher.

Two invariants:

* **no starvation under fair share** — however the submission order is
  skewed, a user with pending work is never more than one binding
  behind any other user within a matching round: the matcher re-ranks
  by served count after every single binding, so backlog from one user
  cannot crowd out another;
* **determinism** — the matcher holds no clock, randomness, or hash
  iteration order, so replaying the identical submission/advertisement
  history yields the identical (seq, vsite) binding sequence.

Every generated job requests one cpu (feasible at every generated
Vsite), so fairness is a pure scheduling question, never a feasibility
accident.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.broker import TaskQueueBroker
from repro.protocol.views import CapacityView, VsiteCapacity
from repro.resources.editor import ResourcePageEditor
from repro.resources.model import ResourceRequest


def _page(vsite, cpus):
    return (
        ResourcePageEditor(vsite)
        .set_system("Test", "TestOS", 1.0)
        .set_range("cpus", 1, cpus)
        .set_range("time_s", 1, 86_400)
        .set_range("memory_mb", 1, 100_000)
        .set_range("disk_permanent_mb", 0, 1_000_000)
        .set_range("disk_temporary_mb", 0, 1_000_000)
        .publish()
    )


def _ad(vsite, cpus, speed):
    return VsiteCapacity(
        usite=f"U-{vsite}",
        vsite=vsite,
        sent_at=0.0,
        total_cpus=cpus,
        free_cpus=cpus,
        queued_jobs=0,
        running_jobs=0,
        backlog_cpu_s=0.0,
        speed_factor=speed,
        page=_page(vsite, cpus),
    )


vsite_specs = st.lists(
    st.tuples(
        st.integers(1, 512),                          # cpus
        st.sampled_from([0.5, 0.8, 1.0, 2.0, 4.0]),   # speed factor
    ),
    min_size=1,
    max_size=4,
)

#: (user index, time_s) per submission, in arrival order.
submissions = st.lists(
    st.tuples(st.integers(0, 3), st.integers(60, 7_200)),
    min_size=1,
    max_size=24,
)


def _run_rounds(specs, subs, rounds=40):
    """Drive the matcher through advertise+match cycles, binding every
    dispatched job and feeding completions back the following round.

    Returns (binding history, per-round (dispatch counts, pending users)).
    """
    broker = TaskQueueBroker(max_queued_per_vsite=2)
    ads = [_ad(f"v{i}", cpus, speed) for i, (cpus, speed) in enumerate(specs)]
    for user, time_s in subs:
        broker.enqueue(
            f"user{user}", f"job-u{user}",
            ResourceRequest(cpus=1, time_s=float(time_s)),
        )
    history = []
    per_round = []
    finished: dict[str, list[str]] = {}
    for _ in range(rounds):
        for ad in ads:
            broker.observe(
                CapacityView(
                    usite=ad.usite, sent_at=0.0, vsites=(ad,),
                    terminal=tuple(finished.pop(ad.usite, ())),
                ),
                now=0.0,
            )
        bound = broker.match(now=0.0)
        counts: dict[str, int] = {}
        for job in bound:
            broker.bind(job, f"id{job.seq}")
            finished.setdefault(job.usite, []).append(f"id{job.seq}")
            counts[job.user_dn] = counts.get(job.user_dn, 0) + 1
            history.append((job.seq, job.vsite))
        per_round.append((counts, {j.user_dn for j in broker.pending}))
        if broker.queue_depth == 0 and not broker.dispatched:
            break
    return history, per_round


@settings(max_examples=60, deadline=None)
@given(specs=vsite_specs, subs=submissions)
def test_fair_share_never_starves_a_pending_user(specs, subs):
    _, per_round = _run_rounds(specs, subs)
    for counts, pending_users in per_round:
        for waiting in pending_users:
            for other, n in counts.items():
                # A user still waiting at the end of the round was served
                # within one binding of everyone served during it.
                assert n - counts.get(waiting, 0) <= 1, (
                    f"{other} got {n} bindings while {waiting} "
                    f"(served {counts.get(waiting, 0)}) still had "
                    f"pending work"
                )


@settings(max_examples=60, deadline=None)
@given(specs=vsite_specs, subs=submissions)
def test_matching_is_deterministic(specs, subs):
    first, _ = _run_rounds(specs, subs)
    second, _ = _run_rounds(specs, subs)
    assert first == second
    # All work eventually drains (every job fits everywhere).
    assert len(first) == len(subs)


@settings(max_examples=40, deadline=None)
@given(subs=submissions)
def test_single_vsite_rounds_serve_users_near_equally(subs):
    """With one machine and contention, per-round dispatch counts of any
    two users who both still have pending work differ by at most one."""
    _, per_round = _run_rounds([(64, 1.0)], subs)
    for counts, pending_users in per_round:
        contended = [counts.get(u, 0) for u in pending_users]
        if len(contended) >= 2:
            assert max(contended) - min(contended) <= 1
