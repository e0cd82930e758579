"""Unit tests for the federation broker: matcher, quotas, advertisement
staleness, and work stealing — plus the NJS advertisement builder and the
deprecation shim left at the broker's old address."""


import pytest

from repro.broker import (
    AdvertiseCapacity,
    BrokerJobState,
    BrokerQuotaError,
    CapacityAdvertisement,
    FairSharePolicy,
    NoCapacityError,
    TaskQueueBroker,
)
from repro.observability.metrics import MetricsRegistry
from repro.resources.editor import ResourcePageEditor
from repro.resources.model import ResourceRequest


def make_page(vsite, cpus=512, max_time_s=86_400, memory_mb=100_000,
              compilers=()):
    editor = (
        ResourcePageEditor(vsite)
        .set_system("Test", "TestOS", 1.0)
        .set_range("cpus", 1, cpus)
        .set_range("time_s", 1, max_time_s)
        .set_range("memory_mb", 1, memory_mb)
        .set_range("disk_permanent_mb", 0, 1_000_000)
        .set_range("disk_temporary_mb", 0, 1_000_000)
    )
    for name in compilers:
        editor.add_compiler(name)
    return editor.publish()


def make_ad(vsite, usite="SITE", sent_at=0.0, total_cpus=512, free_cpus=512,
            queued_jobs=0, running_jobs=0, backlog_cpu_s=0.0,
            speed_factor=1.0, **page_kw):
    page_kw.setdefault("cpus", total_cpus)
    return CapacityAdvertisement(
        usite=usite,
        vsite=vsite,
        sent_at=sent_at,
        total_cpus=total_cpus,
        free_cpus=free_cpus,
        queued_jobs=queued_jobs,
        running_jobs=running_jobs,
        backlog_cpu_s=backlog_cpu_s,
        speed_factor=speed_factor,
        page=make_page(vsite, **page_kw),
    )


def observe(broker, *ads, usite="SITE", now=0.0, reclaimable=(), terminal=()):
    broker.observe(
        AdvertiseCapacity(
            usite=usite,
            sent_at=now,
            vsites=tuple(ads),
            reclaimable=tuple(reclaimable),
            terminal=tuple(terminal),
        ),
        now=now,
    )


# -- matching ----------------------------------------------------------------

def test_match_prefers_lowest_estimated_wait():
    broker = TaskQueueBroker()
    observe(
        broker,
        make_ad("busy", backlog_cpu_s=512 * 7200.0),
        make_ad("idle"),
    )
    job = broker.enqueue("u", "j", ResourceRequest(cpus=4, time_s=600))
    assert broker.match(now=0.0) == [job]
    assert job.state is BrokerJobState.DISPATCHED
    assert job.vsite == "idle"


def test_match_respects_resource_feasibility():
    broker = TaskQueueBroker()
    observe(
        broker,
        make_ad("small", total_cpus=32),
        make_ad("large", total_cpus=512, backlog_cpu_s=512 * 3600.0),
    )
    job = broker.enqueue("u", "wide", ResourceRequest(cpus=128, time_s=600))
    broker.match(now=0.0)
    # "small" is idle but can never run 128 cpus; the backlogged large
    # machine is the only legal destination.
    assert job.vsite == "large"


def test_match_respects_software_requirements():
    broker = TaskQueueBroker()
    observe(
        broker,
        make_ad("plain"),
        make_ad("f90site", backlog_cpu_s=512 * 3600.0, compilers=("f90",)),
    )
    job = broker.enqueue(
        "u", "compile", ResourceRequest(cpus=2, time_s=600),
        software=(("compiler", "f90"),),
    )
    broker.match(now=0.0)
    assert job.vsite == "f90site"


def test_match_is_deterministic():
    def run():
        broker = TaskQueueBroker()
        observe(broker, make_ad("a"), make_ad("b", speed_factor=2.0))
        jobs = [
            broker.enqueue(f"u{i % 3}", f"j{i}",
                           ResourceRequest(cpus=1 + i, time_s=600 + 60 * i))
            for i in range(6)
        ]
        broker.match(now=0.0)
        return [(j.seq, j.vsite) for j in jobs]

    assert run() == run()


def test_backpressure_keeps_jobs_in_broker_queue():
    broker = TaskQueueBroker(max_queued_per_vsite=2)
    observe(broker, make_ad("only"))
    jobs = [
        broker.enqueue("u", f"j{i}", ResourceRequest(cpus=1, time_s=600))
        for i in range(5)
    ]
    bound = broker.match(now=0.0)
    # Late binding: only as many as the backpressure window admits leave
    # the broker queue; the rest wait for a fresher advertisement.
    assert len(bound) == 2
    assert broker.queue_depth == 3
    observe(broker, make_ad("only", queued_jobs=0))
    assert len(broker.match(now=0.0)) == 2
    assert jobs[-1].state is BrokerJobState.PENDING


# -- quotas and rejection ----------------------------------------------------

def test_concurrency_quota_rejected_with_stable_code():
    metrics = MetricsRegistry()
    broker = TaskQueueBroker(
        policy=FairSharePolicy(default_max_active=2), metrics=metrics
    )
    for i in range(2):
        broker.enqueue("alice", f"j{i}", ResourceRequest(cpus=1, time_s=60))
    with pytest.raises(BrokerQuotaError) as exc:
        broker.enqueue("alice", "j2", ResourceRequest(cpus=1, time_s=60))
    assert exc.value.code == "broker.quota_exceeded"
    assert metrics.counter_value("broker.rejections") == 1
    # Another user is unaffected.
    broker.enqueue("bob", "b0", ResourceRequest(cpus=1, time_s=60))


def test_per_user_quota_override():
    policy = FairSharePolicy(default_max_active=10, max_active={"greedy": 1})
    broker = TaskQueueBroker(policy=policy)
    broker.enqueue("greedy", "g0", ResourceRequest(cpus=1, time_s=60))
    with pytest.raises(BrokerQuotaError):
        broker.enqueue("greedy", "g1", ResourceRequest(cpus=1, time_s=60))


def test_total_quota_counts_lifetime_submissions():
    broker = TaskQueueBroker(
        policy=FairSharePolicy(default_max_total=2)
    )
    observe(broker, make_ad("v"))
    for i in range(2):
        job = broker.enqueue("u", f"j{i}", ResourceRequest(cpus=1, time_s=60))
        broker.match(now=0.0)
        broker.bind(job, f"id{i}")
        observe(broker, make_ad("v"), terminal=(f"id{i}",))
    # Both jobs finished (no active ones), yet the lifetime quota holds.
    assert broker.active_jobs("u") == 0
    with pytest.raises(BrokerQuotaError):
        broker.enqueue("u", "j2", ResourceRequest(cpus=1, time_s=60))


def test_no_capacity_rejection_when_nothing_could_ever_fit():
    metrics = MetricsRegistry()
    broker = TaskQueueBroker(metrics=metrics)
    observe(broker, make_ad("small", total_cpus=32))
    with pytest.raises(NoCapacityError) as exc:
        broker.enqueue("u", "wide", ResourceRequest(cpus=1024, time_s=60))
    assert exc.value.code == "broker.no_capacity"
    assert metrics.counter_value("broker.rejections") == 1


def test_empty_world_accepts_submissions():
    # No advertisements yet: the job waits rather than being rejected
    # (the broker cannot prove infeasibility without a world view).
    broker = TaskQueueBroker()
    job = broker.enqueue("u", "early", ResourceRequest(cpus=4, time_s=60))
    assert broker.match(now=0.0) == []
    assert job.state is BrokerJobState.PENDING


# -- advertisement staleness and completion feedback -------------------------

def test_stale_advertisements_are_ignored():
    broker = TaskQueueBroker(staleness_s=300.0)
    observe(broker, make_ad("v", sent_at=0.0))
    job = broker.enqueue("u", "j", ResourceRequest(cpus=1, time_s=60))
    assert broker.match(now=1000.0) == []
    assert job.state is BrokerJobState.PENDING
    observe(broker, make_ad("v", sent_at=1000.0), now=1000.0)
    assert broker.match(now=1000.0) == [job]


def test_terminal_feedback_retires_entries_and_frees_quota():
    broker = TaskQueueBroker(policy=FairSharePolicy(default_max_active=1))
    observe(broker, make_ad("v"))
    job = broker.enqueue("u", "j", ResourceRequest(cpus=1, time_s=60))
    broker.match(now=0.0)
    broker.bind(job, "U1@SITE")
    with pytest.raises(BrokerQuotaError):
        broker.enqueue("u", "j2", ResourceRequest(cpus=1, time_s=60))
    observe(broker, make_ad("v"), terminal=("U1@SITE",), now=60.0)
    assert job.state is BrokerJobState.DONE
    assert job in broker.completed
    broker.enqueue("u", "j2", ResourceRequest(cpus=1, time_s=60))


def test_release_requeues_excluding_failed_vsite():
    broker = TaskQueueBroker()
    observe(broker, make_ad("a"), make_ad("b", speed_factor=0.5))
    job = broker.enqueue("u", "j", ResourceRequest(cpus=1, time_s=600))
    broker.match(now=0.0)
    first = job.vsite
    broker.release(job, requeue=True, error="consign timeout")
    assert job.state is BrokerJobState.PENDING
    assert first in job.excluded
    broker.match(now=0.0)
    assert job.vsite != first


# -- fair share --------------------------------------------------------------

def test_fair_share_interleaves_users():
    broker = TaskQueueBroker(max_queued_per_vsite=10)
    observe(broker, make_ad("v"))
    # Hog floods the queue before newcomer submits a single job.
    for i in range(8):
        broker.enqueue("hog", f"h{i}", ResourceRequest(cpus=1, time_s=60))
    late = broker.enqueue("newcomer", "n0", ResourceRequest(cpus=1, time_s=60))
    bound = broker.match(now=0.0)
    # The newcomer must be served within the first two bindings: after
    # the hog's first dispatch, the newcomer is the least-served user.
    assert late in bound[:2]


def test_fair_share_counts_already_dispatched_jobs():
    broker = TaskQueueBroker(max_queued_per_vsite=1)
    observe(broker, make_ad("v"))
    broker.enqueue("hog", "h0", ResourceRequest(cpus=1, time_s=60))
    assert len(broker.match(now=0.0)) == 1
    broker.enqueue("hog", "h1", ResourceRequest(cpus=1, time_s=60))
    late = broker.enqueue("newcomer", "n0", ResourceRequest(cpus=1, time_s=60))
    observe(broker, make_ad("v"))
    # One slot reopens; it must go to the user with nothing dispatched.
    assert broker.match(now=0.0) == [late]


# -- work stealing -----------------------------------------------------------

def _bound_job(broker, vsite="busy", job_id="U1@A"):
    job = broker.enqueue("u", "j", ResourceRequest(cpus=2, time_s=600))
    broker.match(now=0.0)
    assert job.vsite == vsite
    broker.bind(job, job_id)
    return job


def test_steal_candidates_move_queued_work_to_drained_vsite():
    broker = TaskQueueBroker(min_steal_wait_s=600.0)
    observe(broker, make_ad("busy", usite="A"), usite="A")
    job = _bound_job(broker)
    # Next reports: the bound queue is long, another site sits empty,
    # and the NJS confirms the job has not started.
    observe(broker, make_ad("busy", usite="A", queued_jobs=3,
                            backlog_cpu_s=512 * 100_000.0),
            usite="A", reclaimable=("U1@A",))
    observe(broker, make_ad("idle", usite="B"), usite="B")
    candidates = broker.steal_candidates(now=0.0)
    assert [(j.job_id, u, v) for j, u, v in candidates] == [
        ("U1@A", "B", "idle")
    ]
    broker.mark_stolen(job)
    assert job.state is BrokerJobState.PENDING
    assert job.job_id == ""
    assert "busy" in job.excluded
    assert broker.match(now=0.0) == [job]
    assert job.vsite == "idle"
    assert job.steals == 1


def test_no_steal_when_wait_is_short():
    broker = TaskQueueBroker(min_steal_wait_s=600.0)
    observe(broker, make_ad("busy", usite="A"), usite="A")
    _bound_job(broker)
    observe(broker, make_ad("busy", usite="A", queued_jobs=1,
                            backlog_cpu_s=512 * 30.0),
            usite="A", reclaimable=("U1@A",))
    observe(broker, make_ad("idle", usite="B"), usite="B")
    assert broker.steal_candidates(now=0.0) == []


def test_no_steal_without_reclaimable_confirmation():
    broker = TaskQueueBroker(min_steal_wait_s=600.0)
    observe(broker, make_ad("busy", usite="A"), usite="A")
    _bound_job(broker)
    # The job started running: the NJS no longer lists it.
    observe(broker, make_ad("busy", usite="A", queued_jobs=3,
                            backlog_cpu_s=512 * 100_000.0),
            usite="A", reclaimable=())
    observe(broker, make_ad("idle", usite="B"), usite="B")
    assert broker.steal_candidates(now=0.0) == []


# -- NJS advertisement builder ----------------------------------------------

@pytest.fixture(scope="module")
def single_site_run():
    """One consigned job at a one-site grid, for advertisement checks."""
    from repro.api import GridSession
    from repro.grid.build import build_grid

    grid = build_grid({"FZJ": ["FZJ-T3E"]})
    grid.add_user("Alice Debye", organization="FZJ", logins={"FZJ": "alice"})
    session = GridSession(grid, "Alice Debye", "FZJ")
    job = session.new_job("adtest")
    job.script_task("t", "echo hi",
                    resources=ResourceRequest(cpus=4, time_s=600),
                    simulated_runtime_s=86_400)
    handle = session.submit(job)
    return grid, session, handle


def test_njs_build_advertisement_reports_vsites(single_site_run):
    grid, _, handle = single_site_run
    njs = grid.usites["FZJ"].njs
    message = njs.adverts.build()
    assert message.usite == "FZJ"
    assert message.sent_at == grid.sim.now
    (ad,) = message.vsites
    assert ad.vsite == "FZJ-T3E"
    assert ad.total_cpus == 512
    assert ad.page == grid.usites["FZJ"].vsites["FZJ-T3E"].resource_page
    assert ad.backlog_cpu_s > 0  # our job is on the machine
    assert ad.running_jobs + ad.queued_jobs >= 1


def test_njs_reclaimable_tracks_batch_state(single_site_run):
    grid, session, handle = single_site_run
    njs = grid.usites["FZJ"].njs
    # The 24h task occupies the machine alone, so it is RUNNING — and a
    # running job must never be offered for stealing.
    session.advance(300)
    assert njs.adverts.reclaimable() == []
    message = njs.adverts.build()
    assert handle.job_id not in message.reclaimable


def test_njs_consign_quota_crosses_protocol_edge():
    from repro.api import GridSession
    from repro.grid.build import build_grid

    grid = build_grid({"FZJ": ["FZJ-T3E"]}, max_active_per_user=1)
    grid.add_user("Alice Debye", organization="FZJ", logins={"FZJ": "alice"})
    session = GridSession(grid, "Alice Debye", "FZJ")
    first = session.new_job("first")
    first.script_task("t", "x", simulated_runtime_s=86_400)
    session.submit(first)
    second = session.new_job("second")
    second.script_task("t", "x", simulated_runtime_s=60)
    with pytest.raises(BrokerQuotaError) as exc:
        session.submit(second)
    assert exc.value.code == "broker.quota_exceeded"
