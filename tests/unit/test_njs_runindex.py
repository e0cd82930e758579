"""Unit + property tests for the NJS run index and job change-log.

The supervisor's bookkeeping moved from linear ``_runs`` scans to the
incremental tables in :mod:`repro.server.njs.runindex`.  These tests pin
the two invariants that make that safe:

1. the index always agrees with a ground-truth rebuild from the run
   table, across every state transition and across crash recovery;
2. a client that replays delta views from seq 0 reconstructs exactly
   the full listing the server would have sent.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.grid import build_grid
from repro.observability import telemetry_for
from repro.protocol.views import JobListing
from repro.server.njs.runindex import JobChangeLog, RunIndex


# -- RunIndex: direct table bookkeeping ------------------------------------

def test_index_add_note_discard_lifecycle():
    index = RunIndex()
    index.add("j1@A", "CN=alice", "queued", terminal=False)
    index.add("j2@A", "CN=alice", "queued", terminal=False)
    index.add("j3@A", "CN=bob", "successful", terminal=True)

    assert len(index) == 3
    assert index.active_count("CN=alice") == 2
    assert index.active_count("CN=bob") == 0
    assert index.jobs_for("CN=alice") == {"j1@A", "j2@A"}
    assert index.active == {"j1@A", "j2@A"}
    assert index.terminal == {"j3@A"}

    # Intermediate transition: status changes but stays non-terminal.
    assert index.note_status("j1@A", "CN=alice", "executing", terminal=False)
    assert index.status_value("j1@A") == "executing"
    assert index.active_count("CN=alice") == 2

    # A repeated value is a no-op (and reports it did not change).
    assert not index.note_status("j1@A", "CN=alice", "executing", terminal=False)

    # Terminal transition moves the id across the partition.
    assert index.note_status("j1@A", "CN=alice", "successful", terminal=True)
    assert index.active == {"j2@A"}
    assert "j1@A" in index.terminal
    assert index.active_count("CN=alice") == 1

    index.discard("j1@A", "CN=alice")
    assert index.status_value("j1@A") is None
    assert index.jobs_for("CN=alice") == {"j2@A"}

    # Discarding an active job releases the quota slot too.
    index.discard("j2@A", "CN=alice")
    assert index.active_count("CN=alice") == 0
    assert index.jobs_for("CN=alice") == set()
    # Unknown ids are ignored.
    index.discard("j2@A", "CN=alice")
    assert len(index) == 1


class _FakeStatus:
    def __init__(self, value, terminal):
        self.value = value
        self.is_terminal = terminal


class _FakeRun:
    def __init__(self, user_dn, value, terminal):
        self.user_dn = user_dn
        self._status = _FakeStatus(value, terminal)

    def status(self):
        return self._status


def test_index_rebuild_matches_ground_truth():
    runs = {
        "a@X": _FakeRun("CN=u1", "queued", False),
        "b@X": _FakeRun("CN=u1", "successful", True),
        "c@X": _FakeRun("CN=u2", "executing", False),
    }
    index = RunIndex()
    for job_id, run in runs.items():
        status = run.status()
        index.add(job_id, run.user_dn, status.value, status.is_terminal)
    index.verify(runs)
    assert index.active_count("CN=u1") == 1
    assert index.terminal == {"b@X"}

    # verify() must actually catch drift, not rubber-stamp.
    index.active.discard("a@X")
    with pytest.raises(AssertionError):
        index.verify(runs)


_STATES = ("consigned", "queued", "executing", "successful", "failed")
_TERMINAL = {"successful", "failed"}


@settings(max_examples=200, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=5),   # job number
            st.integers(min_value=0, max_value=2),   # user number
            st.sampled_from(_STATES + ("discard",)),
        ),
        max_size=40,
    )
)
def test_index_consistent_under_random_transitions(ops):
    """Any interleaving of add/transition/discard leaves the index
    agreeing with a ground-truth rebuild of the surviving run table."""
    index = RunIndex()
    runs: dict[str, _FakeRun] = {}
    owner: dict[str, str] = {}
    for job_no, user_no, action in ops:
        job_id, user_dn = f"j{job_no}@S", f"CN=u{user_no}"
        if action == "discard":
            if job_id in runs:
                index.discard(job_id, owner[job_id])
                del runs[job_id]
            continue
        terminal = action in _TERMINAL
        if job_id not in runs:
            runs[job_id] = _FakeRun(user_dn, action, terminal)
            owner[job_id] = user_dn
            index.add(job_id, user_dn, action, terminal)
        else:
            run = runs[job_id]
            if run._status.is_terminal:
                # Real runs never leave a terminal state.
                continue
            # Status notes come from the run's owner, not the random user.
            run._status = _FakeStatus(action, terminal)
            index.note_status(job_id, owner[job_id], action, terminal)
    index.verify(runs)


# -- JobChangeLog: versioned delta views -----------------------------------

def _listing(job_id, status="queued"):
    return JobListing(job_id=job_id, name=job_id, status=status)


def test_changelog_delta_supersedes_and_tombstones():
    log = JobChangeLog()
    log.record(_listing("a@X", "queued"), "CN=u")
    log.record(_listing("a@X", "executing"), "CN=u")
    cursor = log.record(_listing("b@X", "queued"), "CN=u")
    log.record(_listing("b@X", "successful"), "CN=u")
    log.record_removed("a@X", "CN=u")

    # From zero: one row per surviving job, removal tombstone for a@X.
    delta = log.delta_for("CN=u", 0)
    assert not delta.full
    assert [l.job_id for l in delta.listings] == ["b@X"]
    assert [l.status for l in delta.listings] == ["successful"]
    assert delta.removed == ("a@X",)
    assert delta.seq == log.seq

    # From a mid-log cursor: only what changed after it.
    delta = log.delta_for("CN=u", cursor)
    assert [l.job_id for l in delta.listings] == ["b@X"]
    assert delta.removed == ("a@X",)
    # Nothing after the head cursor.
    head = log.delta_for("CN=u", log.seq)
    assert head.listings == () and head.removed == ()

    # Users are isolated.
    assert log.delta_for("CN=other", 0).listings == ()

    fresh = log.next_epoch()
    assert fresh.epoch == log.epoch + 1
    assert fresh.seq == 0


@settings(max_examples=200, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=7),     # job number
            st.sampled_from(_STATES + ("remove",)),
            st.integers(min_value=0, max_value=1),     # user number
        ),
        max_size=50,
    ),
    cut=st.integers(min_value=0, max_value=50),
)
def test_delta_replay_reconstructs_full_listing(ops, cut):
    """A client replaying deltas from seq 0 — in any number of
    installments — ends up with exactly the server's current listing."""
    log = JobChangeLog()
    truth: dict[str, dict[str, JobListing]] = {"CN=u0": {}, "CN=u1": {}}
    mid_seq: dict[str, int] = {}
    for i, (job_no, action, user_no) in enumerate(ops):
        user_dn, job_id = f"CN=u{user_no}", f"j{job_no}@S"
        if action == "remove":
            log.record_removed(job_id, user_dn)
            truth[user_dn].pop(job_id, None)
        else:
            listing = _listing(job_id, action)
            log.record(listing, user_dn)
            truth[user_dn][job_id] = listing
        if i + 1 == cut:
            mid_seq = {dn: log.seq for dn in truth}

    for user_dn, expect in truth.items():
        # Single-shot replay from zero.
        replayed: dict[str, JobListing] = {}
        delta = log.delta_for(user_dn, 0)
        for item in delta.listings:
            replayed[item.job_id] = item
        for job_id in delta.removed:
            replayed.pop(job_id, None)
        assert replayed == expect

        # Two-installment replay (cursor handoff at an arbitrary cut).
        staged: dict[str, JobListing] = {}
        for since in (0, mid_seq.get(user_dn)):
            if since is None:
                continue
            delta = log.delta_for(user_dn, since if since else 0)
            for item in delta.listings:
                staged[item.job_id] = item
            for job_id in delta.removed:
                staged.pop(job_id, None)
        if mid_seq:
            assert staged == expect


# -- Supervisor integration: the index under real transitions ---------------

def _one_job_site():
    grid = build_grid({"FZJ": ["FZJ-T3E"]}, seed=7)
    user = grid.add_user("Index User", logins={"FZJ": "idx"})
    return grid, user


def test_supervisor_index_tracks_job_lifecycle_and_crash_replay():
    from repro.api import GridSession

    grid, user = _one_job_site()
    session = GridSession(grid, user, "FZJ")
    njs = grid.usites["FZJ"].njs

    job = session.new_job("indexed")
    job.script_task("work", "#!/bin/sh\nwork\n", simulated_runtime_s=400.0)
    handle = session.submit(job)
    njs.runs.verify_index()
    assert njs.runs.active_count(session.session.user_dn) == 1

    session.advance(30.0)
    njs.runs.verify_index()

    # Crash mid-run: the fresh index agrees with the wiped table, the
    # rebuild counter ticks, and the change-log starts a new epoch.
    metrics = telemetry_for(grid.sim).metrics
    rebuilds_before = metrics.counter_value("njs.index.rebuilds")
    dn = session.session.user_dn
    epoch_before = njs.list_jobs_delta(dn, -1, 0).epoch
    njs.crash()
    njs.runs.verify_index()
    assert metrics.counter_value("njs.index.rebuilds") == rebuilds_before + 1

    # Journal replay re-supervises the job; the index follows it all the
    # way to terminal.
    njs.restart()
    assert njs.list_jobs_delta(dn, -1, 0).epoch == epoch_before + 1
    njs.runs.verify_index()
    final = session.wait(handle)
    assert final.is_terminal
    njs.runs.verify_index()
    assert njs.runs.active_count(session.session.user_dn) == 0

    # Dispose drops the run from the table and the index together.
    session.outcome(handle)
    njs.dispose(handle.job_id)
    njs.runs.verify_index()
    assert handle.job_id not in njs.runs
