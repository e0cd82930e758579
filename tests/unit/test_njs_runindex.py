"""Unit + property tests for the NJS job book (:class:`RunIndex`).

The supervisor's bookkeeping is one per-user map holding each job's
latest listing once, versioned by ``(epoch, seq)``
(:mod:`repro.server.njs.runindex`).  These tests pin the invariants that
make it safe to serve every LIST from it:

1. the index always agrees with a scan of the run table that builds
   each listing fresh from ``run.status()``, across every state
   transition and across crash recovery;
2. a client that replays delta views from seq 0 reconstructs exactly
   the full listing the server would have sent;
3. a job costs one entry however many changes it went through, and a
   disposed job's entry becomes its one removal tombstone.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.grid import build_grid
from repro.observability import telemetry_for
from repro.protocol.views import JobListing
from repro.server.njs.runindex import RunIndex


def _listing(job_id, status="queued"):
    return JobListing(job_id=job_id, name=job_id, status=status)


def _fresh_listing(job_id, run):
    """What a LIST row says about ``run``, built from its status tree."""
    return JobListing(
        job_id=job_id,
        name=run.name,
        status=run.status().value,
        submitted_at=run.submitted_at,
        recovered=run.recovered,
    )


def assert_matches_scan(index, runs, users=()):
    """Assert ``index`` (a :class:`RunIndex`, or a run table answering
    the same queries) holds what a scan of ``runs`` finds: each run's
    listing built fresh, the active/terminal split, per-user quotas."""
    by_user = {dn: [] for dn in users}
    for job_id, run in runs.items():
        by_user.setdefault(run.user_dn, []).append(_fresh_listing(job_id, run))
    for dn, rows in by_user.items():
        assert index.listings(dn) == sorted(rows, key=lambda row: row.job_id)
        live = [job_id for job_id, run in runs.items()
                if run.user_dn == dn and not run.status().is_terminal]
        assert index.active_count(dn) == len(live)
    active = sorted(j for j, run in runs.items() if not run.status().is_terminal)
    assert list(index.active_ids()) == active
    assert list(index.terminal_ids()) == sorted(set(runs) - set(active))


def _entries(index):
    """How many entries the index holds: one per job it has seen."""
    return sum(len(jobs) for jobs in index._book.values())


# -- RunIndex: direct bookkeeping ------------------------------------------

def test_index_add_note_discard_lifecycle():
    index = RunIndex()
    assert index.note(_listing("j1@A"), "CN=alice", terminal=False)
    assert index.note(_listing("j2@A"), "CN=alice", terminal=False)
    assert index.note(_listing("j3@A", "successful"), "CN=bob", terminal=True)

    assert index.seq == 3
    assert index.active_count("CN=alice") == 2
    assert index.active_count("CN=bob") == 0
    assert [row.job_id for row in index.listings("CN=alice")] == ["j1@A", "j2@A"]
    assert index.active_ids() == ["j1@A", "j2@A"]
    assert index.terminal_ids() == ("j3@A",)

    # Intermediate transition: status changes but stays non-terminal.
    assert index.note(_listing("j1@A", "executing"), "CN=alice", terminal=False)
    assert index.listings("CN=alice")[0].status == "executing"
    assert index.active_count("CN=alice") == 2

    # A repeated value is a no-op: no new seq, and it reports so.
    assert not index.note(_listing("j1@A", "executing"), "CN=alice", terminal=False)
    assert index.seq == 4

    # Terminal transition moves the id across the partition.
    assert index.note(_listing("j1@A", "successful"), "CN=alice", terminal=True)
    assert index.active_ids() == ["j2@A"]
    assert "j1@A" in index.terminal_ids()
    assert index.active_count("CN=alice") == 1

    index.remove("j1@A", "CN=alice")
    assert [row.job_id for row in index.listings("CN=alice")] == ["j2@A"]
    assert index.terminal_ids() == ("j3@A",)

    # Removing an active job releases the quota slot too.
    index.remove("j2@A", "CN=alice")
    assert index.active_count("CN=alice") == 0
    assert index.listings("CN=alice") == []
    # Every job still holds exactly one entry: removals are tombstones.
    assert _entries(index) == 3


class _FakeStatus:
    def __init__(self, value, terminal):
        self.value = value
        self.is_terminal = terminal


class _FakeRun:
    submitted_at = 0.0
    recovered = False

    def __init__(self, job_id, user_dn, value, terminal):
        self.name = job_id
        self.user_dn = user_dn
        self._status = _FakeStatus(value, terminal)

    def status(self):
        return self._status


def _note(index, job_id, run):
    status = run.status()
    return index.note(_fresh_listing(job_id, run), run.user_dn, status.is_terminal)


def test_index_rebuild_matches_ground_truth():
    runs = {
        "a@X": _FakeRun("a@X", "CN=u1", "queued", False),
        "b@X": _FakeRun("b@X", "CN=u1", "successful", True),
        "c@X": _FakeRun("c@X", "CN=u2", "executing", False),
    }
    index = RunIndex()
    for job_id, run in runs.items():
        _note(index, job_id, run)
    assert_matches_scan(index, runs)
    assert index.active_count("CN=u1") == 1
    assert index.terminal_ids() == ("b@X",)

    # The scan must actually catch drift, not rubber-stamp: a status
    # change the index never heard of ...
    runs["a@X"]._status = _FakeStatus("executing", False)
    with pytest.raises(AssertionError):
        assert_matches_scan(index, runs)
    # ... and a run the index still lists after it left the table.
    _note(index, "a@X", runs["a@X"])
    del runs["c@X"]
    with pytest.raises(AssertionError):
        assert_matches_scan(index, runs)


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
    """Any interleaving of enter/transition/remove leaves the index
    agreeing with a scan of the surviving run table, holding one entry
    per job ever seen."""
    index = RunIndex()
    runs: dict[str, _FakeRun] = {}
    seen: set[str] = set()
    for job_no, user_no, action in ops:
        job_id, user_dn = f"j{job_no}@S", f"CN=u{user_no}"
        if action == "discard":
            if job_id in runs:
                index.remove(job_id, runs.pop(job_id).user_dn)
            continue
        terminal = action in _TERMINAL
        if job_id not in runs:
            if job_id in seen:
                continue  # a job id is never consigned twice
            runs[job_id] = _FakeRun(job_id, user_dn, action, terminal)
            seen.add(job_id)
            assert _note(index, job_id, runs[job_id])
        else:
            run = runs[job_id]
            if run._status.is_terminal:
                # Real runs never leave a terminal state.
                continue
            # Status notes come from the run's owner, not the random user.
            changed = run._status.value != action
            run._status = _FakeStatus(action, terminal)
            assert _note(index, job_id, run) == changed
    assert_matches_scan(index, runs, users=("CN=u0", "CN=u1", "CN=u2"))
    assert _entries(index) == len(seen)


# -- versioned delta views -------------------------------------------------

def test_changelog_delta_supersedes_and_tombstones():
    index = RunIndex()
    index.note(_listing("a@X", "queued"), "CN=u", terminal=False)
    index.note(_listing("a@X", "executing"), "CN=u", terminal=False)
    index.note(_listing("b@X", "queued"), "CN=u", terminal=False)
    cursor = index.seq
    index.note(_listing("b@X", "successful"), "CN=u", terminal=True)
    index.remove("a@X", "CN=u")
    epoch = index.epoch

    # From zero: one row per surviving job, removal tombstone for a@X.
    delta = index.delta("CN=u", 0, epoch)
    assert not delta.full
    assert [row.job_id for row in delta.listings] == ["b@X"]
    assert [row.status for row in delta.listings] == ["successful"]
    assert delta.removed == ("a@X",)
    assert delta.seq == index.seq

    # From a mid-history cursor: only what changed after it.
    delta = index.delta("CN=u", cursor, epoch)
    assert [row.job_id for row in delta.listings] == ["b@X"]
    assert delta.removed == ("a@X",)
    # Nothing after the head cursor.
    head = index.delta("CN=u", index.seq, epoch)
    assert head.listings == () and head.removed == ()

    # Users are isolated.
    assert index.delta("CN=other", 0, epoch).listings == ()

    # No cursor, or one from another epoch: the full listing.
    for since, other in ((-1, epoch), (cursor, epoch + 1)):
        full = index.delta("CN=u", since, other)
        assert full.full and full.epoch == epoch and full.seq == index.seq
        assert full.listings == tuple(index.listings("CN=u"))
        assert full.removed == ()

    fresh = index.next_epoch()
    assert fresh.epoch == index.epoch + 1
    assert fresh.seq == 0
    assert fresh.listings("CN=u") == []


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
    index = RunIndex()
    truth: dict[str, dict[str, JobListing]] = {"CN=u0": {}, "CN=u1": {}}
    owner: dict[str, str] = {}
    mid_seq: dict[str, int] = {}
    for i, (job_no, action, user_no) in enumerate(ops):
        job_id = f"j{job_no}@S"
        user_dn = owner.setdefault(job_id, f"CN=u{user_no}")
        if action == "remove":
            index.remove(job_id, user_dn)
            truth[user_dn].pop(job_id, None)
        else:
            listing = _listing(job_id, action)
            index.note(listing, user_dn, terminal=action in _TERMINAL)
            truth[user_dn][job_id] = listing
        if i + 1 == cut:
            mid_seq = {dn: index.seq for dn in truth}

    for user_dn, expect in truth.items():
        assert index.listings(user_dn) == sorted(expect.values(), key=lambda r: r.job_id)

        # Single-shot replay from zero.
        replayed: dict[str, JobListing] = {}
        delta = index.delta(user_dn, 0, index.epoch)
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
            delta = index.delta(user_dn, since, index.epoch)
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
    """After every phase each run's stored listing is the one built
    fresh from its status tree: a full LIST never walks a tree."""
    from repro.api import GridSession

    grid, user = _one_job_site()
    session = GridSession(grid, user, "FZJ")
    njs = grid.usites["FZJ"].njs
    dn = session.session.user_dn

    def check():
        assert_matches_scan(njs.runs, njs.runs, users=(dn,))

    job = session.new_job("indexed")
    job.script_task("work", "#!/bin/sh\nwork\n", simulated_runtime_s=400.0)
    handle = session.submit(job)
    check()
    assert njs.runs.active_count(dn) == 1

    session.advance(30.0)
    check()

    # Crash mid-run: the fresh index agrees with the wiped table, the
    # rebuild counter ticks, and the index starts a new epoch.
    metrics = telemetry_for(grid.sim).metrics
    rebuilds_before = metrics.counter_value("njs.index.rebuilds")
    epoch_before = njs.list_jobs_delta(dn, -1, 0).epoch
    njs.crash()
    check()
    assert metrics.counter_value("njs.index.rebuilds") == rebuilds_before + 1

    # Journal replay re-supervises the job, flagged recovered from the
    # moment it re-enters; the index follows it all the way to terminal.
    njs.restart()
    assert njs.list_jobs_delta(dn, -1, 0).epoch == epoch_before + 1
    check()
    assert [row.recovered for row in njs.runs.listings(dn)] == [True]
    final = session.wait(handle)
    assert final.is_terminal
    check()
    assert njs.runs.active_count(dn) == 0

    # Dispose drops the run from the table and the index together.
    session.outcome(handle)
    njs.dispose(handle.job_id)
    check()
    assert handle.job_id not in njs.runs


def test_a_job_costs_one_entry_however_long_its_history():
    """Fifty one-task jobs and ten three-stage DAGs, each changing status
    several times, leave one entry each; disposing a job turns its entry
    into a tombstone rather than adding one."""
    from repro.api import GridSession

    grid, user = _one_job_site()
    session = GridSession(grid, user, "FZJ")
    njs = grid.usites["FZJ"].njs
    handles = []
    for i in range(50):
        job = session.new_job(f"quick-{i}")
        job.script_task("work", "#!/bin/sh\nwork\n", simulated_runtime_s=5.0)
        handles.append(session.submit(job))
    for i in range(10):
        job = session.new_job(f"dag-{i}")
        stages = [
            job.script_task(f"stage-{s}", f"#!/bin/sh\n{s}\n", simulated_runtime_s=5.0)
            for s in "abc"
        ]
        job.depends(stages[0], stages[1])
        job.depends(stages[1], stages[2])
        handles.append(session.submit(job))
    for handle in handles:
        assert session.wait(handle).status == "successful"
    index = njs.runs._index
    assert index.seq > 3 * len(handles)  # many visible changes ...
    assert _entries(index) == 60  # ... one entry per job

    for handle in handles[:25]:
        njs.dispose(handle.job_id)
    assert _entries(index) == 60
    assert len(njs.runs.listings(session.session.user_dn)) == 35
