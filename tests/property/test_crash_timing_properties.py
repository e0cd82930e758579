"""Property: a cold crash after *any* storage write leaves a sound journal.

A six-job run — four single-task jobs (one importing a workstation
file, one disposed once it has finished), a three-stage DAG and a job
that forwards a group to a second site — is consigned straight into
the NJS.  Hypothesis picks a write count ``k`` and a site; right after
the backend's ``k``-th write that whole site loses power, and comes back
a minute later.  Whatever ``k`` was, at the restart and again at the end:

* every consigned, undisposed job id is in exactly one of
  ``journal.incomplete()`` and the outcome table, and the journal table
  holds exactly those consign rows;
* no delivery row names a finished job;
* every blob's reference count equals the number of manifests naming it;

and by the end every job was finished exactly once.

One known gap sits outside the journal and is excused by name: a
``ForwardGroup`` that arrives while the *child* site is down is dropped
unacknowledged, so the forwarding job waits for a result that never
comes.  The storage invariants hold for it all the same.
"""

import collections
import functools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ajo.actions import reset_action_ids
from repro.api import GridSession
from repro.grid import build_grid
from repro.observability import telemetry_for
from repro.resources import ResourceRequest

SITES = {"FZJ": ["FZJ-T3E"], "ZIB": ["ZIB-SP2"]}
OUTAGE_S = 60.0
RETRY_S = 100.0
HORIZON_S = 20_000.0


def _builders(session):
    quick = []
    for i in range(4):
        job = session.new_job(f"quick{i}", vsite="FZJ-T3E")
        task = job.script_task("only", "#!/bin/sh\nq\n", simulated_runtime_s=50.0)
        if i == 1:
            imp = job.import_from_workstation("/home/prop/in.dat", "in.dat")
            job.depends(imp, task, files=["in.dat"])
        quick.append(job)
    dag = session.new_job("dag", vsite="FZJ-T3E")
    stages = [
        dag.script_task(f"stage-{s}", "#!/bin/sh\ns\n", simulated_runtime_s=200.0)
        for s in "abc"
    ]
    dag.depends(stages[0], stages[1], files=["a.out"])
    dag.depends(stages[1], stages[2], files=["b.out"])
    spanning = session.new_job("spanning", vsite="FZJ-T3E")
    pre = spanning.script_task(
        "pre", "#!/bin/sh\np\n", simulated_runtime_s=150.0,
        resources=ResourceRequest(cpus=8, time_s=3600),
    )
    remote = spanning.sub_job("remote@ZIB", vsite="ZIB-SP2", usite="ZIB")
    remote.script_task(
        "render", "#!/bin/sh\nr\n", simulated_runtime_s=150.0,
        resources=ResourceRequest(cpus=8, time_s=3600),
    )
    spanning.depends(pre, remote.ajo, files=["field.dat"])
    return [*quick, dag, spanning]


class _Scenario:
    """One run of the six jobs, optionally losing ``victim`` at write ``k``."""

    def __init__(self, storage, k=None, victim="FZJ"):
        reset_action_ids()
        self.grid = build_grid(SITES, seed=33, storage=storage)
        self.sim = self.grid.sim
        self.backend = self.grid.storage
        user = self.grid.add_user(
            "Crash Prop", organization="Test",
            logins={site: "prop" for site in SITES},
        )
        user.workstation.fs.write("/home/prop/in.dat", b"payload " * 512)
        self.workstation = user.workstation
        self.builders = _builders(GridSession(self.grid, user, "FZJ"))
        self.njs = self.grid.usites["FZJ"].njs
        self.victim = self.grid.usites[victim]
        self.k = k
        self.writes = 0
        self.restarts = 0
        self.job_ids = {}  # builder index -> job id at FZJ
        self.consigned = {site: [] for site in SITES}
        self.disposed = set()
        self.finishes = collections.Counter()
        for site, usite in self.grid.usites.items():
            self._watch(site, usite.njs)
        count_write = self.backend._count_write
        self.backend._count_write = functools.partial(self._on_write, count_write)

    def _watch(self, site, njs):
        record_consign, put = njs.journal.record_consign, njs.outcomes.put

        def consigning(job_id, *args, **kw):
            self.consigned[site].append(job_id)
            return record_consign(job_id, *args, **kw)

        def finishing(record, files):
            self.finishes[record.job_id] += 1
            return put(record, files)

        njs.journal.record_consign = consigning
        njs.outcomes.put = finishing

    def _on_write(self, count_write, nbytes):
        count_write(nbytes)
        self.writes += 1
        if self.writes == self.k:
            # The write's batch is atomic; the lights go out right after.
            self.sim.schedule_callback(0.0, self._crash)

    def _crash(self):
        self.victim.crash_site()
        self.sim.schedule_callback(OUTAGE_S, self._restart)

    def _restart(self):
        self.victim.restart_site()
        self.restarts += 1
        self.check_storage()

    # -- the workload, riding out the outage --------------------------------
    def _consign(self, index):
        if self.njs.crashed:
            self.sim.schedule_callback(RETRY_S, self._consign, index)
            return
        builder = self.builders[index]
        files = self.workstation.stage_for_ajo(builder.workstation_files_needed())
        run = self.njs.consign(builder.ajo, workstation_files=files)
        self.job_ids[index] = run.job_id

    def _dispose_first(self):
        first = self.job_ids.get(0)
        run = None if self.njs.crashed else self.njs.runs.get(first)
        if run is None or not run.status().is_terminal:
            self.sim.schedule_callback(RETRY_S, self._dispose_first)
            return
        self.njs.dispose(first)
        self.disposed.add(first)

    def run(self):
        for index in range(len(self.builders)):
            self.sim.schedule_callback(40.0 * index, self._consign, index)
        self.sim.schedule_callback(300.0, self._dispose_first)
        self.sim.run(until=HORIZON_S)
        return self

    # -- the invariants ------------------------------------------------------
    def check_storage(self):
        manifests = collections.Counter()
        for site, usite in self.grid.usites.items():
            njs = usite.njs
            expected = set(self.consigned[site]) - self.disposed
            incomplete = {e.job_id for e in njs.journal.incomplete()}
            finished = set(njs.outcomes.job_ids())
            assert len(njs.journal) == len(incomplete)
            assert incomplete.isdisjoint(finished)
            assert incomplete | finished == expected
            rows = dict(self.backend.table(f"{site}.journal").items())
            consign_rows = {key for key in rows if "/" not in key}
            assert consign_rows == expected
            for key in rows.keys() - consign_rows:
                assert key.partition("/")[0] in incomplete
            for key in consign_rows:
                manifests.update(rows[key]["workstation_files"].values())
            for record in njs.outcomes.records(str):
                manifests.update(record.files.values())
        refs = {d: b["refs"] for d, b in self.backend.dump()["blobs"].items()}
        assert refs == dict(manifests)

    def check_end(self):
        self.check_storage()
        assert sorted(self.job_ids.values()) == self.consigned["FZJ"]
        assert len(self.job_ids) == len(self.builders)
        assert self.disposed == {self.job_ids[0]}
        dropped = telemetry_for(self.sim).metrics.counter(
            "njs.dropped_peer_messages"
        ).value
        excused = (
            {self.job_ids[len(self.builders) - 1]}
            if dropped and self.victim is self.grid.usites["ZIB"] else set()
        )
        for site, usite in self.grid.usites.items():
            in_flight = {e.job_id for e in usite.njs.journal.incomplete()}
            assert in_flight <= excused
            for job_id in set(self.consigned[site]) - in_flight:
                assert self.finishes[job_id] == 1
                if job_id not in self.disposed:
                    assert usite.njs.get_run(job_id).status().is_terminal


@functools.lru_cache(maxsize=None)
def _writes_of_a_quiet_run(storage):
    scenario = _Scenario(storage).run()
    scenario.check_end()
    assert scenario.consigned["ZIB"], "the spanning job forwarded nothing"
    return scenario.writes


@given(st.data())
@settings(max_examples=25, deadline=None)
def test_cold_crash_after_any_write_leaves_a_sound_journal(data):
    storage = data.draw(st.sampled_from(["memory", "sqlite"]))
    victim = data.draw(st.sampled_from(sorted(SITES)))
    k = data.draw(st.integers(1, _writes_of_a_quiet_run(storage)))
    scenario = _Scenario(storage, k=k, victim=victim).run()
    assert scenario.restarts == 1
    scenario.check_end()
