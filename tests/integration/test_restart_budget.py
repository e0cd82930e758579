"""A deterministic cost proxy for a cold start: what recovery reads.

Wall time moves from run to run; the rows a restart reads do not.  The
journal holds the jobs in flight and the outcome table one row per
finished job, so a cold start must cost: two key scans (journal table,
outcome table), one scan of the outcome rows, and one read per consign
row, per delivery row and per AJO blob of a job *in flight* — and the
journal-table part of that must not change when the finished history
doubles.  These tests meter the backend's read primitives and
``decode_ajo`` around ``crash_site`` / ``restart_site`` and hold
recovery to that budget.
"""

import types

import pytest

from repro import asn1
from repro.api import GridSession
from repro.grid import build_grid
from repro.server.njs import supervisor

IN_FLIGHT = 3
USER_DN = "CN=Historian, O=Test, C=DE"


class _ReadMeter:
    """Wraps a backend's read primitives and records what each returned."""

    def __init__(self, backend, monkeypatch):
        self.key_scans: list[str] = []
        self.row_scans: list[str] = []
        self.gets: list[tuple[str, int]] = []
        keys, dump, get = (
            backend._table_keys, backend._table_dump, backend._table_get
        )

        def table_keys(table):
            self.key_scans.append(table)
            return keys(table)

        def table_dump(table):
            self.row_scans.append(table)
            return dump(table)

        def table_get(table, key):
            data = get(table, key)
            self.gets.append((table, len(data or b"")))
            return data

        monkeypatch.setattr(backend, "_table_keys", table_keys)
        monkeypatch.setattr(backend, "_table_dump", table_dump)
        monkeypatch.setattr(backend, "_table_get", table_get)

    def journal_reads(self):
        return [size for table, size in self.gets if table == "FZJ.journal"]


def _count_decodes(monkeypatch):
    """Counts ``decode_ajo`` at the places the NJS calls it from: consign,
    for every arrival (a replay's too), and a restored job asked for its
    tree."""
    calls = []
    decode = supervisor.decode_ajo

    def counting(data):
        calls.append(len(data))
        return decode(data)

    monkeypatch.setattr(supervisor, "decode_ajo", counting)
    monkeypatch.setattr("repro.server.njs.finished.decode_ajo", counting)
    return calls


def _site_with_history(storage, finished):
    grid = build_grid({"FZJ": ["FZJ-T3E"]}, seed=15, storage=storage)
    user = grid.add_user(
        "Historian", organization="Test", logins={"FZJ": "hist"}
    )
    session = GridSession(grid, user, "FZJ")
    done = []
    for i in range(finished):
        job = session.new_job(f"hist{i}")
        job.script_task("only", "#!/bin/sh\nq\n", simulated_runtime_s=50.0)
        done.append(session.submit(job))
    for handle in done:
        assert session.wait(handle).status == "successful"
    live = []
    for i in range(IN_FLIGHT):
        job = session.new_job(f"live{i}")
        a = job.script_task("stage-a", "#!/bin/sh\na\n", simulated_runtime_s=400.0)
        b = job.script_task("stage-b", "#!/bin/sh\nb\n", simulated_runtime_s=400.0)
        job.depends(a, b, files=["a.out"])
        live.append(session.submit(job))
    session.advance(600.0)  # stage-a done, stage-b delivered and running
    return grid, session, done, live


def _cold_restart(storage, finished, monkeypatch):
    """Crash and cold-start a site; what the restart read, and the site."""
    grid, session, done, live = _site_with_history(storage, finished)
    site = grid.usites["FZJ"]
    delivery_rows = sum(len(e.delivered) for e in site.njs.journal.incomplete())
    assert len(site.njs.journal) == IN_FLIGHT and delivery_rows >= IN_FLIGHT
    with monkeypatch.context() as patch:
        meter = _ReadMeter(grid.storage, patch)
        decodes = _count_decodes(patch)
        reads_before = grid.storage.reads
        site.crash_site()
        site.restart_site()
        reads = grid.storage.reads - reads_before
    return types.SimpleNamespace(
        grid=grid, session=session, done=done, live=live, meter=meter,
        decodes=decodes, reads=reads, delivery_rows=delivery_rows,
    )


@pytest.mark.parametrize("storage", ["memory", "sqlite"])
def test_cold_start_reads_the_jobs_in_flight_not_the_history(storage, monkeypatch):
    run, longer = (_cold_restart(storage, n, monkeypatch) for n in (40, 80))
    session, done, live, meter = run.session, run.done, run.live, run.meter
    delivery_rows = run.delivery_rows
    njs = run.grid.usites["FZJ"].njs

    # (a) Only the replayed jobs' AJOs were decoded.
    assert len(run.decodes) == len(longer.decodes) == IN_FLIGHT
    # (b) Two key scans, one scan of the outcome rows, and the rows and
    # AJO blobs of the jobs in flight; nothing per finished job.
    njs_tables = ("FZJ.journal", "FZJ.outcomes")
    assert sorted(t for t in meter.key_scans if t in njs_tables) == list(njs_tables)
    assert [t for t in meter.row_scans if t in njs_tables] == ["FZJ.outcomes"]
    assert len(meter.journal_reads()) == IN_FLIGHT + delivery_rows
    assert not [t for t, _ in meter.gets if t == "FZJ.outcomes"]
    # ... and the whole site's read count is the same constant at 80.
    # (The other two: the UUDB's table scan and the Vsite's resource page.)
    assert run.reads == longer.reads == 1 + 2 * IN_FLIGHT + delivery_rows + 2
    # (c) The journal table gave up the same bytes for either history.
    assert meter.journal_reads() == longer.meter.journal_reads()
    assert delivery_rows == longer.delivery_rows
    # (d) The journal holds the jobs in flight; they finish under their ids.
    assert len(njs.journal) == IN_FLIGHT
    assert [e.job_id for e in njs.journal.incomplete()] == [h.job_id for h in live]
    for handle in live:
        assert session.wait(handle).status == "successful"
    assert len(njs.journal) == 0
    rows = {row.job_id: row for row in session.list_jobs()}
    assert set(rows) == {h.job_id for h in done + live}
    assert all(rows[h.job_id].recovered for h in live)
    assert not any(rows[h.job_id].recovered for h in done)


@pytest.mark.parametrize("storage", ["memory", "sqlite"])
def test_restored_job_reads_its_ajo_once_when_asked(storage, monkeypatch):
    run = _cold_restart(storage, 5, monkeypatch)
    grid, session, done = run.grid, run.session, run.done
    njs = grid.usites["FZJ"].njs
    meter = _ReadMeter(grid.storage, monkeypatch)
    decodes = _count_decodes(monkeypatch)
    handle = done[2]

    # (e) Listings and outcomes never touch the journal table ...
    assert handle.job_id in {row.job_id for row in njs.runs.listings(USER_DN)}
    assert njs.retrieve_outcome(handle.job_id)
    assert meter.journal_reads() == [] and decodes == []
    # ... the first status tree reads and decodes the consign row, once.
    first = njs.query_status(handle.job_id)
    assert first.status == "successful" and first.name == "hist2"
    assert [c.name for c in first.children] == ["only"]
    assert len(meter.journal_reads()) == 1 and len(decodes) == 1
    assert njs.query_status(handle.job_id).children == first.children
    assert len(meter.journal_reads()) == 1 and len(decodes) == 1

    # Disposal deletes both rows and leaves the other jobs alone.
    session.dispose(handle)
    assert handle.job_id not in grid.storage.table("FZJ.journal").keys()
    assert handle.job_id not in njs.outcomes
    assert len(njs.outcomes) == 4 and len(njs.journal) == IN_FLIGHT
    assert handle.job_id not in {row.job_id for row in session.list_jobs()}


@pytest.mark.parametrize("storage", ["memory", "sqlite"])
def test_polls_of_a_restored_job_encode_its_replies_once(storage, monkeypatch):
    """A restored run renders its replies at every detail on the first
    status request and keeps them: 50 polls encode those three at most."""
    run = _cold_restart(storage, 5, monkeypatch)
    for handle in run.live:  # nothing else at the site encodes meanwhile
        assert run.session.wait(handle).status == "successful"
    encodes = []
    encode = asn1.encode
    monkeypatch.setattr(asn1, "encode", lambda value: encodes.append(1) or encode(value))
    for _ in range(50):
        view = run.session.status(run.done[2], allow_stale=False)
        assert (view.name, view.status) == ("hist2", "successful")
    assert len(encodes) <= 3
