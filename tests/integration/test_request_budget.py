"""Deterministic cost proxies for the request path: queue entries,
processes, and encodings per request.

Wall time moves from run to run; these counts do not.  An https message
is one simulator queue entry (it was a process with four) and its
delivery calls the server it is for, a
certificate's to-be-signed bytes are encoded when the certificate is
built and never while a request is served, a consigned AJO is
encoded by the client and decoded once by the site that takes it, and
a status or list request touches JSON only for its service envelope:
the reply is one ``repro.asn1`` value.  A job's outcome is encoded once
per site, when the job finishes, and a finished job is served from what
was persisted then: a request about it decodes and reads nothing, and
no live run of it is left behind.
These tests meter the simulator and ``json`` under the public session
API and hold a request to that budget.
"""

import gc
import json
import types

import pytest

import repro.server.gateway as gateway_module
import repro.server.njs.jobrun as jobrun_module
from repro import asn1
from repro.ajo import encode_ajo
from repro.api import GridSession
from repro.grid import build_grid
from repro.security.x509 import Certificate
from repro.server.njs import JobRun
from repro.server.njs.finished import FinishedRun
from repro.simkernel import Simulator


class _JsonMeter:
    """Stands in for ``json.dumps`` / ``json.loads`` and counts every
    call, and the certificate and AJO encodings among them."""

    def __init__(self) -> None:
        self.dumps_calls = 0
        self.loads_calls = 0
        self.tbs_encodes = 0
        self.ajo_encodes = 0
        self.ajo_decodes = 0
        self.outcome_encodes = 0
        self.outcome_decodes = 0
        self._dumps, self._loads = json.dumps, json.loads

    @property
    def calls(self) -> tuple[int, int]:
        return self.dumps_calls, self.loads_calls

    def dumps(self, obj, **kwargs):
        self.dumps_calls += 1
        if isinstance(obj, dict):
            self.tbs_encodes += "public_key" in obj and "serial" in obj
            self.ajo_encodes += "unicore_ajo" in obj
            self.outcome_encodes += "unicore_outcome" in obj
        return self._dumps(obj, **kwargs)

    def loads(self, data, **kwargs):
        self.loads_calls += 1
        obj = self._loads(data, **kwargs)
        if isinstance(obj, dict):
            self.ajo_decodes += "unicore_ajo" in obj
            self.outcome_decodes += "unicore_outcome" in obj
        return obj


@pytest.fixture()
def metered(monkeypatch):
    meter = _JsonMeter()
    monkeypatch.setattr(json, "dumps", meter.dumps)
    monkeypatch.setattr(json, "loads", meter.loads)
    certificates = []
    post_init = Certificate.__post_init__

    def counted(self):
        certificates.append(self)
        post_init(self)

    monkeypatch.setattr(Certificate, "__post_init__", counted)
    started = []
    process = Simulator.process

    def named(self, generator, name=None):
        started.append(name)
        return process(self, generator, name=name)

    monkeypatch.setattr(Simulator, "process", named)

    grid = build_grid({"FZJ": ["FZJ-T3E"], "ZIB": ["ZIB-SP2"]}, seed=16)
    user = grid.add_user("Asker", logins={"FZJ": "asker", "ZIB": "asker"})
    session = GridSession(grid, user, "FZJ")
    return types.SimpleNamespace(
        grid=grid, session=session, meter=meter,
        certificates=certificates, started=started,
    )


def _small_job(session, name):
    job = session.new_job(name, "FZJ-T3E")
    job.script_task("work", "#!/bin/sh\nwork\n", simulated_runtime_s=30.0)
    return job


def test_one_status_request_stays_inside_the_request_budget(metered):
    grid, session, meter = metered.grid, metered.session, metered.meter
    handle = session.submit(_small_job(session, "warm"))
    assert session.wait(handle).status == "successful"
    assert session.status(handle, allow_stale=False).status == "successful"

    events = grid.sim.processed_events
    encoded = meter.tbs_encodes
    json_calls = meter.calls
    del metered.started[:]
    view = session.status(handle, allow_stale=False)
    assert view.status == "successful"
    # JSON only for the QueryService envelope: encoded by the client,
    # decoded by the gateway.  The status tree is one repro.asn1 value.
    assert _since(meter.calls, json_calls) == (1, 1)

    # Request delivered, one timer for the auth CPU and the firewall
    # crossing in, reply delivered, the plan's end stops the run: 4 (6
    # while those were two timers and the reply woke the plan through the
    # queue, 8 while the plan's and the handler's starts were entries, 9
    # while the reply's firewall crossing was a message of its own, 13
    # while a mailbox wake-up, a relay of the reply-or-deadline race and
    # the handler's unobserved end were entries too; test_event_budget.py
    # has the table for a whole job).
    assert grid.sim.processed_events - events == 4
    # One plan on the user's side, one handler at the gateway; no
    # process per message.
    assert metered.started and all(
        name.startswith(("api:", "gw-req:")) for name in metered.started
    ), metered.started
    # Authentication checked the user's certificate — trust, window,
    # revocation, DN and mapping; its signature was verified once, at
    # the handshake — and encoded nothing: the bytes it verified were
    # fixed with the certificate.
    assert meter.tbs_encodes == encoded
    assert meter.tbs_encodes == len(metered.certificates)


def _count_status_work(monkeypatch):
    """``{"render", "encode", "decode"} -> calls`` of the status tree
    renderer, ``asn1.encode`` and ``asn1.decode`` from here on."""
    counts = {"render": 0, "encode": 0, "decode": 0}

    def counted(name, call):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return call(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(
        jobrun_module, "status_view", counted("render", jobrun_module.status_view)
    )
    monkeypatch.setattr(asn1, "encode", counted("encode", asn1.encode))
    monkeypatch.setattr(asn1, "decode", counted("decode", asn1.decode))
    return counts


def test_polls_of_an_unchanged_job_render_encode_and_decode_once(
    metered, monkeypatch,
):
    """The NJS keeps a run's encoded status reply until the run's next
    status change, and the JMC keeps the view beside the bytes it came
    from: 50 polls of a job that does not change render its tree, encode
    it and decode it once, and the first poll after a task ends does
    each once more."""
    grid, session = metered.grid, metered.session
    counts = _count_status_work(monkeypatch)
    job = session.new_job("polled", "FZJ-T3E")
    first = job.script_task("first", "#!/bin/sh\na\n", simulated_runtime_s=100.0)
    second = job.script_task("second", "#!/bin/sh\nb\n", simulated_runtime_s=100.0)
    job.depends(first, second)
    handle = session.submit(job)
    grid.sim.run(until=grid.sim.now + 10.0)
    counts.update(render=0, encode=0, decode=0)
    views = {session.status(handle, allow_stale=False) for _ in range(50)}
    # One poll's reply is the only repro.asn1 value a poll makes or reads.
    assert counts == {"render": 1, "encode": 1, "decode": 1}
    assert [(view.status, view.children[0].status) for view in views] == [
        ("queued", "queued")
    ]

    grid.sim.run(until=grid.sim.now + 100.0)  # the first task ends
    counts.update(render=0, encode=0, decode=0)
    for _ in range(2):
        view = session.status(handle, allow_stale=False)
    assert (view.children[0].status, view.children[1].status) == (
        "successful", "queued"
    )
    assert counts == {"render": 1, "encode": 1, "decode": 1}


def test_polls_of_a_finished_job_render_and_encode_nothing(metered, monkeypatch):
    """A finished run keeps the replies rendered as its job finished:
    50 polls of a just-finished job render and encode nothing at the
    NJS, and the JMC decodes the one reply once."""
    grid, session = metered.grid, metered.session
    handle = session.submit(_small_job(session, "finished"))
    grid.sim.run(until=grid.sim.now + 100.0)  # unwatched by the JMC
    assert isinstance(grid.usites["FZJ"].njs.runs[handle.job_id], FinishedRun)
    counts = _count_status_work(monkeypatch)
    views = {session.status(handle, allow_stale=False) for _ in range(50)}
    assert counts == {"render": 0, "encode": 0, "decode": 1}
    assert [view.status for view in views] == ["successful"]


def test_a_channel_verifies_its_user_certificate_once(monkeypatch):
    """The gateway's store keeps the signatures it verified: the
    handshake and the 50 requests on its channel verify the user's
    certificate's signature once, not once per request."""
    verified = []
    verify_signature = Certificate.verify_signature

    def counted(self, issuer_key):
        verified.append(str(self.subject))
        return verify_signature(self, issuer_key)

    monkeypatch.setattr(Certificate, "verify_signature", counted)
    grid = build_grid({"FZJ": ["FZJ-T3E"]}, seed=16)
    user = grid.add_user("Asker", logins={"FZJ": "asker"})
    session = GridSession(grid, user, "FZJ")
    for _ in range(50):
        assert session.list_jobs() == []
    assert verified.count(user.browser.user_dn) == 1


def test_one_list_request_touches_json_only_for_its_service_envelope(metered):
    session, meter = metered.session, metered.meter
    handle = session.submit(_small_job(session, "listed"))
    session.wait(handle)
    assert [row.job_id for row in session.list_jobs()] == [handle.job_id]

    json_calls = meter.calls
    (row,) = session.list_jobs()
    assert (row.job_id, row.status) == (handle.job_id, "successful")
    # One ListService encode at the client, one decode at the gateway;
    # the delta comes back as a repro.asn1 value.
    assert _since(meter.calls, json_calls) == (1, 1)


def _since(now: tuple[int, int], before: tuple[int, int]) -> tuple[int, int]:
    return now[0] - before[0], now[1] - before[1]


def test_a_consigned_job_is_encoded_by_the_client_and_decoded_once_per_site(
    metered, monkeypatch,
):
    grid, session, meter = metered.grid, metered.session, metered.meter
    opened = []
    open_envelope = gateway_module.decode_consignment_envelope
    monkeypatch.setattr(
        gateway_module, "decode_consignment_envelope",
        lambda payload: opened.append(len(payload)) or open_envelope(payload),
    )
    job = _small_job(session, "local")
    handle = session.submit(job)
    assert session.wait(handle).status == "successful"
    # The client encodes; the site decodes what it was sent and journals
    # those bytes as they came.  The gateway opens the envelope once, in
    # the consign handler.
    assert (meter.ajo_encodes, meter.ajo_decodes, len(opened)) == (1, 1, 1)
    journaled = grid.usites["FZJ"].njs.journal.ajo_bytes(handle.job_id)
    assert journaled == encode_ajo(job.ajo)

    # A sub-job for the second site adds the one encoding that cuts it
    # out of the tree at the first, and one decode where it lands.
    before = meter.ajo_encodes, meter.ajo_decodes
    job = _small_job(session, "two-site")
    sub = job.sub_job("remote", vsite="ZIB-SP2", usite="ZIB")
    sub.script_task("work", "#!/bin/sh\nwork\n", simulated_runtime_s=30.0)
    assert session.wait(session.submit(job)).status == "successful"
    assert (meter.ajo_encodes - before[0], meter.ajo_decodes - before[1]) == (2, 2)


def _two_site_job(session, name):
    job = _small_job(session, name)
    sub = job.sub_job("remote", vsite="ZIB-SP2", usite="ZIB")
    sub.script_task("work", "#!/bin/sh\nwork\n", simulated_runtime_s=30.0)
    return job


def test_a_finished_job_encodes_its_outcome_once_per_site(metered):
    grid, session, meter = metered.grid, metered.session, metered.meter
    handle = session.submit(_two_site_job(session, "retrieved"))
    assert session.wait(handle).status == "successful"
    for _ in range(3):
        session.outcome(handle)
    # ZIB encodes its group's outcome when the group finishes and sends
    # those bytes home; FZJ encodes the job's when it finishes and serves
    # those bytes to every RETRIEVE_OUTCOME.
    assert meter.outcome_encodes == 2


def test_a_just_finished_job_is_served_without_reading_or_decoding(metered):
    grid, session, meter = metered.grid, metered.session, metered.meter
    handle = session.submit(_small_job(session, "served"))
    assert session.wait(handle).status == "successful"
    njs = grid.usites["FZJ"].njs
    (path,) = njs.runs[handle.job_id].record.files
    reads = grid.storage.reads
    decodes = meter.ajo_decodes, meter.outcome_decodes
    assert njs.query_status(handle.job_id).status == "successful"
    assert njs.retrieve_outcome(handle.job_id)
    assert njs.fetch_uspace_file(handle.job_id, path)
    assert grid.storage.reads == reads
    assert (meter.ajo_decodes, meter.outcome_decodes) == decodes


def test_no_live_run_outlives_its_job(metered):
    """Once a job finishes, the table holds its outcome row and nothing
    else holds the run that supervised it, at either site."""
    grid, session = metered.grid, metered.session
    handle = session.submit(_two_site_job(session, "collected"))
    assert session.wait(handle).status == "successful"
    group = grid.usites["ZIB"].njs.runs.serving(handle.job_id)[-1]
    finished = {handle.job_id, group.job_id}
    gc.collect()
    live = [
        obj.job_id for obj in gc.get_objects()
        if isinstance(obj, JobRun) and obj.job_id in finished
    ]
    assert live == []
