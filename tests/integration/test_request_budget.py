"""Deterministic cost proxies for the request path: queue entries,
processes, and encodings per request.

Wall time moves from run to run; these counts do not.  An https message
is one simulator queue entry (it was a process with four) and its
delivery calls the server it is for, a
certificate's to-be-signed bytes are encoded when the certificate is
built and never while a request is served, and a consigned AJO is
encoded by the client and decoded once by the site that takes it.
These tests meter the simulator and ``json`` under the public session
API and hold a request to that budget.
"""

import json
import types

import pytest

import repro.server.gateway as gateway_module
from repro.ajo import encode_ajo
from repro.api import GridSession
from repro.grid import build_grid
from repro.security.x509 import Certificate
from repro.simkernel import Simulator


class _JsonMeter:
    """Stands in for ``json.dumps`` / ``json.loads`` and counts the
    certificate and AJO encodings that pass through."""

    def __init__(self) -> None:
        self.tbs_encodes = 0
        self.ajo_encodes = 0
        self.ajo_decodes = 0
        self._dumps, self._loads = json.dumps, json.loads

    def dumps(self, obj, **kwargs):
        if isinstance(obj, dict):
            self.tbs_encodes += "public_key" in obj and "serial" in obj
            self.ajo_encodes += "unicore_ajo" in obj
        return self._dumps(obj, **kwargs)

    def loads(self, data, **kwargs):
        obj = self._loads(data, **kwargs)
        self.ajo_decodes += isinstance(obj, dict) and "unicore_ajo" in obj
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
    del metered.started[:]
    view = session.status(handle, allow_stale=False)
    assert view.status == "successful"

    # The plan starts, request delivered, handler starts, auth timer,
    # firewall hop in and out, reply delivered, reply wakes the plan, the
    # plan's end stops the run: 9 (13 while a mailbox wake-up, a relay of
    # the reply-or-deadline race and the handler's unobserved end were
    # entries too; test_event_budget.py has the table for a whole job).
    assert grid.sim.processed_events - events <= 9
    # One plan on the user's side, one handler at the gateway; no
    # process per message.
    assert metered.started and all(
        name.startswith(("api:", "gw-req:")) for name in metered.started
    ), metered.started
    # Authentication validated the user's certificate in full and
    # encoded nothing: the bytes it verifies were fixed with the
    # certificate.
    assert meter.tbs_encodes == encoded
    assert meter.tbs_encodes == len(metered.certificates)


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
    # those bytes as they came.  The gateway opens the envelope once, for
    # the firewall hop's byte count and the consign handler both.
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
