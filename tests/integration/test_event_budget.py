"""A deterministic cost proxy for a whole job: simulator queue entries.

The run loop is paid per entry, and an entry is worth its price only if
it wakes somebody: a message arriving, a timer running out, a process
starting or being resumed.  What nobody observes (a process ending
unjoined, a ``done`` nobody awaits), a mailbox wake-up between a delivery
and the function it is for, an ``AnyOf`` relaying the winner of a race and
the start and end of a process that is one timer are not occurrences, and
do not enter the queue.  These tests name the cause of every entry a job
costs between the user's ``submit`` and the end of ``wait``, and hold the
job to that table.  The caller's own ``api:*`` plans (a start, and the end
``run(until=)`` observes, for each) are its business and counted apart.
"""

import collections
import types

import pytest

from repro.api import GridSession
from repro.grid import build_grid
from repro.net.https import DEFAULT_PER_RECORD_CPU_S
from repro.protocol.messages import Reply, Request
from repro.server.gateway import AUTH_CPU_S
from repro.server.njs.executor import INCARNATION_CPU_S
from repro.simkernel import CallbackSlot, Simulator

#: One request through a gateway, whatever its verb.
REQUEST = {
    "request delivered to the gateway host": 1,
    "gw-req:N starts": 1,
    "auth CPU": 1,
    "firewall hop in": 1,
    "firewall hop out": 1,
    "reply delivered to the client host": 1,
    "reply:N wakes the caller": 1,
}

#: A script task at the site that runs it.
SCRIPT_TASK = {
    "child:* starts": 1,
    "incarnation CPU": 1,
    "batch run ends": 1,
    "completion:* wakes the child": 1,
    "done:* wakes the job": 1,
}

#: Consign, then one subscribed QUERY that is parked until the job is done.
ONE_SITE = collections.Counter(REQUEST) + collections.Counter(REQUEST) + (
    collections.Counter(SCRIPT_TASK)
    + collections.Counter({"job:* starts": 1, "watch:* wakes the parked query": 1})
)

#: The same with a sub-group for a second site: the group goes out as one
#: message over three hops (NJS, gateway, gateway, NJS) and its result
#: comes back the same way, sealed and opened (peer CPU) at the two ends.
TWO_SITE = ONE_SITE + collections.Counter(SCRIPT_TASK) + collections.Counter({
    "job:* starts": 1,  # the forwarded group is a job where it lands
    "child:* starts": 1,  # the sub-group's action at the forwarding site...
    "done:* wakes the job": 1,  # ...which ends like any other child
    "take_in starts": 1,
    "peer hop delivered": 6,  # ForwardGroup out, GroupResult back
    "peer record CPU": 4,
    "job-done:* wakes take_in": 1,
    "group-result:N wakes the forwarding child": 1,
})


def _cause(item) -> str:
    """Name what a queue entry is for; an unknown one keeps its own name
    and so fails the comparison with the table by that name."""
    if type(item) is CallbackSlot:
        return {"_run_ended": "batch run ends"}.get(
            item.fn.__name__, f"slot {item.fn.__qualname__}"
        )
    name = item.name or type(item).__name__
    if name.startswith("delivery:"):
        message = item.value
        payload = message.payload
        if isinstance(payload, Request):
            return "request delivered to the gateway host"
        if isinstance(payload, Reply):
            return "reply delivered to the client host"
        if message.channel == "firewall":
            return "firewall hop " + ("in" if payload[0] == "fw" else "out")
        return "peer hop delivered"
    timers = {
        f"Timeout({AUTH_CPU_S})": "auth CPU",
        f"Timeout({INCARNATION_CPU_S})": "incarnation CPU",
        f"Timeout({DEFAULT_PER_RECORD_CPU_S})": "peer record CPU",
    }
    if name in timers:
        return timers[name]
    for prefix, cause in (
        ("init:api:", "api:* starts"),
        ("api:", "api:* ends, observed by run(until=)"),
        ("init:gw-req:", "gw-req:N starts"),
        ("init:job:", "job:* starts"),
        ("init:child:", "child:* starts"),
        ("init:take_in", "take_in starts"),
        ("reply:", "reply:N wakes the caller"),
        ("watch:", "watch:* wakes the parked query"),
        ("completion:", "completion:* wakes the child"),
        ("done:", "done:* wakes the job"),
        ("job-done:", "job-done:* wakes take_in"),
        ("group-result:", "group-result:N wakes the forwarding child"),
    ):
        if name.startswith(prefix):
            return cause
    return name


@pytest.fixture()
def metered(monkeypatch):
    entries = []
    step = Simulator.step

    def named_step(self):
        item = self._queue[0][2]
        if not getattr(item, "cancelled", False):
            entries.append(_cause(item))
        step(self)

    monkeypatch.setattr(Simulator, "step", named_step)
    started = []
    process = Simulator.process

    def named_process(self, generator, name=None):
        started.append(name or generator.__name__)
        return process(self, generator, name=name)

    monkeypatch.setattr(Simulator, "process", named_process)

    grid = build_grid({"FZJ": ["FZJ-T3E"], "ZIB": ["ZIB-SP2"]}, seed=16)
    user = grid.add_user("Counter", logins={"FZJ": "counter", "ZIB": "counter"})
    session = GridSession(grid, user, "FZJ")

    def run(two_site):
        job = session.new_job("two" if two_site else "one", "FZJ-T3E")
        job.script_task("work", "#!/bin/sh\nwork\n", simulated_runtime_s=30.0)
        if two_site:
            sub = job.sub_job("remote", vsite="ZIB-SP2", usite="ZIB")
            sub.script_task("work", "#!/bin/sh\nwork\n", simulated_runtime_s=30.0)
        del entries[:]
        events = grid.sim.processed_events
        assert session.wait(session.submit(job)).status == "successful"
        assert len(entries) == grid.sim.processed_events - events
        costs = collections.Counter(entries)
        own = sum(costs.pop(c) for c in list(costs) if c.startswith("api:"))
        return costs, own

    return types.SimpleNamespace(grid=grid, run=run, started=started)


def _assert_nothing_left_due(sim):
    """Every race the job ran is over and its loser cancelled: nothing is
    live on the heap, and two days on nothing has run."""
    assert sim.profile()["heap_size"] == 0
    events = sim.processed_events
    sim.run(until=sim.now + 48 * 3600.0)
    assert sim.processed_events == events


def test_a_one_site_job_costs_the_entries_its_table_names(metered):
    metered.run(two_site=False)  # the first job pays for first contacts
    costs, own = metered.run(two_site=False)
    assert costs == ONE_SITE, costs - ONE_SITE
    assert sum(costs.values()) <= 21  # 36 while relays were entries
    assert own == 4  # api:submit, api:wait
    _assert_nothing_left_due(metered.grid.sim)


def test_a_two_site_job_costs_the_entries_its_table_names(metered):
    metered.run(two_site=True)  # the NJSs shake hands once
    costs, own = metered.run(two_site=True)
    assert costs == TWO_SITE, (costs - TWO_SITE, TWO_SITE - costs)
    assert sum(costs.values()) <= 43  # 42; 66 while relays were entries
    assert own == 4
    _assert_nothing_left_due(metered.grid.sim)


def test_no_process_stands_between_a_message_and_its_handler(metered):
    metered.run(two_site=True)
    loops = ("gateway:", "njs:", "reply-router:", "broker:inbox", "run:")
    assert metered.started
    assert not [name for name in metered.started if name.startswith(loops)]
