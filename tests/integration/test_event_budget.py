"""A deterministic cost proxy for a whole job: simulator queue entries.

The run loop is paid per entry, and an entry is worth its price only if
it is an occurrence of its own: a message arriving, a timer running
out.  What nobody observes (a process ending unjoined, a ``done`` nobody
awaits), a process starting (it runs to its first yield inside the call
that makes it), a yield on what has already happened, a mailbox wake-up
between a delivery and the function it is for, an ``AnyOf`` relaying the
winner of a race and the start and end of a process that is one timer
are not occurrences, and do not enter the queue.  Nor is a wake-up in
tail position, where the trigger is the last thing its caller does:
``Event.wake`` resumes the waiter inside that call, so a reply reaching
its caller, a batch run's end reaching its task, a task's or job's
``done`` and a finished job's parked query cost nothing of their own.
A request's auth CPU and its crossing of the firewall socket are one
timer.  These tests name the cause of every entry a job costs between
the user's ``submit`` and the end of ``wait``, and hold the job to that
table.  The caller's own ``api:*`` plans (the end ``run(until=)``
observes, for each) are its business and counted apart.
"""

import collections
import types

import pytest

from repro.api import GridSession
from repro.grid import build_grid
from repro.protocol.messages import Reply, Request
from repro.server.njs.executor import INCARNATION_CPU_S
from repro.simkernel import CallbackSlot, Simulator

#: One request through a gateway, whatever its verb.  The request waits
#: for the auth CPU and then its crossing of the firewall socket, one
#: timer; the reply's crossing rides ahead of the channel send that
#: carries it on, and its delivery wakes the caller, so neither is an
#: entry.
REQUEST = {
    "request delivered to the gateway host": 1,
    "auth CPU, then the firewall crossing in": 1,
    "reply delivered to the client host": 1,
}

#: A script task at the site that runs it.
SCRIPT_TASK = {
    "incarnation CPU": 1,
    "batch run ends": 1,
}

#: Consign, then one subscribed QUERY that is parked until the job is done
#: (the job's outcome row wakes it).
ONE_SITE = collections.Counter(REQUEST) + collections.Counter(REQUEST) + (
    collections.Counter(SCRIPT_TASK)
)

#: The same with a sub-group for a second site: the group goes out as one
#: message over three hops (NJS, gateway, gateway, NJS) and its result
#: comes back the same way.  Sealing and opening ride ahead of the first
#: hop, as an https channel charges them, and the first hop is the
#: sender's own firewall socket, relayed ahead of the WAN hop: neither is
#: an entry, so each message costs two deliveries.
TWO_SITE = ONE_SITE + collections.Counter(SCRIPT_TASK) + collections.Counter({
    "peer hop delivered": 4,  # ForwardGroup out, GroupResult back
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
        return "peer hop delivered"
    timers = {
        "auth": "auth CPU, then the firewall crossing in",
        f"Timeout({INCARNATION_CPU_S})": "incarnation CPU",
    }
    if name in timers:
        return timers[name]
    if name.startswith("api:"):
        return "api:* ends, observed by run(until=)"
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
    # 15 with wake-ups through the queue and two gateway timers, 19 with
    # process starts, 21 with firewall hops out too, 36 with mailboxes
    assert sum(costs.values()) == 8
    assert own == 2  # api:submit, api:wait
    _assert_nothing_left_due(metered.grid.sim)


def test_a_two_site_job_costs_the_entries_its_table_names(metered):
    metered.run(two_site=True)  # the NJSs shake hands once
    costs, own = metered.run(two_site=True)
    assert costs == TWO_SITE, (costs - TWO_SITE, TWO_SITE - costs)
    # 26 with wake-ups through the queue and two gateway timers, 34 with
    # process starts, 38 with firewall hops out and peer first hops too,
    # 42 with peer record CPU, 66 with mailboxes
    assert sum(costs.values()) == 14
    assert own == 2
    _assert_nothing_left_due(metered.grid.sim)


def test_no_process_stands_between_a_message_and_its_handler(metered):
    metered.run(two_site=True)
    loops = ("gateway:", "njs:", "reply-router:", "broker:inbox", "run:")
    assert metered.started
    assert not [name for name in metered.started if name.startswith(loops)]
