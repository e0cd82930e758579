"""Property tests: a send that carries its own seal time is one queue
entry and still lands where the two-step send did.

Until PR 16 an https send was a process: wait out the seal-and-open
timer, then put the message on the link.  The transport now takes that
time as ``delay_s`` and reserves the link slot at call time.  The
process-based send is kept here as the reference: for one sender the two
must agree to the bit, on arrival times and on when a lost message
fails; for several senders the new rule is checked against a model of
the link (slots in call order, none overlapping).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import ConnectionLost, Network
from repro.net.sim_transport import DEFAULT_TIMEOUT
from repro.simkernel import Simulator

LATENCY_S = 0.01
BANDWIDTH_BPS = 1_250_000.0

#: One message: (gap before the call, size in bytes, seal-and-open time).
sends = st.tuples(
    st.sampled_from([0.0, 0.0005, 0.004, 0.05, 1.0]) | st.floats(0.0, 2.0),
    st.integers(0, 200_000),
    st.sampled_from([0.0, 0.004, 0.052]) | st.floats(0.0, 0.2),
)
loss = st.sampled_from([0.0, 0.3])


def _net(loss_probability):
    sim = Simulator()
    net = Network(sim, seed=16)
    net.add_host("a")
    net.add_host("b")
    net.link(
        "a", "b", latency_s=LATENCY_S, bandwidth_Bps=BANDWIDTH_BPS,
        loss_probability=loss_probability, symmetric=False,
    )
    return sim, net


def _send_with_delay(sim, net, payload, size, seal_s):
    return net.send("a", "b", payload, size, delay_s=seal_s)


def _send_as_process(sim, net, payload, size, seal_s):
    """The parent commit's ``HttpsChannel._send_proc``: the reference."""

    def proc():
        yield sim.timeout(seal_s)
        yield net.send("a", "b", payload, size)
        return payload

    return sim.process(proc(), name=f"https-send:{size}B")


def _sequential_run(send, schedule, loss_probability):
    """One sender, each send awaited: what happened to each, and when."""
    sim, net = _net(loss_probability)
    seen = []

    def sender():
        for i, (gap, size, seal_s) in enumerate(schedule):
            yield sim.timeout(gap)
            try:
                yield send(sim, net, i, size, seal_s)
                seen.append((i, "delivered", sim.now))
            except ConnectionLost:
                seen.append((i, "lost", sim.now))

    received = []

    def receiver():
        while True:
            message = yield net.host("b").receive()
            received.append((message.payload, sim.now))

    sim.process(receiver())
    sim.run(until=sim.process(sender()))
    return seen, received, sim.processed_events


@given(st.lists(sends, min_size=1, max_size=12), loss)
@settings(max_examples=200, deadline=None)
def test_sequential_sends_land_bit_equal_to_the_process_based_send(
    schedule, loss_probability
):
    want_seen, want_received, want_events = _sequential_run(
        _send_as_process, schedule, loss_probability)
    seen, received, events = _sequential_run(
        _send_with_delay, schedule, loss_probability)
    # == on floats, on purpose: same arrival, same loss timeout.
    assert seen == want_seen
    assert received == want_received
    # The reference paid a process start, a seal timer and a process end
    # on top of each message's one delivery entry.
    assert want_events - events == 3 * len(schedule)


@given(
    st.lists(st.lists(sends, min_size=1, max_size=6), min_size=1, max_size=4),
    loss,
)
@settings(max_examples=200, deadline=None)
def test_concurrent_sends_leave_in_call_order_without_overlap(
    schedules, loss_probability
):
    sim, net = _net(loss_probability)
    link = net.get_link("a", "b")
    calls = []     # (payload, call time, size, seal) in call order
    settled = {}   # payload -> (ok, time the sender's event fired)

    def sender(s, schedule):
        for i, (gap, size, seal_s) in enumerate(schedule):
            yield sim.timeout(gap)
            payload = (s, i)
            calls.append((payload, sim.now, size, seal_s))
            ev = net.send("a", "b", payload, size, delay_s=seal_s).defuse()
            ev.callbacks.append(
                lambda ev, payload=payload: settled.__setitem__(
                    payload, (ev.ok, sim.now))
            )
            # Do not wait: senders overlap each other and themselves.

    received = []

    def receiver():
        while True:
            message = yield net.host("b").receive()
            received.append(message.payload)

    sim.process(receiver())
    for s, schedule in enumerate(schedules):
        sim.process(sender(s, schedule))
    sim.run()

    # The link as a model: a slot starts once its message is sealed and
    # the previous slot has ended, in call order.
    busy_until = 0.0
    previous_end = 0.0
    delivered = []
    for payload, called_at, size, seal_s in calls:
        tx = link.transmission_delay(size)
        start = max(called_at + seal_s, busy_until)
        busy_until = start + tx
        arrival = start + tx + LATENCY_S
        ok, fired_at = settled[payload]
        if ok:
            delivered.append(payload)
            assert fired_at == arrival
        else:
            assert fired_at == arrival + DEFAULT_TIMEOUT
            fired_at -= DEFAULT_TIMEOUT
        # And from the observed time alone: this transmission began after
        # its seal and after the previous one was off the link.
        began = fired_at - LATENCY_S - tx
        assert began >= called_at + seal_s - 1e-9
        assert began >= previous_end - 1e-9
        previous_end = fired_at - LATENCY_S
    assert received == delivered                   # call order
    assert len(settled) == len(calls)
    assert link.messages_lost == len(calls) - len(delivered)
