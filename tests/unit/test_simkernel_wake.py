"""``Event.wake``: a trigger in tail position resumes its waiters inside the
call, with no queue entry, and a cascade of wakes runs flat."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simkernel import Simulator


def test_the_waiter_resumes_inside_the_call_with_no_entry():
    sim = Simulator(start=3.0)
    ev = sim.event()
    seen = []

    def waiter():
        seen.append(((yield ev), sim.now))

    proc = sim.process(waiter())
    ev.wake("v")
    assert seen == [("v", 3.0)]
    assert ev.processed and proc.processed
    assert sim.profile()["heap_size"] == 0 and sim.processed_events == 0


def test_a_wake_with_no_waiter_costs_nothing():
    sim = Simulator()
    ev = sim.event()
    ev.wake("v")
    assert ev.processed and ev.value == "v"
    assert sim.profile()["heap_size"] == 0 and sim.processed_events == 0
    assert sim.run(until=ev) == "v"


@pytest.mark.parametrize("first", ["wake", "succeed"])
@pytest.mark.parametrize("second", ["wake", "succeed"])
def test_a_second_trigger_raises(first, second):
    ev = Simulator().event()
    getattr(ev, first)("once")
    with pytest.raises(RuntimeError, match="already been triggered"):
        getattr(ev, second)("twice")
    assert ev.value == "once"


def test_a_nested_wake_runs_after_the_outer_waiter_returns():
    sim = Simulator()
    outer, inner = sim.event(), sim.event()
    order = []

    def first():
        yield outer
        order.append("first resumed")
        inner.wake()
        order.append("first returns")

    def second():
        yield inner
        order.append("second resumed")

    sim.process(first())
    sim.process(second())
    outer.wake()
    # Both ran before the outermost wake returned.
    assert order == ["first resumed", "first returns", "second resumed"]
    assert sim.processed_events == 0


def test_a_wake_inside_a_process_ends_the_run_waiting_for_it():
    sim = Simulator()
    ev = sim.event()

    def waker():
        yield sim.timeout(1.0)
        ev.wake("x")
        return "waker done"

    proc = sim.process(waker())
    assert sim.run(until=ev) == "x" and sim.now == 1.0
    assert sim.run(until=proc) == "waker done"


def test_wakes_a_raising_waiter_leaves_behind_go_to_the_queue():
    sim = Simulator()
    outer, inner = sim.event(), sim.event()
    seen = []

    def wakes_then_raises(_event):
        inner.wake("later")
        raise KeyError("boom")

    outer.callbacks.append(wakes_then_raises)
    inner.callbacks.append(lambda event: seen.append(event.value))
    with pytest.raises(KeyError):
        outer.wake()
    assert seen == [] and not inner.processed
    sim.run()
    assert seen == ["later"] and sim.processed_events == 1


CHAIN = 3000


def test_a_chain_cancelled_at_its_head_ends_without_recursion():
    """Each task waits for its predecessor's ``done`` and, finding it
    anything but successful, ends not attempted with a tail wake of its
    own ``done``: cancelling the head ends the whole chain inside one
    step, and a wake that recursed would overflow the stack long before
    the 3000th task."""
    sim = Simulator()
    done = [sim.event(name=f"done:{i}") for i in range(CHAIN)]
    ended = {}

    def task(i):
        status = yield done[i - 1]
        ended[i] = "not attempted" if status != "successful" else "successful"
        done[i].wake(ended[i])

    for i in range(1, CHAIN):
        sim.process(task(i))
    sim.schedule_callback(50.0, done[0].wake, "killed")
    sim.run()
    assert len(ended) == CHAIN - 1
    assert set(ended.values()) == {"not attempted"}
    assert done[-1].value == "not attempted" and sim.now == 50.0
    assert sim.processed_events == 1  # the cancel itself


# Each process of a drawn program sleeps, then waits for some earlier
# processes' ``done`` in turn, then triggers its own ``done`` as the last
# thing it does.
programs = st.lists(
    st.tuples(
        st.sampled_from([0.0, 0.5, 1.0, 2.0]),
        st.lists(st.integers(min_value=0, max_value=30), max_size=4),
    ),
    min_size=1,
    max_size=12,
)


def _run(program, trigger):
    sim = Simulator()
    done = [sim.event() for _ in program]
    seen = {k: [] for k in range(len(program))}

    def body(k, delay, waits):
        yield sim.timeout(delay)
        for j in waits:
            value = yield done[j]
            seen[k].append((j, value, sim.now))
        getattr(done[k], trigger)((k, len(seen[k]), sim.now))

    for k, (delay, picks) in enumerate(program):
        waits = sorted({p % k for p in picks}) if k else []
        sim.process(body(k, delay, waits))
    sim.run()
    return seen, [ev.value for ev in done], sim.now


@given(programs)
@settings(max_examples=150, deadline=None)
def test_succeed_and_wake_agree_on_tail_position_programs(program):
    assert _run(program, "succeed") == _run(program, "wake")
