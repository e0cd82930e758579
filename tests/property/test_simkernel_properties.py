"""Property-based tests for simulation-kernel invariants."""

from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.simkernel import EXPIRED, Simulator, Store, engine

delays = st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1,
                  max_size=40)


@given(delays)
@settings(max_examples=200, deadline=None)
def test_clock_is_monotone_and_events_ordered(ds):
    sim = Simulator()
    seen = []
    for d in ds:
        sim.timeout(d, value=d).callbacks.append(
            lambda e: seen.append((sim.now, e.value))
        )
    sim.run()
    # Fired in nondecreasing time order, at exactly their delays.
    times = [t for t, _ in seen]
    assert times == sorted(times)
    assert sorted(v for _, v in seen) == sorted(ds)
    for fired_at, delay in seen:
        assert fired_at == delay
    assert sim.now == max(ds)


@given(delays, delays)
@settings(max_examples=100, deadline=None)
def test_store_is_fifo_for_any_schedule(producer_gaps, consumer_gaps):
    """Whatever the timing, items come out in the order they went in."""
    sim = Simulator()
    store = Store(sim)
    n = min(len(producer_gaps), len(consumer_gaps))
    got = []

    def producer(sim):
        for i in range(n):
            yield sim.timeout(producer_gaps[i])
            store.put(i)

    def consumer(sim):
        for i in range(n):
            yield sim.timeout(consumer_gaps[i])
            item = yield store.get()
            got.append(item)

    sim.process(producer(sim))
    sim.process(consumer(sim))
    sim.run()
    assert got == list(range(n))


instants = st.floats(min_value=0.0, max_value=1e6)


@given(st.lists(st.tuples(instants, instants), min_size=1, max_size=20))
@settings(max_examples=100, deadline=None)
def test_a_success_is_seen_when_both_it_and_the_waiter_are_there(pairs):
    """Whoever comes second, the waiter resumes with the value at the later
    of the two instants, and it costs one wake-up either way."""
    sim = Simulator()
    seen = {}

    def waiter(index, ev, ask_at):
        yield sim.timeout(ask_at)
        seen[index] = ((yield ev), sim.now)

    for index, (happens_at, ask_at) in enumerate(pairs):
        ev = sim.event()
        sim.schedule_callback(happens_at, ev.succeed, index)
        sim.process(waiter(index, ev, ask_at))
    sim.run()
    assert seen == {
        index: (index, max(happens_at, ask_at))
        for index, (happens_at, ask_at) in enumerate(pairs)
    }
    # Per pair: the waiter's timer, the succeed slot, and a wake-up only
    # if the waiter was there first; one that comes second finds the
    # value and goes on at once.  The waiter starts inside sim.process,
    # after its succeed slot was queued, so on a tie it comes second.
    assert sim.processed_events == sum(
        2 + (ask_at < happens_at) for happens_at, ask_at in pairs
    )


@given(st.lists(st.tuples(instants, instants), min_size=1, max_size=20))
@settings(max_examples=100, deadline=None)
def test_a_deadline_resolves_its_event_exactly_once(pairs):
    """The waiter gets the value if it happened before the limit and
    EXPIRED at the limit otherwise; the side that lost finds the event
    triggered, and a cancelled limit leaves nothing live behind."""
    sim = Simulator()
    seen = {}

    def happen(ev, value):
        if not ev.triggered:
            ev.succeed(value)

    def waiter(index, ev, limit):
        deadline = sim.deadline(ev, limit)
        value = yield ev
        deadline.cancel()
        seen[index] = (value, sim.now)

    for index, (happens_at, limit) in enumerate(pairs):
        ev = sim.event()
        sim.schedule_callback(happens_at, happen, ev, index)
        sim.process(waiter(index, ev, limit))
    sim.run(until=max(h for h, _ in pairs))
    assert seen == {
        index: (index, happens_at) if happens_at <= limit else (EXPIRED, limit)
        for index, (happens_at, limit) in enumerate(pairs)
    }
    assert sim.profile()["heap_size"] == 0
    # Happen, wake-up, and the limit unless it was cancelled first; the
    # waiter's start costs nothing.
    assert sim.processed_events == sum(2 + (d <= h) for h, d in pairs)


#: One step of a schedule/cancel program: queue a slot due in ``delay``
#: that, when it runs, cancels the slot at ``target`` (mod the slots made
#: so far) or queues a timeout event; cancel the slot at ``target``; run
#: the loop until ``target`` entries are processed (a dead slot popped is
#: none); or run it until ``delay`` from now.
program_ops = st.lists(
    st.tuples(
        st.sampled_from(["slot", "cancel", "steps", "until"]),
        st.floats(min_value=0.0, max_value=50.0),
        st.integers(0, 1 << 16),
        st.booleans(),
    ),
    max_size=150,
)


def _popped(ops):
    """What the loop runs, and when, for one schedule/cancel program."""
    sim = Simulator()
    slots, seen = [], []

    def fire(label, target, cancels):
        seen.append((label, sim.now))
        if cancels:
            slots[target % len(slots)].cancel()
        else:
            sim.timeout(target % 7, value=label).callbacks.append(
                lambda ev: seen.append((f"event {ev.value}", sim.now))
            )

    for index, (kind, delay, target, cancels) in enumerate(ops):
        if kind == "slot":
            slots.append(sim.schedule_callback(delay, fire, index, target, cancels))
        elif kind == "cancel" and slots:
            slots[target % len(slots)].cancel()
        elif kind == "steps":
            goal = sim.processed_events + target % 5
            while sim.processed_events < goal and sim.peek() != float("inf"):
                sim.step()
        elif kind == "until":
            sim.run(until=sim.now + delay)
            seen.append(("until", sim.now))
    sim.run()
    return seen, sim.now, sim.processed_events, sim.profile()["heap_size"]


@given(program_ops)
@example([  # two dead slots before the limit, the live one after it
    ("slot", 1.0, 0, False), ("slot", 2.0, 0, False), ("slot", 20.0, 0, False),
    ("cancel", 0.0, 0, False), ("cancel", 0.0, 1, False),
    ("until", 10.0, 0, False),
])
@settings(max_examples=150, deadline=None)
def test_compaction_changes_nothing_the_loop_runs(ops):
    """Any schedule/cancel program pops the same entries at the same
    times whether the heap is compacted at every chance or never:
    ``(when, seq)`` orders it totally, and only dead slots leave."""
    with mock.patch.object(engine, "COMPACT_FLOOR", 0):
        compacted = _popped(ops)
    with mock.patch.object(engine, "COMPACT_FLOOR", float("inf")):
        never = _popped(ops)
    assert compacted == never
