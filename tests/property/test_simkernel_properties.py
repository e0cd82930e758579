"""Property-based tests for simulation-kernel invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simkernel import EXPIRED, Simulator, Store

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
    # Per pair: the waiter starts, its timer, the succeed slot, one wake-up
    # (the event itself, or the replay of one already processed).  On a tie
    # the timer was queued first, so the waiter is there when it happens.
    assert sim.processed_events == 4 * len(pairs)


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
    # Start, happen, wake-up, and the limit unless it was cancelled first.
    assert sim.processed_events == sum(3 + (d <= h) for h, d in pairs)
