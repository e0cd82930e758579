"""Property-based tests for simulation-kernel invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simkernel import Simulator, Store

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
