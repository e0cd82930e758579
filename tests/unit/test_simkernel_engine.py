"""Unit tests for the discrete-event simulation engine."""

import pytest

from repro.simkernel import EXPIRED, Interrupt, ProcessDied, Simulator, TimeoutAt


def test_clock_starts_at_zero():
    assert Simulator().now == 0.0


def test_clock_custom_start():
    assert Simulator(start=100.0).now == 100.0


def test_timeout_advances_clock():
    sim = Simulator()
    sim.timeout(5.0)
    sim.run()
    assert sim.now == 5.0


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.timeout(-1.0)


def test_events_fire_in_time_order():
    sim = Simulator()
    order = []
    for delay in (3.0, 1.0, 2.0):
        ev = sim.timeout(delay, value=delay)
        ev.callbacks.append(lambda e: order.append(e.value))
    sim.run()
    assert order == [1.0, 2.0, 3.0]


def test_equal_time_events_fifo():
    sim = Simulator()
    order = []
    for i in range(10):
        ev = sim.timeout(1.0, value=i)
        ev.callbacks.append(lambda e: order.append(e.value))
    sim.run()
    assert order == list(range(10))


def test_run_until_time_stops_clock_exactly():
    sim = Simulator()
    fired = []
    sim.timeout(10.0).callbacks.append(lambda e: fired.append(True))
    sim.run(until=4.0)
    assert sim.now == 4.0
    assert not fired
    sim.run(until=20.0)
    assert fired
    assert sim.now == 20.0


def test_run_until_past_time_rejected():
    sim = Simulator()
    sim.run(until=5.0)
    with pytest.raises(ValueError):
        sim.run(until=1.0)


def test_run_until_event_returns_value():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(2.0)
        return "done"

    p = sim.process(proc(sim))
    assert sim.run(until=p) == "done"
    assert sim.now == 2.0


def test_run_until_never_triggered_event_raises():
    sim = Simulator()
    ev = sim.event()
    with pytest.raises(RuntimeError, match="drained"):
        sim.run(until=ev)


def test_process_sequencing():
    sim = Simulator()
    log = []

    def worker(sim, name, delay):
        yield sim.timeout(delay)
        log.append((sim.now, name))

    sim.process(worker(sim, "a", 2.0))
    sim.process(worker(sim, "b", 1.0))
    sim.run()
    assert log == [(1.0, "b"), (2.0, "a")]


def test_process_waits_on_process():
    sim = Simulator()

    def child(sim):
        yield sim.timeout(3.0)
        return 42

    def parent(sim):
        value = yield sim.process(child(sim))
        return value + 1

    p = sim.process(parent(sim))
    assert sim.run(until=p) == 43


def test_process_exception_propagates_to_waiter():
    sim = Simulator()

    def bad(sim):
        yield sim.timeout(1.0)
        raise ValueError("boom")

    def parent(sim):
        try:
            yield sim.process(bad(sim))
        except ValueError as err:
            return f"caught {err}"

    p = sim.process(parent(sim))
    assert sim.run(until=p) == "caught boom"


def test_unhandled_process_exception_surfaces():
    sim = Simulator()

    def bad(sim):
        yield sim.timeout(1.0)
        raise ValueError("boom")

    sim.process(bad(sim))
    with pytest.raises(ValueError, match="boom"):
        sim.run()


def test_yield_non_event_is_error():
    sim = Simulator()

    def bad(sim):
        yield 5

    p = sim.process(bad(sim))
    with pytest.raises(TypeError, match="not an.*Event"):
        sim.run(until=p)


def test_process_requires_generator():
    sim = Simulator()

    def not_a_generator(sim):
        return 1

    with pytest.raises(TypeError, match="generator"):
        sim.process(not_a_generator(sim))


def test_event_succeed_once_only():
    sim = Simulator()
    ev = sim.event()
    ev.succeed(1)
    with pytest.raises(RuntimeError):
        ev.succeed(2)


def test_event_fail_requires_exception():
    sim = Simulator()
    with pytest.raises(TypeError):
        sim.event().fail("not an exception")


def test_event_value_before_trigger_is_error():
    sim = Simulator()
    ev = sim.event()
    with pytest.raises(RuntimeError):
        _ = ev.value
    with pytest.raises(RuntimeError):
        _ = ev.ok


def test_interrupt_wakes_process_early():
    sim = Simulator()
    log = []

    def sleeper(sim):
        try:
            yield sim.timeout(100.0)
            log.append("slept full")
        except Interrupt as intr:
            log.append(("interrupted", sim.now, intr.cause))

    def interrupter(sim, victim):
        yield sim.timeout(5.0)
        victim.interrupt(cause="wake up")

    victim = sim.process(sleeper(sim))
    sim.process(interrupter(sim, victim))
    sim.run()
    assert log == [("interrupted", 5.0, "wake up")]


def test_interrupt_dead_process_raises():
    sim = Simulator()

    def quick(sim):
        yield sim.timeout(1.0)

    p = sim.process(quick(sim))
    sim.run()
    with pytest.raises(ProcessDied):
        p.interrupt()


def test_all_of_waits_for_everything():
    sim = Simulator()

    def proc(sim):
        t1 = sim.timeout(1.0, value="one")
        t2 = sim.timeout(3.0, value="three")
        results = yield t1 & t2
        return sorted(results.values())

    p = sim.process(proc(sim))
    assert sim.run(until=p) == ["one", "three"]
    assert sim.now == 3.0


def test_any_of_fires_on_first():
    sim = Simulator()

    def proc(sim):
        t1 = sim.timeout(1.0, value="fast")
        t2 = sim.timeout(3.0, value="slow")
        results = yield t1 | t2
        return list(results.values())

    p = sim.process(proc(sim))
    assert sim.run(until=p) == ["fast"]
    assert sim.now == 1.0


def test_all_of_empty_fires_immediately():
    sim = Simulator()
    ev = sim.all_of([])
    assert ev.triggered


def test_condition_rejects_foreign_events():
    sim1, sim2 = Simulator(), Simulator()
    with pytest.raises(ValueError):
        sim1.all_of([sim1.timeout(1), sim2.timeout(1)])


def test_schedule_callback():
    sim = Simulator()
    hits = []
    sim.schedule_callback(2.5, hits.append, "x")
    sim.run()
    assert hits == ["x"]
    assert sim.now == 2.5


def test_schedule_callback_counts_as_event():
    sim = Simulator()
    sim.schedule_callback(1.0, lambda: None)
    sim.schedule_callback(2.0, lambda: None)
    sim.run()
    assert sim.processed_events == 2
    assert sim.events_processed == 2


def test_schedule_callback_cancel():
    sim = Simulator()
    hits = []
    slot = sim.schedule_callback(1.0, hits.append, "dropped")
    sim.schedule_callback(2.0, hits.append, "kept")
    slot.cancel()
    sim.run()
    assert hits == ["kept"]
    # A cancelled slot is skipped, not processed.
    assert sim.processed_events == 1


def test_succeed_with_no_waiter_is_processed_without_a_queue_entry():
    sim = Simulator()
    sim.timeout(3.0)
    ev = sim.event()
    ev.succeed("v")
    assert ev.processed and ev.ok and ev.value == "v"
    assert sim.profile()["heap_size"] == 1 and sim.processed_events == 0
    with pytest.raises(RuntimeError, match="already"):
        ev.succeed("again")


def test_a_later_waiter_sees_the_value_of_an_unobserved_success():
    sim = Simulator(start=2.0)
    ev = sim.event()
    ev.succeed("v")
    seen = []

    def late():
        seen.append(((yield ev), sim.now))
        both = yield sim.all_of([ev, sim.event().succeed("w")])
        seen.append((sorted(both.values()), sim.now))
        first = yield sim.any_of([sim.event(), ev])
        seen.append((list(first.values()), sim.now))

    sim.process(late())
    assert sim.run(until=ev) == "v"  # already processed: no step taken
    assert seen == []
    sim.run()
    assert seen == [("v", 2.0), (["v", "w"], 2.0), (["v"], 2.0)]


def test_a_process_that_ends_unjoined_costs_no_entry_of_its_own():
    sim = Simulator()

    def worker():
        yield sim.timeout(1.0)
        return "done"

    proc = sim.process(worker())
    sim.run()
    assert sim.processed_events == 2  # its start and its timer
    assert proc.processed and proc.value == "done"
    assert sim.run(until=proc) == "done"


def test_fail_with_no_waiter_still_raises_from_step():
    sim = Simulator()
    sim.event().fail(OSError("unseen"))
    assert sim.profile()["heap_size"] == 1
    with pytest.raises(OSError, match="unseen"):
        sim.step()
    sim.event().fail(OSError("handled")).defuse()
    sim.step()


def test_deadline_resolves_a_pending_event_once():
    sim = Simulator()
    ev = sim.event()
    got = []

    def waiter():
        got.append(((yield ev), sim.now))

    sim.process(waiter())
    sim.deadline(ev, 5.0)
    sim.run()
    assert got == [(EXPIRED, 5.0)]
    with pytest.raises(RuntimeError, match="already"):
        ev.succeed("late")


def test_deadline_is_a_no_op_on_a_triggered_event():
    sim = Simulator()
    ev = sim.event()
    sim.deadline(ev, 5.0)
    ev.succeed("in time")
    sim.run()
    assert ev.value == "in time" and sim.now == 5.0


def test_a_cancelled_deadline_leaves_nothing_live_and_holds_nothing():
    sim = Simulator()
    ev = sim.event()
    slot = sim.deadline(ev, 5.0)
    assert sim.profile()["heap_size"] == 1
    slot.cancel()
    assert sim.profile()["heap_size"] == 0
    assert slot.args == ()  # the event, and whatever it will carry
    sim.run()
    assert sim.processed_events == 0 and not ev.triggered


def test_callbacks_interleave_with_events_in_time_order():
    sim = Simulator()
    order = []
    sim.schedule_callback(2.0, order.append, "cb@2")
    ev = sim.timeout(1.0, value="ev@1")
    ev.callbacks.append(lambda e: order.append(e.value))
    sim.schedule_callback(3.0, order.append, "cb@3")
    sim.run()
    assert order == ["ev@1", "cb@2", "cb@3"]


def test_profile_hook():
    sim = Simulator()
    for i in range(4):
        sim.timeout(float(i + 1))
    sim.schedule_callback(5.0, lambda: None)
    prof = sim.profile()
    assert prof["heap_size"] == 5
    assert prof["peak_heap_size"] == 5
    assert prof["events_processed"] == 0
    sim.run()
    prof = sim.profile()
    assert prof["now"] == 5.0
    assert prof["heap_size"] == 0
    assert prof["peak_heap_size"] == 5
    assert prof["events_processed"] == 5
    assert prof["callbacks_run"] == 1


def test_step_on_empty_queue_raises():
    with pytest.raises(RuntimeError):
        Simulator().step()


def test_peek():
    sim = Simulator()
    assert sim.peek() == float("inf")
    sim.timeout(7.0)
    assert sim.peek() == 7.0


def test_processed_events_counter():
    sim = Simulator()
    for _ in range(5):
        sim.timeout(1.0)
    sim.run()
    assert sim.processed_events == 5


def test_yield_already_processed_event():
    sim = Simulator()

    def proc(sim):
        t = sim.timeout(1.0, value="early")
        yield sim.timeout(5.0)
        # t fired long ago; yielding it must return immediately with value
        value = yield t
        return (sim.now, value)

    p = sim.process(proc(sim))
    assert sim.run(until=p) == (5.0, "early")


def test_timeout_carries_value():
    sim = Simulator()

    def proc(sim):
        v = yield sim.timeout(1.0, value=99)
        return v

    p = sim.process(proc(sim))
    assert sim.run(until=p) == 99


def test_timeout_at_fires_at_exactly_the_time_given():
    """A relative timeout for the same instant rounds: 0.0167 +
    (0.111 - 0.0167) is an ulp short of 0.111 in binary floating point."""
    sim = Simulator(start=0.0167)
    when = 0.111
    assert sim.now + (when - sim.now) != when
    seen = []

    def proc(sim):
        value = yield TimeoutAt(sim, when, value="arrived")
        seen.append((sim.now, value))

    sim.process(proc(sim))
    sim.run()
    assert seen == [(when, "arrived")]


def test_timeout_at_with_error_fails_at_that_time():
    sim = Simulator()

    def proc(sim):
        try:
            yield TimeoutAt(sim, 2.5, error=OSError("lost"))
        except OSError as err:
            return (sim.now, str(err))

    assert sim.run(until=sim.process(proc(sim))) == (2.5, "lost")
    # Nobody waiting and not defused: the failure surfaces, as for any event.
    TimeoutAt(sim, 3.0, error=OSError("unseen"))
    with pytest.raises(OSError, match="unseen"):
        sim.run()


def test_timeout_at_in_the_past_rejected():
    sim = Simulator(start=10.0)
    with pytest.raises(ValueError):
        TimeoutAt(sim, 9.0)


def test_repr_smoke():
    sim = Simulator()
    ev = sim.event(name="myevent")
    assert "myevent" in repr(ev)
    assert "Simulator" in repr(sim)
    ev.succeed()
    assert "processed" in repr(ev)  # nobody waited: never queued
    waited = sim.event(name="waited")
    waited.callbacks.append(lambda _ev: None)
    assert "triggered" in repr(waited.succeed())
