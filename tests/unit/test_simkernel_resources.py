"""Unit tests for Store and SimQueue."""

import pytest

from repro.simkernel import SimQueue, Simulator, Store


# ---------------------------------------------------------------- Store
def test_store_put_get_fifo():
    sim = Simulator()
    store = Store(sim)
    results = []

    def producer(sim):
        for i in range(3):
            yield sim.timeout(1.0)
            store.put(i)

    def consumer(sim):
        for _ in range(3):
            item = yield store.get()
            results.append((sim.now, item))

    sim.process(producer(sim))
    sim.process(consumer(sim))
    sim.run()
    assert results == [(1.0, 0), (2.0, 1), (3.0, 2)]


def test_store_get_before_put_blocks():
    sim = Simulator()
    store = Store(sim)
    got = []

    def consumer(sim):
        item = yield store.get()
        got.append((sim.now, item))

    def producer(sim):
        yield sim.timeout(5.0)
        store.put("late")

    sim.process(consumer(sim))
    sim.process(producer(sim))
    sim.run()
    assert got == [(5.0, "late")]


def test_store_capacity_blocks_putter():
    sim = Simulator()
    store = Store(sim, capacity=1)
    log = []

    def producer(sim):
        yield store.put("a")
        log.append(("a stored", sim.now))
        yield store.put("b")
        log.append(("b stored", sim.now))

    def consumer(sim):
        yield sim.timeout(10.0)
        item = yield store.get()
        log.append((f"got {item}", sim.now))

    sim.process(producer(sim))
    sim.process(consumer(sim))
    sim.run()
    assert ("a stored", 0.0) in log
    assert ("b stored", 10.0) in log


def test_store_invalid_capacity():
    with pytest.raises(ValueError):
        Store(Simulator(), capacity=0)


def test_store_len():
    sim = Simulator()
    store = Store(sim)
    store.put(1)
    store.put(2)
    assert len(store) == 2


def test_store_multiple_consumers_fifo_service():
    sim = Simulator()
    store = Store(sim)
    winners = []

    def consumer(sim, name):
        item = yield store.get()
        winners.append((name, item))

    sim.process(consumer(sim, "first"))
    sim.process(consumer(sim, "second"))
    store.put("x")
    store.put("y")
    sim.run()
    assert winners == [("first", "x"), ("second", "y")]


# ---------------------------------------------------------------- SimQueue
def test_simqueue_push_pop():
    sim = Simulator()
    q = SimQueue(sim)
    out = []

    def consumer(sim):
        while True:
            msg = yield q.pop()
            out.append(msg)
            if msg == "stop":
                break

    sim.process(consumer(sim))
    q.push("a")
    q.push("stop")
    sim.run()
    assert out == ["a", "stop"]
    assert len(q) == 0
