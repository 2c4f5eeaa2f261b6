"""The discrete-event kernel."""

from __future__ import annotations

import pytest

from repro.sim.core import Lock, SimulationError, Simulator, Timeout


def test_timeout_advances_clock():
    sim = Simulator()
    fired = []
    sim.call_in(5.0, lambda: fired.append(sim.now))
    sim.run()
    assert fired == [5.0]
    assert sim.now == 5.0


def test_events_fire_in_time_order():
    sim = Simulator()
    order = []
    sim.call_in(3.0, lambda: order.append("c"))
    sim.call_in(1.0, lambda: order.append("a"))
    sim.call_in(2.0, lambda: order.append("b"))
    sim.run()
    assert order == ["a", "b", "c"]


def test_ties_break_by_insertion_order():
    sim = Simulator()
    order = []
    for label in "abc":
        sim.call_in(1.0, lambda l=label: order.append(l))
    sim.run()
    assert order == ["a", "b", "c"]


def test_run_until_stops_clock():
    sim = Simulator()
    fired = []
    sim.call_in(10.0, lambda: fired.append(1))
    sim.run(until=5.0)
    assert fired == []
    assert sim.now == 5.0
    sim.run()
    assert fired == [1]


def test_run_until_an_earlier_instant_is_refused():
    sim = Simulator()
    fired = []
    sim.call_in(10.0, lambda: fired.append(sim.now))
    sim.call_in(20.0, lambda: fired.append(sim.now))
    sim.run(until=15.0)
    with pytest.raises(SimulationError, match="clock is at 15.0"):
        sim.run(until=5.0)
    assert sim.now == 15.0
    # What is scheduled next counts from 15.0, not from 5.0.
    sim.call_in(1.0, lambda: fired.append(sim.now))
    sim.run()
    assert fired == [10.0, 16.0, 20.0]


def test_process_returns_value():
    sim = Simulator()

    def worker(sim):
        yield sim.timeout(1.0)
        return 42

    process = sim.process(worker(sim))
    sim.run()
    assert process.processed
    assert process.value == 42


def test_process_receives_timeout_value():
    sim = Simulator()
    got = []

    def worker(sim):
        value = yield Timeout(sim, 1.0, value="payload")
        got.append(value)

    sim.process(worker(sim))
    sim.run()
    assert got == ["payload"]


def test_process_waits_on_manual_event():
    sim = Simulator()
    event = sim.event()
    got = []

    def waiter(sim):
        value = yield event
        got.append((sim.now, value))

    sim.process(waiter(sim))
    sim.call_in(3.0, lambda: event.succeed("done"))
    sim.run()
    assert got == [(3.0, "done")]


def test_event_failure_propagates():
    sim = Simulator()
    event = sim.event()
    caught = []

    def waiter(sim):
        try:
            yield event
        except RuntimeError as exc:
            caught.append(str(exc))

    sim.process(waiter(sim))
    sim.call_in(1.0, lambda: event.fail(RuntimeError("boom")))
    sim.run()
    assert caught == ["boom"]


def test_double_trigger_rejected():
    sim = Simulator()
    event = sim.event()
    event.succeed()
    with pytest.raises(SimulationError):
        event.succeed()


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.timeout(-1.0)


def test_any_of_returns_first():
    sim = Simulator()
    results = []

    def collector(sim):
        value = yield sim.any_of([
            Timeout(sim, 5.0, value="slow"),
            Timeout(sim, 1.0, value="fast"),
        ])
        results.append((sim.now, value))

    sim.process(collector(sim))
    sim.run()
    assert results == [(1.0, "fast")]


def test_any_of_detaches_losing_children():
    sim = Simulator()
    fast = sim.event()
    slow = sim.event()
    composite = sim.any_of([fast, slow])
    assert len(slow.callbacks) == 1
    fast.succeed("winner")
    sim.run()
    assert composite.value == "winner"
    # The loser no longer references the completed composite.
    assert slow.callbacks == []
    slow.succeed("late")
    sim.run()  # firing the loser later is harmless


def test_lock_waiters_deque_fifo_under_contention():
    sim = Simulator()
    lock = sim.lock()
    order = []

    def worker(sim, index):
        yield lock.acquire()
        order.append(index)
        yield sim.timeout(0.001)
        lock.release()

    for index in range(100):
        sim.process(worker(sim, index))
    sim.run()
    assert order == list(range(100))


def test_yield_non_event_fails():
    sim = Simulator()

    def bad(sim):
        yield 42  # type: ignore[misc]

    sim.process(bad(sim))
    with pytest.raises(SimulationError):
        sim.run()


def test_call_at_rejects_past():
    sim = Simulator()
    sim.call_in(5.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.call_at(1.0, lambda: None)


def test_runaway_guard():
    sim = Simulator()

    def forever(sim):
        while True:
            yield sim.timeout(0.001)

    sim.process(forever(sim))
    with pytest.raises(SimulationError):
        sim.run(max_events=1000)


def test_determinism():
    def build():
        sim = Simulator()
        log = []

        def worker(sim, name, delay):
            for _ in range(3):
                yield sim.timeout(delay)
                log.append((round(sim.now, 6), name))

        sim.process(worker(sim, "a", 0.7))
        sim.process(worker(sim, "b", 1.1))
        sim.run()
        return log

    assert build() == build()


# -- Lock ---------------------------------------------------------------------

def test_lock_mutual_exclusion():
    sim = Simulator()
    lock = sim.lock()
    trace = []

    def worker(sim, name, hold):
        yield lock.acquire()
        trace.append(("enter", name, sim.now))
        yield sim.timeout(hold)
        trace.append(("exit", name, sim.now))
        lock.release()

    sim.process(worker(sim, "a", 2.0))
    sim.process(worker(sim, "b", 1.0))
    sim.run()
    assert trace == [
        ("enter", "a", 0.0), ("exit", "a", 2.0),
        ("enter", "b", 2.0), ("exit", "b", 3.0),
    ]


def test_lock_fifo_order():
    sim = Simulator()
    lock = sim.lock()
    order = []

    def worker(sim, name):
        yield lock.acquire()
        order.append(name)
        yield sim.timeout(1.0)
        lock.release()

    for name in ("first", "second", "third"):
        sim.process(worker(sim, name))
    sim.run()
    assert order == ["first", "second", "third"]


def test_release_unlocked_fails():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.lock().release()
