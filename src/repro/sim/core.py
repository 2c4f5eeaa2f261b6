"""A deterministic discrete-event simulation kernel.

This is the testbed substrate: the paper measured on PlanetLab + AWS; we
reproduce the same message sequences over simulated time.  The kernel is a
small simpy-style engine — processes are Python generators that ``yield``
events; :class:`Simulator` owns the clock and the event queue.

Determinism rules: ties in the event queue break by insertion order, and
all randomness must flow through :mod:`repro.sim.rng` streams, so a run is
a pure function of its seed.

The per-event path is written flat — a timeout pushes itself, ``run``
processes each popped event inline, a process reads event states off
their slots — and must schedule, fire and count exactly what the
earlier, layered kernel does: ``tests/oracles/sim_reference.py`` keeps
that kernel, and ``tests/sim/test_kernel_differential.py`` holds the two
to the same firing log, clock and event count.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from heapq import heappop, heappush
from typing import Any, Callable, Generator, Iterable, Optional

__all__ = [
    "Event",
    "Timeout",
    "Process",
    "AnyOf",
    "Simulator",
    "SimulationError",
]


class SimulationError(Exception):
    """Kernel-level misuse (double-trigger, yielding a foreign event...)."""


# An event's states, in order: pending → triggered (queued to fire) →
# processed (callbacks run).
_PENDING, _TRIGGERED, _PROCESSED = range(3)


class Event:
    """A one-shot occurrence processes can wait on.

    Events move through three states: pending → triggered (scheduled to
    fire) → processed (callbacks run).  ``succeed``/``fail`` trigger the
    event; the simulator runs callbacks when the clock reaches it.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_state")

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self.callbacks: list[Callable[[Event], None]] = []
        self._value: Any = None
        self._ok: Optional[bool] = None
        self._state = _PENDING

    @property
    def triggered(self) -> bool:
        return self._state >= _TRIGGERED

    @property
    def processed(self) -> bool:
        return self._state == _PROCESSED

    @property
    def ok(self) -> Optional[bool]:
        return self._ok

    @property
    def value(self) -> Any:
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger successfully; callbacks fire at the current instant."""
        if self._state:
            raise SimulationError("event already triggered")
        self._ok = True
        self._value = value
        self._state = _TRIGGERED
        self.sim._push(self, 0.0)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger with an exception that propagates into waiting processes."""
        if self._state:
            raise SimulationError("event already triggered")
        if not isinstance(exception, BaseException):
            raise SimulationError(f"fail() needs an exception, got {exception!r}")
        self._ok = False
        self._value = exception
        self._state = _TRIGGERED
        self.sim._push(self, 0.0)
        return self


class Timeout(Event):
    """An event that fires ``delay`` seconds after creation."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise SimulationError(f"negative timeout: {delay}")
        # Event.__init__ and the queue push, flat: the program's most
        # frequent event.
        self.sim = sim
        self.callbacks = []
        self._value = value
        self._ok = True
        self._state = _TRIGGERED
        heappush(sim._queue, (sim.now + delay, next(sim._counter), self))


class Process(Event):
    """Drives a generator; the process *is* an event that fires on return.

    The generator yields :class:`Event` instances; the process resumes with
    the event's value (or the event's exception is thrown in).
    """

    __slots__ = ("_generator",)

    def __init__(self, sim: "Simulator",
                 generator: Generator[Event, Any, Any]) -> None:
        super().__init__(sim)
        self._generator = generator
        Timeout(sim, 0.0).callbacks.append(self._resume)

    def _resume(self, event: Event) -> None:
        try:
            if event._ok:
                target = self._generator.send(event._value)
            else:
                target = self._generator.throw(event._value)
        except StopIteration as stop:
            if not self._state:
                self.succeed(stop.value)
            return
        if not isinstance(target, Event):
            raise SimulationError(
                f"process yielded {type(target).__name__}, expected Event"
            )
        if target.sim is not self.sim:
            raise SimulationError("process yielded an event from another simulator")
        if target._state == _PROCESSED:
            # Already fired: resume on the next tick with its outcome.
            immediate = Timeout(self.sim, 0.0, target._value)
            immediate._ok = target._ok
            immediate.callbacks.append(self._resume)
        else:
            target.callbacks.append(self._resume)


class AnyOf(Event):
    """Fires when the first child event fires.

    Once the winner fires, the composite detaches its callback from every
    losing child, so slow or never-firing events don't retain a reference
    to a long-completed composite (and its captured state).  A child that
    has already fired wins at once, and is never given the callback: its
    callbacks have run, so one added now would neither fire nor go.
    """

    __slots__ = ("_children",)

    def __init__(self, sim: "Simulator", events: Iterable[Event]) -> None:
        super().__init__(sim)
        children = list(events)
        if not children:
            raise SimulationError("AnyOf needs at least one event")
        self._children: tuple[Event, ...] = tuple(children)
        for child in children:
            if child._state == _PROCESSED:
                self._on_child(child)
                break
            child.callbacks.append(self._on_child)

    def _on_child(self, event: Event) -> None:
        if self.triggered:
            return
        for child in self._children:
            if child is event:
                continue
            try:
                child.callbacks.remove(self._on_child)
            except ValueError:
                pass
        self._children = ()
        if event.ok:
            self.succeed(event.value)
        else:
            self.fail(event.value)


class Lock:
    """A FIFO mutex for processes sharing a physical resource.

    Usage inside a process::

        yield lock.acquire()
        try:
            ...
        finally:
            lock.release()
    """

    def __init__(self, sim: "Simulator") -> None:
        self._sim = sim
        self._locked = False
        # deque: release() hands off to the oldest waiter in O(1);
        # a list's pop(0) is O(n) under contention.
        self._waiters: deque[Event] = deque()

    def acquire(self) -> Event:
        event = self._sim.event()
        if not self._locked:
            self._locked = True
            event.succeed()
        else:
            self._waiters.append(event)
        return event

    def release(self) -> None:
        if not self._locked:
            raise SimulationError("release() of an unlocked Lock")
        if self._waiters:
            self._waiters.popleft().succeed()
        else:
            self._locked = False


class Simulator:
    """The event loop: a clock plus a priority queue of triggered events.

    The queue is a heap of ``(time, seq, event)`` tuples; ``seq`` counts
    insertions, so equal-time events fire in the order they were
    scheduled.  ``run()`` pops one entry and processes one event per step,
    checking ``until`` before each — the seed loop that
    ``tests/sim/test_event_order_determinism.py`` keeps as its oracle.
    ``events_processed`` counts the popped events, one each; ``run()``
    adds its own count when it returns or raises.
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        self._queue: list[tuple[float, int, Event]] = []
        self._counter = itertools.count()
        self.events_processed = 0

    # -- event factories -----------------------------------------------------

    def event(self) -> Event:
        return Event(self)

    def lock(self) -> Lock:
        return Lock(self)

    def timeout(self, delay: float) -> Timeout:
        return Timeout(self, delay)

    def process(self, generator: Generator[Event, Any, Any]) -> Process:
        return Process(self, generator)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    def call_at(self, time: float, callback: Callable[[], None]) -> Event:
        """Run ``callback`` at absolute simulation ``time``."""
        if time < self.now:
            raise SimulationError(f"cannot schedule in the past: {time} < {self.now}")
        event = Timeout(self, time - self.now)
        event.callbacks.append(lambda _event: callback())
        return event

    def call_in(self, delay: float, callback: Callable[[], None]) -> Event:
        """Run ``callback`` after ``delay`` seconds."""
        event = Timeout(self, delay)
        event.callbacks.append(lambda _event: callback())
        return event

    # -- scheduling ------------------------------------------------------------

    def _push(self, event: Event, delay: float) -> None:
        heappush(self._queue, (self.now + delay, next(self._counter), event))

    def run(self, until: Optional[float] = None,
            max_events: int = 50_000_000) -> None:
        """Run until the queue drains or the clock passes ``until``, which
        may not lie before ``now``: the clock never runs back."""
        if until is not None and until < self.now:
            raise SimulationError(
                f"cannot run until {until}: the clock is at {self.now}")
        queue = self._queue
        stop = math.inf if until is None else until
        processed = 0
        try:
            while queue:
                if queue[0][0] > stop:
                    self.now = until
                    return
                self.now, _seq, event = heappop(queue)
                processed += 1
                # The event fires: its state, then its callbacks, each
                # once; any added from here on go to a fresh list.
                event._state = _PROCESSED
                callbacks = event.callbacks
                event.callbacks = []
                for callback in callbacks:
                    callback(event)
                if processed >= max_events:
                    raise SimulationError(
                        f"exceeded {max_events} events; runaway simulation?"
                    )
        finally:
            self.events_processed += processed
        if until is not None:
            self.now = max(self.now, until)
