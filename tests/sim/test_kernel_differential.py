"""The event kernel against its layered predecessor, on drawn programs.

``repro.sim.core`` processes events on a flat path: a timeout pushes
itself onto the queue, ``Simulator.run`` fires each popped event inline,
and a process reads event states off their slots.
``tests/oracles/sim_reference.py`` is the kernel before that, verbatim.
Both are driven here through the same public calls with programs that
hypothesis draws: processes stepping through timeouts (with and without a
value) on a coarse delay grid, so equal-time ties are the common case;
events succeeded or failed from ``call_in`` callbacks; ``call_at`` /
``call_in`` callbacks; a callback added to an event while it fires
(which never runs); ``AnyOf`` races, some over a child that has
already fired; ``Lock`` contention; child processes, waited for or left
running; re-yields of an event that has already fired; and
``run(until=)`` before the final drain.  The programs that misuse the
kernel (a negative delay, a yielded non-event, an event of another
simulator, a double trigger, a ``call_at`` in the past, a release of an
unlocked lock, an escaping exception) must raise the same error at the
same point.  Equal means: the same firing log, clock, ``events_processed``
and queue length after each ``run``, and the same process outcomes.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import core
from tests.oracles import sim_reference

DELAYS = (0.0, 0.0, 0.25, 0.5, 1.0)
UNTILS = (None, 0.0, 0.25, 0.5, 1.0, 1.75, 3.0)
STEPS = ("timeout", "value", "succeed", "fail", "call_at", "call_in",
         "late", "any_of", "lock", "child", "spawn", "again")
MISUSES = ("negative", "not_event", "foreign", "double", "past",
           "unlocked", "child_raises")


def _execute(kernel, program, until):
    """Run ``program`` on ``kernel``; everything it can observe, as data."""
    sim = kernel.Simulator()
    other = kernel.Simulator()
    lock = kernel.Lock(sim)
    log: list = []

    def note(*entry):
        log.append((sim.now,) + entry)

    def child(pid, step, delay, raises):
        yield kernel.Timeout(sim, delay)
        note(pid, step, "child-ran")
        if raises:
            raise ValueError(f"child {pid}.{step} raised")
        return ("child", pid, step)

    def body(pid, ops):
        last = None
        for step, (kind, index, variant) in enumerate(ops):
            delay = DELAYS[index]
            got = None
            if kind == "timeout":
                last = kernel.Timeout(sim, delay)
                got = yield last
            elif kind == "value":
                last = kernel.Timeout(sim, delay, value=(pid, step))
                got = yield last
            elif kind in ("succeed", "fail"):
                last = sim.event()
                if kind == "succeed":
                    sim.call_in(delay, lambda e=last, s=step:
                                e.succeed(("ok", pid, s)))
                    got = yield last
                else:
                    sim.call_in(delay, lambda e=last, s=step:
                                e.fail(RuntimeError(f"boom {pid}.{s}")))
                    try:
                        yield last
                    except RuntimeError as caught:
                        got = str(caught)
            elif kind == "call_at":
                sim.call_at(sim.now + delay,
                            lambda s=step: note(pid, s, "call_at-fired"))
            elif kind == "call_in":
                sim.call_in(delay, lambda s=step: note(pid, s, "call_in-fired"))
            elif kind == "late":
                # A callback added to an event while it fires never runs.
                last = sim.event()
                last.callbacks.append(lambda e, s=step: e.callbacks.append(
                    lambda _e: note(pid, s, "late-ran")))
                sim.call_in(delay, last.succeed)
            elif kind == "any_of":
                racers = [kernel.Timeout(sim, delay, value="first"),
                          kernel.Timeout(sim, DELAYS[-1 - index],
                                         value="second")]
                if last is not None and variant:
                    # ``last`` has fired: the race is won at once.
                    racers.insert(0 if variant == 1 else 2, last)
                last = sim.any_of(racers)
                try:
                    got = yield last
                except RuntimeError as caught:  # won by a failed event
                    got = str(caught)
            elif kind == "lock":
                last = lock.acquire()
                yield last
                note(pid, step, "locked")
                yield kernel.Timeout(sim, delay)
                lock.release()
            elif kind == "child":
                last = sim.process(child(pid, step, delay, False))
                got = yield last
            elif kind == "spawn":
                sim.process(child(pid, step, delay, False))
            elif kind == "again":
                if last is not None:
                    try:
                        got = yield last
                    except RuntimeError as caught:  # a failed event
                        got = str(caught)
            elif kind == "negative":
                kernel.Timeout(sim, -0.25 - delay)
            elif kind == "not_event":
                yield delay
            elif kind == "foreign":
                yield other.event()
            elif kind == "double":
                sim.event().succeed().succeed()
            elif kind == "past":
                sim.call_at(sim.now - 0.25 - delay, lambda: None)
            elif kind == "unlocked":
                lock.release()
            elif kind == "child_raises":
                got = yield sim.process(child(pid, step, delay, True))
            note(pid, step, kind, got)
        return ("done", pid)

    processes = [sim.process(body(pid, ops))
                 for pid, ops in enumerate(program)]
    runs = []
    for bound in (until, None):
        try:
            sim.run(until=bound)
            error = None
        except Exception as exc:  # the kernel's error, or the program's
            error = (type(exc).__name__, str(exc))
        runs.append((error, sim.now, sim.events_processed, len(sim._queue)))
        if error is not None:
            break
    outcomes = [(p.processed, p.ok, p.value) for p in processes]
    return log, runs, outcomes


def _programs(kinds, max_steps):
    step = st.tuples(st.sampled_from(kinds),
                     st.integers(0, len(DELAYS) - 1), st.integers(0, 2))
    return st.lists(st.lists(step, max_size=max_steps),
                    min_size=1, max_size=5)


@settings(max_examples=300, deadline=None)
@given(program=_programs(STEPS, 10), until=st.sampled_from(UNTILS))
def test_determinism_both_kernels_fire_the_same_program_alike(program,
                                                              until):
    reference = _execute(sim_reference, program, until)
    assert reference[1][-1][0] is None, reference[1]
    assert _execute(core, program, until) == reference
    # ... and the flat kernel repeats itself.
    assert _execute(core, program, until) == reference


@settings(max_examples=300, deadline=None)
@given(program=_programs(STEPS + MISUSES, 6), until=st.sampled_from(UNTILS))
def test_both_kernels_refuse_the_same_misuse_at_the_same_point(program,
                                                               until):
    assert (_execute(core, program, until)
            == _execute(sim_reference, program, until))


def test_every_misuse_raises_on_both_kernels():
    for misuse in MISUSES:
        program = [[("timeout", 2, 0), (misuse, 3, 0)]]
        reference = _execute(sim_reference, program, None)
        error = reference[1][-1][0]
        assert error is not None, misuse
        assert error[0] == ("ValueError" if misuse == "child_raises"
                            else "SimulationError"), (misuse, error)
        assert _execute(core, program, None) == reference


def test_both_kernels_refuse_to_run_the_clock_back():
    observed = []
    for kernel in (core, sim_reference):
        sim = kernel.Simulator()
        sim.call_in(10.0, lambda: None)
        sim.call_in(20.0, lambda: None)
        sim.run(until=15.0)
        try:
            sim.run(until=5.0)
            error = None
        except kernel.SimulationError as exc:
            error = str(exc)
        observed.append((error, sim.now, sim.events_processed,
                         len(sim._queue)))
    assert observed[0] == observed[1]
    assert observed[0][:2] == ("cannot run until 5.0: the clock is at 15.0",
                               15.0)
