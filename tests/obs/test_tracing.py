"""Sim-time spans: deterministic ids, nesting, idempotent lifecycle."""

from __future__ import annotations

from repro.obs.tracing import NULL_SPAN, NULL_TRACER, Tracer
from repro.sim.core import Simulator


def test_span_ids_follow_creation_order():
    tracer = Tracer()
    a = tracer.span("a")
    b = tracer.span("b")
    c = tracer.span("c", parent=a)
    assert (a.span_id, b.span_id, c.span_id) == (1, 2, 3)
    # Roots open fresh traces; children inherit.
    assert a.trace_id != b.trace_id
    assert c.trace_id == a.trace_id
    assert c.parent_id == a.span_id
    assert a.parent_id == 0


def test_two_tracers_mint_identical_ids():
    """Ids are per-tracer, never process-global (the determinism rule)."""

    def build(tracer: Tracer) -> list[tuple[int, int]]:
        root = tracer.span("root")
        child = tracer.span("child", parent=root)
        return [(s.trace_id, s.span_id) for s in (root, child)]

    assert build(Tracer()) == build(Tracer())


def test_span_uses_sim_clock():
    sim = Simulator()
    tracer = Tracer(sim)
    span = tracer.span("op")
    sim.call_at(5.0, lambda: span.end("ok"))
    sim.run(until=10.0)
    assert span.start == 0.0
    assert span.end_time == 5.0
    assert span.duration == 5.0
    assert span.status == "ok"


def test_explicit_start_and_end_times():
    tracer = Tracer()
    span = tracer.span("op", start=3.0)
    span.end("ok", at=4.5)
    assert span.duration == 1.5


def test_end_is_idempotent_first_wins():
    tracer = Tracer()
    span = tracer.span("op")
    span.end("lost", reason="dropped")
    span.end("ok")
    assert span.status == "lost"
    assert span.attrs["reason"] == "dropped"


def test_end_clamps_to_start():
    tracer = Tracer()
    span = tracer.span("op", start=10.0)
    span.end("ok", at=5.0)
    assert span.end_time == 10.0
    assert span.duration == 0.0


def test_annotate_merges_attrs():
    tracer = Tracer()
    span = tracer.span("op", host="a")
    span.annotate(corrupted=True)
    span.end("ok", outcome="done")
    assert span.attrs == {"host": "a", "corrupted": True, "outcome": "done"}


def test_disabled_tracer_hands_out_null_span():
    tracer = Tracer(enabled=False)
    span = tracer.span("op", attr=1)
    assert span is NULL_SPAN
    assert not span  # falsy: `span if span else None` gates envelope attrs
    span.annotate(x=1)
    span.end("lost")
    assert span.status == "disabled"
    assert tracer.spans == []


def test_null_tracer_is_disabled():
    assert NULL_TRACER.span("anything") is NULL_SPAN


def test_parenting_under_null_span_roots_a_fresh_trace():
    tracer = Tracer()
    span = tracer.span("op", parent=NULL_SPAN)
    assert span.parent_id == 0
