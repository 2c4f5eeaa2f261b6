"""The Fig. 3 exchange table and the tracker calls the parties make.

One ordered table names the ten instants; the five that bound a leg open
and close the four contiguous ``leg.*`` spans.  ``reach`` / ``fail`` /
``leg`` are no-ops on an id the tracker never issued or on an exchange
already completed or failed, and the first stamp of a step wins.
"""

from __future__ import annotations

from dataclasses import fields

import pytest

from repro.baselines import AltruisticBaseline, LoRaWANBaseline
from repro.core.config import NetworkConfig
from repro.obs.exchange import LEGS, STEPS, ExchangeRecord, ExchangeTracker
from repro.obs.tracing import Tracer

from tests.oracles.exchanges import record_of


def traced_tracker():
    return ExchangeTracker(Tracer())


def leg_spans(tracker):
    return [span for span in tracker.tracer.spans
            if span.name.startswith("leg.")]


def test_every_step_is_a_record_instant():
    stamps = [f.name for f in fields(ExchangeRecord)
              if f.name.startswith("t_")]
    assert stamps == [f"t_{step}" for step in STEPS]


def test_legs_are_contiguous_in_protocol_order():
    """Each leg is closed by the next step that bounds one and opened by
    the previous, so the legs tile ``t_epk_sent → t_decrypted``."""
    bounds = [(step, closes, opens)
              for step, (closes, opens) in STEPS.items() if closes or opens]
    assert [step for step, _c, _o in bounds] == [
        "epk_sent", "data_received", "delivered", "claim_seen", "decrypted"]
    assert LEGS == ("uplink", "publication", "payment", "decryption")
    for (_s, _c, opened), (_t, closed, _o) in zip(bounds, bounds[1:]):
        assert opened == closed
    assert bounds[0][1] is None and bounds[-1][2] is None


def test_reach_stamps_once_and_moves_the_legs():
    tracker = traced_tracker()
    exchange_id = tracker.new_exchange("d", b"x").exchange_id
    tracker.reach(exchange_id, "request", at=9.0)  # a retried request
    tracker.reach(exchange_id, "epk_sent", at=2.0)
    tracker.reach(exchange_id, "epk_sent", at=3.0)  # a resent ePk
    record = record_of(tracker, exchange_id)
    assert (record.t_request, record.t_epk_sent) == (0.0, 2.0)
    assert tracker.leg(exchange_id, "uplink").start == 2.0
    tracker.reach(exchange_id, "data_received", at=2.5)
    assert tracker.leg(exchange_id, "uplink") is None
    assert tracker.leg(exchange_id, "publication").start == 2.5
    assert [(s.name, s.start, s.end_time) for s in leg_spans(tracker)] == [
        ("leg.uplink", 2.0, 2.5), ("leg.publication", 2.5, None)]


def test_decrypted_completes_and_closes_every_span():
    tracker = traced_tracker()
    exchange_id = tracker.new_exchange("d", b"x").exchange_id
    for at, step in enumerate(STEPS):
        tracker.reach(exchange_id, step, at=float(at),
                      **({"decrypted": b"x"} if step == "decrypted" else {}))
    record = record_of(tracker, exchange_id)
    assert record.completed and record.decrypted == b"x"
    assert record.latency == 9.0 - 2.0
    assert all(span.status == "ok" for span in tracker.tracer.spans)
    assert sum(span.duration for span in leg_spans(tracker)) == record.latency


def test_terminal_exchange_ignores_every_call():
    tracker = traced_tracker()
    exchange_id = tracker.new_exchange("d", b"x").exchange_id
    tracker.reach(exchange_id, "epk_sent", at=1.0)
    tracker.fail(exchange_id, "bad signature")
    tracker.fail(exchange_id, "recipient refused: bad signature")
    tracker.reach(exchange_id, "data_received", at=2.0)
    tracker.reach(exchange_id, "decrypted", at=3.0)
    record = record_of(tracker, exchange_id)
    assert (record.status, record.failure_reason) == ("failed",
                                                      "bad signature")
    assert record.t_data_received is None and record.t_decrypted is None
    assert tracker.leg(exchange_id, "uplink") is None
    assert [span.status for span in tracker.tracer.spans] == ["failed",
                                                              "lost"]


def test_untracked_exchange_is_a_no_op():
    tracker = traced_tracker()
    tracker.reach(42, "delivered", recipient="r")
    tracker.fail(42, "never issued")
    assert tracker.leg(42, "payment") is None
    assert tracker.records() == [] and tracker.tracer.spans == []


@pytest.mark.parametrize("build", [LoRaWANBaseline, AltruisticBaseline])
def test_traced_baseline_legs_sum_to_its_latency(build):
    """A baseline stamps the instants its architecture has, so a traced
    run gets the legs those instants bound, in protocol order."""
    testbed = build(NetworkConfig(num_gateways=2, sensors_per_gateway=2,
                                  exchange_interval=25.0, seed=21,
                                  roaming_offset=0, tracing=True))
    report = testbed.run(num_exchanges=6)
    assert report.completed == 6
    per_trace: dict[int, float] = {}
    for span in leg_spans(testbed.tracker):
        assert span.status == "ok" and span.duration >= 0
        per_trace[span.trace_id] = (per_trace.get(span.trace_id, 0.0)
                                    + span.duration)
    for record in testbed.tracker.completed():
        assert per_trace[record.trace.trace_id] == pytest.approx(
            record.latency, abs=1e-9)
