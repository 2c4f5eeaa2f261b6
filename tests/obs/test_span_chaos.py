"""Span-tree integrity under faults: a dropped message or a crashed
daemon must close its spans ``lost`` — never leak them open."""

from __future__ import annotations

import random

from repro.chaos import ChaosInjector, FaultPlan
from repro.chaos.scenario import build_federation
from repro.core import BcWANNetwork, NetworkConfig
from repro.obs.tracing import Tracer
from repro.p2p.network import FaultDecision, WANetwork
from repro.sim.core import Simulator
from repro.sim.latency import ConstantLatency


def by_name(tracer, name):
    return [span for span in tracer.spans if span.name == name]


def open_spans(tracer):
    return [span for span in tracer.spans if span.end_time is None]


def _wan_with_tracer():
    sim = Simulator()
    wan = WANetwork(sim, random.Random(3), ConstantLatency())
    wan.tracer = Tracer(sim)
    received: list[object] = []
    wan.register("a", received.append)
    wan.register("b", received.append)
    return sim, wan, received


def test_injected_drop_closes_span_lost():
    sim, wan, received = _wan_with_tracer()
    wan.interceptor = lambda envelope: FaultDecision(
        drop=True, reason="injected drop")
    wan.send("a", "b", "payload")
    sim.run(until=10.0)
    assert wan.drops_injected == 1
    assert received == []
    (span,) = by_name(wan.tracer, "wan.transit")
    assert span.status == "lost"
    assert span.attrs["reason"] == "injected drop"
    assert open_spans(wan.tracer) == []


def test_no_route_closes_span_lost():
    sim, wan, _received = _wan_with_tracer()
    wan.send("a", "nowhere", "payload")
    assert wan.drops_unknown_destination == 1
    (span,) = by_name(wan.tracer, "wan.transit")
    assert span.status == "lost"
    assert span.attrs["reason"] == "no_route"


def test_delivery_to_downed_host_closes_span_lost():
    sim, wan, received = _wan_with_tracer()
    wan.send("a", "b", "payload")
    wan.set_host_down("b")
    assert wan.messages_lost == 0  # the WAN accepted it...
    sim.run(until=10.0)
    assert received == []          # ...but the host was gone
    assert wan.drops_offline == 1
    (span,) = by_name(wan.tracer, "wan.transit")
    assert span.status == "lost"
    assert span.attrs["reason"] == "host offline"
    assert open_spans(wan.tracer) == []


def test_duplicated_copies_share_one_span():
    sim, wan, received = _wan_with_tracer()
    wan.interceptor = lambda envelope: FaultDecision(duplicates=2)
    wan.send("a", "b", "payload")
    sim.run(until=10.0)
    assert len(received) == 3
    (span,) = by_name(wan.tracer, "wan.transit")
    assert span.status == "ok"
    assert open_spans(wan.tracer) == []


def test_chaos_delay_annotated_on_span():
    sim, wan, received = _wan_with_tracer()
    wan.interceptor = lambda envelope: FaultDecision(extra_delay=2.5)
    wan.send("a", "b", "payload")
    sim.run(until=10.0)
    assert len(received) == 1
    (span,) = by_name(wan.tracer, "wan.transit")
    assert span.attrs["extra_delay"] == 2.5
    assert span.status == "ok"


def verifying_traced_federation():
    """Two gateways that verify every block (the ~8 s stall a crash can
    land in), with the federation's tracer on."""
    fed = build_federation(size=2, seed=9, sync_interval=120.0)
    fed.tracer.enabled = True
    for daemon in fed.daemons.values():
        daemon.verify_blocks = True
    return fed


def test_daemon_crash_mid_validation_closes_span_lost():
    """A block verifying on a daemon that crashes dies with its span."""
    fed = verifying_traced_federation()
    miner = fed.make_miner("gw-0", key_seed=4)

    def mine_and_broadcast():
        block = miner.mine_and_connect(1.0)
        fed.daemons["gw-0"].gossip.broadcast_block(block)

    fed.sim.call_at(1.0, mine_and_broadcast)
    # The verification stall is ~8 s; crash gw-1 while the block job is
    # in service, so the epoch fence voids it.
    fed.sim.call_at(2.0, fed.daemons["gw-1"].crash)
    fed.sim.run(until=30.0)

    validate_spans = by_name(fed.tracer, "block.validate")
    assert validate_spans, "gw-1 should have started validating the block"
    assert all(span.status == "lost" for span in validate_spans)
    assert open_spans(fed.tracer) == []


def test_crash_sweeps_queued_job_spans():
    """Jobs still *queued* at crash time close ``lost`` too."""
    fed = verifying_traced_federation()
    miner = fed.make_miner("gw-0", key_seed=4)

    def mine_two():
        for timestamp in (1.0, 2.0):
            block = miner.mine_and_connect(timestamp)
            fed.daemons["gw-0"].gossip.broadcast_block(block)

    fed.sim.call_at(1.0, mine_two)
    # Both blocks reach gw-1 ~t=1.05; the first enters service (8 s
    # stall), the second waits in queue.  The crash must sweep both.
    fed.sim.call_at(3.0, fed.daemons["gw-1"].crash)
    fed.sim.run(until=30.0)

    validate_spans = by_name(fed.tracer, "block.validate")
    assert len(validate_spans) == 2
    reasons = {span.attrs.get("reason") for span in validate_spans}
    assert reasons == {"daemon crash mid-service", "daemon crash"}
    assert open_spans(fed.tracer) == []


def test_network_crash_mid_production_closes_every_span():
    """A deployment's crash run: the stakeholder's ``block.mine`` span
    ends ``lost`` with the job the crash dropped, like every other span
    of the run (messages sent at its last instant are still in flight).
    """
    network = BcWANNetwork(NetworkConfig(
        num_gateways=4, sensors_per_gateway=0, seed=41, consensus="pos",
        sync_interval=10.0, tracing=True))
    # site-1 is serving its slot-10 mining job at t = 150.06.
    plan = FaultPlan(seed=41).crash("site-1", at=150.06, restart_at=190.0,
                                    preserve_chain=True)
    ChaosInjector(network.sim, network.wan, plan,
                  daemons=network.all_daemons(),
                  registry=network.registry).install()
    network.sim.run(until=300.0)

    assert [span for span in open_spans(network.tracer)
            if span.start < network.sim.now] == []
    (dropped,) = [span for span in by_name(network.tracer, "block.mine")
                  if span.attrs.get("reason") == "daemon crash mid-service"]
    assert dropped.status == "lost"
    assert dropped.attrs["host"] == "site-1"
