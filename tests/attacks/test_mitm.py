"""Ephemeral-key substitution by a malicious gateway: why the node signs
``(Em ‖ ePk)``.

Section 5.1: "Using the shared asymmetric key with the recipient (Sk), we
insure to the recipient the authenticity of the message and that (ePk)
was the genuine ephemeral public key used in the process."  A gateway
that hands the node one key pair but presents a *different* public key to
the recipient — hoping to be paid for a key that never protected anything
— invalidates that signature, and the recipient refuses before locking a
single unit.
"""

from __future__ import annotations

import pytest

from repro.core import BcWANNetwork, GatewayAgent, NetworkConfig
from repro.core.network import COST_MODEL
from repro.crypto import rsa


class MaliciousGatewayAgent(GatewayAgent):
    """The honest gateway with one step overridden: at step 7 it swaps in
    a second key pair it generated on the side."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.substitutions_attempted = 0

    def _presented_key(self, pending) -> rsa.RSAPrivateKey:
        substitute = rsa.generate_keypair(rng=self.rng)
        pending.ephemeral_key = substitute  # claim with the swapped key
        self.substitutions_attempted += 1
        return substitute


def run_with_malicious_gateway(num_exchanges: int, tracing: bool = False):
    network = BcWANNetwork(NetworkConfig(
        num_gateways=2, sensors_per_gateway=2, exchange_interval=20.0,
        seed=81, tracing=tracing,
    ))
    # Replace site-0's gateway logic with the substituting variant,
    # re-wiring the radio and protocol hooks to the new agent.
    site = network.sites[0]
    honest = site.gateway
    evil = MaliciousGatewayAgent(
        network.sim, site.name, honest.radio, site.daemon, site.wallet,
        site.directory, network.wan, COST_MODEL,
        network.tracker, network.rngs.stream("evil-gateway"),
        price=network.config.price,
    )
    # Detach the honest agent's radio handlers (evil registered its own).
    honest.radio._receive_handlers.remove(honest._on_frame)
    site.gateway = evil
    report = network.run(num_exchanges=num_exchanges)
    return network, evil, report


@pytest.fixture(scope="module")
def mitm_network():
    return run_with_malicious_gateway(12)


def test_substituted_keys_are_rejected(mitm_network):
    network, evil, _report = mitm_network
    assert evil.substitutions_attempted > 0
    through_evil = [r for r in network.tracker.records()
                    if r.node_id.startswith("dev-1-")]
    assert through_evil
    # Every exchange through the malicious gateway dies at step 8.
    assert all(not r.completed for r in through_evil)
    assert all("bad signature" in r.failure_reason for r in through_evil
               if r.status == "failed")
    assert len([r for r in through_evil if r.status == "failed"]) \
        == evil.substitutions_attempted


def test_attacker_earns_nothing(mitm_network):
    _network, evil, _report = mitm_network
    assert evil.claims_made == 0
    assert evil.rewards_claimed == 0


def test_no_payment_was_locked_for_substitutions(mitm_network):
    network, _evil, _report = mitm_network
    # Site-1 is the recipient paying site-0's (evil) gateway: it must
    # have refused before creating any offer.
    victim = network.sites[1].recipient
    assert victim.payments_made == 0
    assert victim.stats()["pending_settlements"] == 0


def test_honest_direction_unaffected(mitm_network):
    network, _evil, report = mitm_network
    honest_exchanges = [r for r in network.tracker.records()
                        if r.node_id.startswith("dev-0-")]
    assert any(r.completed for r in honest_exchanges)
    assert report.completed > 0


def test_traced_substitution_fails_the_exchange_and_closes_its_spans():
    """The substituting gateway runs the honest forwarding step, so a
    traced run tells the true story: the uplink arrived, the recipient
    refused at step 8, and nothing is left dangling."""
    network, evil, _report = run_with_malicious_gateway(6, tracing=True)
    network.sim.run(until=network.sim.now + 5.0)  # the last nack lands
    assert evil.substitutions_attempted > 0
    substituted = [r for r in network.tracker.records()
                   if r.node_id.startswith("dev-1-")
                   and r.t_delivered is not None]
    assert len(substituted) == evil.substitutions_attempted
    for record in substituted:
        root = record.trace
        assert (root.status, root.attrs["reason"]) == ("failed",
                                                       "bad signature")
        spans = [span for span in network.tracer.spans
                 if span.trace_id == root.trace_id]
        assert not [span for span in spans if span.end_time is None]
        legs = {span.name: span.status for span in spans
                if span.name.startswith("leg.")}
        assert legs["leg.uplink"] == "ok"
        assert legs["leg.publication"] == "ok"
        assert legs["leg.payment"] == "lost"
