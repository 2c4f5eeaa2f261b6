"""The request layer every ask-and-wait on the WAN shares.

``Requests`` runs here over a stub network that only records what was
sent, so each test drives replies and deadlines by hand: late,
duplicate, mismatched and superseded replies, retries, and a crash that
voids everything in flight.  The last test runs a whole lossy federation
twice and compares the sync agents' counters and peer scores.
"""

from __future__ import annotations

from types import SimpleNamespace

from repro.core import BcWANNetwork, NetworkConfig
from repro.p2p.message import Envelope
from repro.p2p.sync import GetTipMessage, Requests, SyncAgent, TipMessage
from repro.sim.core import Simulator


class StubNetwork:
    def __init__(self):
        self.sent: list[tuple[str, str, object]] = []

    def send(self, source, destination, payload):
        self.sent.append((source, destination, payload))


def make_requests():
    sim, network, expired = Simulator(), StubNetwork(), []
    return sim, network, expired, Requests(sim, network, "me", expired.append)


def test_a_matching_reply_answers_once():
    sim, network, expired, requests = make_requests()
    requests.ask("k", "peer", "ping", 5.0, kind="pong")
    assert network.sent == [("me", "peer", "ping")]
    assert "k" in requests and len(requests) == 1
    assert requests.answer("k", "peer", "pong").message == "ping"
    assert requests.answer("k", "peer", "pong") is None  # the duplicate
    sim.run(until=10.0)
    assert expired == [] and len(requests) == 0
    score = requests.scores["peer"]
    assert (score.successes, score.failures) == (1, 0)


def test_a_reply_after_its_deadline_is_ignored():
    sim, _network, expired, requests = make_requests()
    requests.ask("k", "peer", "ping", 5.0)
    sim.run(until=5.1)
    assert [request.peer for request in expired] == ["peer"]
    assert requests.answer("k", "peer") is None
    score = requests.scores["peer"]
    assert (score.successes, score.failures,
            score.consecutive_failures) == (0, 1, 1)


def test_a_reply_of_the_wrong_kind_or_peer_keeps_waiting():
    sim, _network, expired, requests = make_requests()
    requests.ask("k", "peer", "ping", 5.0, kind="pong")
    assert requests.answer("k", "peer", "other") is None
    assert requests.answer("k", "stranger", "pong") is None
    assert requests.answer("elsewhere", "peer", "pong") is None
    assert "k" in requests
    assert "stranger" not in requests.scores
    assert requests.answer("k", "peer", "pong") is not None
    sim.run(until=10.0)
    assert expired == []


def test_retries_run_out_exactly_at_the_retry_count():
    sim, network, expired, requests = make_requests()
    requests.ask("k", "peer", "ping", 5.0, retries=2)
    sim.run(until=100.0)
    assert len(network.sent) == 3  # the ask and two retries
    assert [request.retries_left for request in expired] == [2, 1, 0]
    assert len(requests) == 0
    # Only the last expiry fails the peer.
    assert requests.scores["peer"].failures == 1


def test_a_new_request_supersedes_the_old_token():
    sim, _network, expired, requests = make_requests()
    requests.ask("k", "old", "ping", 5.0)
    sim.run(until=3.0)
    requests.ask("k", "new", "ping", 5.0)
    sim.run(until=6.0)  # past the first deadline only
    assert expired == []
    assert requests.answer("k", "old") is None
    sim.run(until=9.0)
    assert [request.peer for request in expired] == ["new"]
    assert "old" not in requests.scores


def test_a_failure_and_an_answer_share_one_score():
    _sim, _network, _expired, requests = make_requests()
    requests.fail("peer")
    requests.fail("peer")
    assert requests.scores["peer"].consecutive_failures == 2
    requests.ask("k", "peer", "ping", 5.0)
    requests.answer("k", "peer")
    score = requests.scores["peer"]
    assert (score.failures, score.consecutive_failures) == (2, 0)


# -- the sync agent's policy over the layer ------------------------------------

def stub_daemon(network):
    daemon = SimpleNamespace(
        name="n0", online=True, handlers={},
        gossip=SimpleNamespace(network=network, peers=["n1", "n2"]),
        node=SimpleNamespace(height=0,
                             mempool=SimpleNamespace(transactions=tuple)))
    daemon.register_protocol = daemon.handlers.__setitem__
    return daemon


def test_sync_reset_voids_everything_in_flight():
    sim, network = Simulator(), StubNetwork()
    daemon = stub_daemon(network)
    agent = SyncAgent(sim, daemon, interval=5.0)
    sim.run(until=5.01)
    (_source, peer, probe), = network.sent
    assert isinstance(probe, GetTipMessage) and peer in agent.requests
    agent.reset()  # what a daemon crash does
    assert len(agent.requests) == 0
    # The late reply is unsolicited and the deadline finds nothing.
    daemon.handlers[TipMessage](Envelope(source=peer, destination="n0",
                                         payload=TipMessage(height=0)))
    sim.run(until=10.5)
    assert agent.timeouts == 0
    assert agent.requests.scores[peer].successes == 0
    assert agent.requests.scores[peer].failures == 0


# -- determinism ---------------------------------------------------------------

def lossy_federation_fingerprint():
    network = BcWANNetwork(NetworkConfig(
        seed=5, num_gateways=3, sensors_per_gateway=1, wan_loss_rate=0.2,
        sync_interval=5.0, exchange_interval=20.0))
    network.run(num_exchanges=4)
    return [(agent.daemon.name, dict(agent.stats()),
             sorted(agent.requests.scores.items()))
            for agent in network.sync_agents]


def test_lossy_federation_sync_determinism():
    first = lossy_federation_fingerprint()
    assert len(first) == 4
    assert sum(stats["timeouts"] for _name, stats, _ in first) > 0
    assert repr(first) == repr(lossy_federation_fingerprint())
