"""A crash answers what it drops.

Each cell crashes one daemon strictly inside a job it is serving, then
restarts it.  The service window is read off an uncrashed twin of the
same seed, which runs identically up to the crash instant and is also
the baseline the crashed run is measured against.  The daemon fails the
dropped job with ``DaemonDown`` at the crash instant, so whatever waited
on it carries on:

* the flat master seat mines again after its restart;
* a region's checkpoint agent keeps committing after ``anchor-r0``
  crashed inside a commit;
* a recipient whose daemon crashed inside a refund sweeps again after
  its restart and refunds every offer it made;
* a proof-of-stake stakeholder crashed mid-production leads again.

In every cell — flat full, flat light, two regions and PoS — nothing
escapes ``sim.run``, no span is left open, the exchange the crash
interrupted ends ``failed`` with a reason naming the daemon, and two
same-seed runs export identical traces and fault logs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import pytest

from repro.blockchain.params import ChainParams
from repro.chaos import ChaosInjector, FaultPlan
from repro.core import BcWANNetwork, NetworkConfig, RegionTopology
from repro.core.config import LightConfig

from tests.oracles.exchanges import record_of

DOWNTIME = 14.0
EXCHANGES = 24
# Every run is driven to this instant, so twin and crash run compare
# over the same window.
HORIZON = 400.0

BASE = dict(num_gateways=3, sensors_per_gateway=2, seed=5,
            exchange_interval=20.0, sync_interval=10.0)
FLAT = NetworkConfig(**BASE)
# Offers expire after 3 blocks; the block that reaches a lock-time
# starts the recipient's refund sweep.
REFUNDING = NetworkConfig(**BASE, chain=ChainParams(locktime_grace=3))
LIGHT = NetworkConfig(**BASE, light=LightConfig(
    device_class="light", multicast_interval=15.0, light_sync_interval=30.0))
REGIONS = NetworkConfig(**dict(BASE, num_gateways=4), topology=RegionTopology(
    regions=2, checkpoint_interval=20.0))
POS = NetworkConfig(**dict(BASE, num_gateways=4, consensus="pos"))

# The jobs a crash lands in, by the qualified name of their function.
MINING = "BlockProducer._produce.<locals>.<lambda>"
LOOKUP = "GatewayAgent._forward.<locals>.<lambda>"
OFFER = "NodeLedger.lock_payment.<locals>.<lambda>"
CLAIM = "GatewayAgent._claim.<locals>.<lambda>"
COMMIT = "CheckpointAgent._commit.<locals>.<lambda>"
REFUND = "NodeLedger.refund.<locals>.<lambda>"
# Exchange steps, and the daemon a failure of theirs names.
EXCHANGE_STEPS = {LOOKUP: "gateway", CLAIM: "gateway", OFFER: "recipient"}


@dataclass(frozen=True)
class Cell:
    config: NetworkConfig
    host: str
    job: str
    nth: int = 1  # crash inside the host's nth job of that kind
    preserve_chain: bool = True
    # Gateways never claim, so every offer expires and is refunded.
    hold_claims: bool = False


CELLS = {
    "flat-full-master-mining": Cell(FLAT, "master", MINING, nth=2),
    "flat-full-gateway-lookup": Cell(FLAT, "site-1", LOOKUP,
                                     preserve_chain=False),
    "flat-full-recipient-offer": Cell(FLAT, "site-1", OFFER),
    "flat-full-recipient-refund": Cell(REFUNDING, "site-1", REFUND,
                                       hold_claims=True),
    "flat-light-gateway-lookup": Cell(LIGHT, "site-0", LOOKUP, nth=2),
    "regions-anchor-commit": Cell(REGIONS, "anchor-r0", COMMIT, nth=2),
    "regions-gateway-claim": Cell(REGIONS, "site-1", CLAIM,
                                  preserve_chain=False),
    "pos-stakeholder-mining": Cell(POS, "site-1", MINING, nth=2),
    "pos-gateway-lookup": Cell(POS, "site-2", LOOKUP),
}


def build(cell: Cell) -> BcWANNetwork:
    network = BcWANNetwork(replace(cell.config, tracing=True))
    if cell.hold_claims:
        for site in network.sites:
            site.gateway._begin_claim = lambda offer_txid: None
    return network


def drive(network: BcWANNetwork) -> None:
    network.run(num_exchanges=EXCHANGES)
    network.sim.run(until=HORIZON)
    assert network.sim.now == HORIZON


def served_jobs(network: BcWANNetwork, host: str) -> list:
    """``(start, end, fn)`` of every job ``host``'s daemon will serve.

    One server serves the queue in order, so a job's service time is
    the growth of the daemon's busy time since the previous job.
    """
    daemon = network.all_daemons()[host]
    enqueue = daemon._enqueue
    jobs: list = []
    busy = [0.0]

    def spy(service_mean, fn, *args, **kwargs):
        def timed():
            now, total = network.sim.now, daemon.stats.busy_time
            jobs.append((now - (total - busy[0]), now, fn))
            busy[0] = total
            return fn() if fn is not None else None
        return enqueue(service_mean, timed, *args, **kwargs)

    daemon._enqueue = spy
    return jobs


def served_exchange(fn) -> int:
    """The exchange an exchange step's job serves, read off what its
    function closes over: a data frame, a delivery or a pending claim."""
    for cell in fn.__closure__:
        for attr in ("nonce", "delivery_id", "exchange_id"):
            value = getattr(cell.cell_contents, attr, None)
            if value is not None:
                return value
    raise AssertionError(f"{fn.__qualname__} serves no exchange")


@dataclass
class Crashed:
    cell: Cell
    twin: BcWANNetwork
    network: BcWANNetwork
    injector: ChaosInjector
    jobs: list  # served by the crashed host, as served_jobs() reads them
    crash_at: float
    # The exchange whose job the crash landed in (None: not a step).
    exchange: int | None

    @property
    def restart_at(self) -> float:
        return self.crash_at + DOWNTIME

    @property
    def daemon(self):
        return self.network.all_daemons()[self.cell.host]


def crash_run(cell: Cell, crash_at: float):
    """The crash run: its network, injector and the host's served jobs."""
    network = build(cell)
    jobs = served_jobs(network, cell.host)
    plan = FaultPlan(seed=5).crash(cell.host, at=crash_at,
                                   restart_at=crash_at + DOWNTIME,
                                   preserve_chain=cell.preserve_chain)
    injector = ChaosInjector(network.sim, network.wan, plan,
                             daemons=network.all_daemons(),
                             registry=network.registry).install()
    drive(network)
    return network, injector, jobs


def crashed_inside(cell: Cell) -> Crashed:
    twin = build(cell)
    jobs = served_jobs(twin, cell.host)
    drive(twin)
    start, end, fn = [job for job in jobs
                      if job[2].__qualname__ == cell.job][cell.nth - 1]
    assert end > start
    crash_at = (start + end) / 2
    exchange = served_exchange(fn) if cell.job in EXCHANGE_STEPS else None
    return Crashed(cell, twin, *crash_run(cell, crash_at), crash_at,
                   exchange)


@pytest.fixture(scope="module")
def cells():
    """One crash run per cell, shared by the checks below (they only
    read)."""
    runs: dict[str, Crashed] = {}

    def cell(name: str) -> Crashed:
        if name not in runs:
            runs[name] = crashed_inside(CELLS[name])
        return runs[name]
    return cell


@pytest.fixture(params=list(CELLS))
def crashed(request, cells) -> Crashed:
    return cells(request.param)


def produced_after(network: BcWANNetwork, pubkey_hash: bytes,
                   after: float) -> int:
    """Active blocks stamped after ``after`` whose reward pays
    ``pubkey_hash``."""
    chain = network.all_daemons()["master"].node.chain
    return sum(
        1 for _height, block in chain.iter_active_blocks(1)
        if block.header.timestamp > after
        and block.coinbase.outputs[0].script_pubkey.elements[2]
        == pubkey_hash)


# -- the loops that waited on a dropped job ------------------------------------


def test_the_master_seat_mines_again_after_its_restart(cells):
    run = cells("flat-full-master-mining")
    master = run.network.producers["chain"].wallet.pubkey_hash
    twin = run.twin.producers["chain"].wallet.pubkey_hash
    assert master == twin
    assert (produced_after(run.network, master, run.restart_at)
            >= produced_after(run.twin, twin, run.restart_at) - 2)


def test_the_checkpoint_agent_keeps_committing(cells):
    run = cells("regions-anchor-commit")
    agent = run.network.regions[0].checkpoint_agent
    twin = run.twin.regions[0].checkpoint_agent
    assert twin.checkpoints_committed >= 10
    assert agent.checkpoints_committed >= twin.checkpoints_committed - 2


def test_a_recipient_crashed_inside_a_refund_sweeps_again(cells):
    """Its sweep refunds after the restart, until every offer it made is
    refunded."""
    run = cells("flat-full-recipient-refund")
    assert any(start > run.restart_at for start, _end, fn in run.jobs
               if fn.__qualname__ == REFUND)
    stats = run.network.sites[1].recipient.stats()
    assert stats["refunds_taken"] == stats["payments_made"] > 0
    assert stats["pending_settlements"] == 0


def test_a_stakeholder_crashed_mid_production_leads_again(cells):
    run = cells("pos-stakeholder-mining")
    site = next(site for site in run.network.sites
                if site.name == run.cell.host)
    assert produced_after(run.network, site.wallet.pubkey_hash,
                          run.restart_at) > 0


# -- every crash cell ----------------------------------------------------------


def test_the_crash_landed_inside_a_job(crashed):
    """The twin's nth job of the cell's kind was never served: the host
    served the jobs before it, and the next one after its restart."""
    daemon = crashed.daemon
    assert daemon.stats.crashes == daemon.stats.restarts == 1
    assert daemon.online
    kind = [job for job in crashed.jobs
            if job[2].__qualname__ == crashed.cell.job]
    before = [job for job in kind if job[1] < crashed.crash_at]
    assert len(before) == crashed.cell.nth - 1
    assert all(start >= crashed.restart_at
               for start, _end, _fn in kind[len(before):])


def test_no_span_is_left_open(crashed):
    """Only messages sent at the run's last instant are still in
    flight."""
    network = crashed.network
    assert [span for span in network.tracer.spans
            if span.end_time is None and span.start < network.sim.now] == []


def test_the_interrupted_exchange_fails_naming_the_daemon(crashed):
    records = crashed.network.tracker.records()
    assert all(record.status != "pending" for record in records)
    host = crashed.cell.host
    for record in records:
        if record.failure_reason == "gateway daemon down":
            assert record.gateway == host
        elif record.failure_reason == "recipient daemon down":
            assert record.recipient == host
    if crashed.exchange is not None:
        record = record_of(crashed.network.tracker, crashed.exchange)
        role = EXCHANGE_STEPS[crashed.cell.job]
        assert record.status == "failed"
        assert record.failure_reason == f"{role} daemon down"


@pytest.mark.parametrize("name", list(CELLS))
def test_crash_mid_job_determinism(cells, name):
    """Two same-seed crash runs: identical fault logs and traces."""
    first = cells(name)
    network, injector, _jobs = crash_run(first.cell, first.crash_at)
    assert (injector.telemetry.fault_log
            == first.injector.telemetry.fault_log)
    assert network.export_trace() == first.network.export_trace()
