"""FaultPlan DSL: validation, matching, horizon."""

from __future__ import annotations

import math

import pytest

from repro.chaos.faults import (
    CrashEvent,
    FaultPlan,
    LinkFault,
    Partition,
)
from repro.errors import ConfigurationError


def test_builders_chain_and_accumulate():
    plan = (FaultPlan(seed=3)
            .lose_links(0.1)
            .corrupt_links(0.05, source="gw-0")
            .duplicate_links(0.2, copies=2)
            .delay_links(0.5, extra_delay=1.0)
            .reorder_links(0.3, spread=0.4)
            .partition([["a"], ["b"]], start=1.0, heal_at=2.0)
            .crash("a", at=5.0, restart_at=6.0))
    assert len(plan.link_faults) == 5
    assert len(plan.partitions) == 1
    assert len(plan.crashes) == 1
    assert not plan.empty
    assert FaultPlan().empty


@pytest.mark.parametrize("bad", [
    lambda: LinkFault(kind="explode", probability=0.1),
    lambda: LinkFault(kind="loss", probability=1.5),
    lambda: LinkFault(kind="loss", probability=0.1, start=5.0, end=1.0),
    lambda: LinkFault(kind="delay", probability=0.1, extra_delay=0.0),
    lambda: LinkFault(kind="duplicate", probability=0.1, copies=0),
    lambda: Partition(groups=(("a",),), start=0.0),
    lambda: Partition(groups=(("a",), ("a",)), start=0.0),
    lambda: Partition(groups=(("a",), ("b",)), start=5.0, heal_at=5.0),
    lambda: CrashEvent(host="a", at=5.0, restart_at=5.0),
])
def test_invalid_specs_rejected(bad):
    with pytest.raises(ConfigurationError):
        bad()


def test_link_fault_matching():
    fault = LinkFault(kind="loss", probability=1.0, source="a",
                      destination="b", start=1.0, end=2.0,
                      payload_kinds=("TxMessage",))
    assert fault.matches("a", "b", "TxMessage", 1.5)
    assert not fault.matches("a", "b", "TxMessage", 0.5)   # before window
    assert not fault.matches("a", "b", "TxMessage", 2.0)   # end exclusive
    assert not fault.matches("x", "b", "TxMessage", 1.5)   # wrong source
    assert not fault.matches("a", "x", "TxMessage", 1.5)   # wrong dest
    assert not fault.matches("a", "b", "BlockMessage", 1.5)  # wrong kind


def test_wildcards_match_everything():
    fault = LinkFault(kind="loss", probability=1.0)
    assert fault.matches("anyone", "anywhere", "Whatever", 1e9)


def test_partition_severs_only_cross_group_during_window():
    part = Partition(groups=(("a", "b"), ("c",)), start=1.0, heal_at=5.0)
    assert part.severs("a", "c", 2.0)
    assert part.severs("c", "b", 2.0)
    assert not part.severs("a", "b", 2.0)       # same group
    assert not part.severs("a", "c", 0.5)       # not started
    assert not part.severs("a", "c", 5.0)       # healed
    assert not part.severs("a", "outsider", 2.0)  # ungrouped host


def test_unhealed_partition_stays_active():
    part = Partition(groups=(("a",), ("b",)), start=1.0, heal_at=None)
    assert part.severs("a", "b", 1e9)


def test_horizon_covers_scheduled_events_only():
    plan = (FaultPlan()
            .lose_links(0.1)                       # open-ended: ignored
            .lose_links(0.1, start=2.0, end=70.0)  # finite: counted
            .partition([["a"], ["b"]], start=10.0, heal_at=40.0)
            .crash("a", at=50.0, restart_at=60.0))
    assert plan.horizon() == 70.0
    assert FaultPlan().horizon() == 0.0
    assert math.isfinite(FaultPlan().lose_links(0.5).horizon())
