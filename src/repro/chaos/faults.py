"""The fault-plan DSL: *what* goes wrong, *when*, declaratively.

A :class:`FaultPlan` is pure data — a seed plus lists of fault specs —
with fluent builder methods so scenarios read like prose::

    plan = (FaultPlan(seed=7)
            .partition([["gw-0", "gw-1"], ["gw-2", "gw-3"]],
                       start=10.0, heal_at=40.0)
            .lose_links(probability=0.2, start=0.0, end=60.0)
            .crash("gw-1", at=50.0, restart_at=60.0, preserve_chain=False))

Plans never touch the simulator: they are interpreted by
:class:`repro.chaos.injector.ChaosInjector`, which derives every random
draw from ``plan.seed`` alone.  The same plan against the same scenario
therefore yields a byte-identical fault schedule — determinism is the
load-bearing property here, because a chaos run that cannot be replayed
cannot be debugged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.errors import ConfigurationError

__all__ = [
    "FaultPlan",
    "LinkFault",
    "Partition",
    "CrashEvent",
    "CorruptedPayload",
]

ANY = "*"


@dataclass(frozen=True)
class CorruptedPayload:
    """What a corrupted frame decodes to: recognizably garbage.

    Daemons have no handler registered for this type, so a corrupted
    message is received, pays its delivery latency, and is then ignored —
    exactly how a frame that fails its checksum behaves.
    """

    original_kind: str


@dataclass(frozen=True)
class LinkFault:
    """A probabilistic fault on directed links, active inside a window.

    ``kind`` is one of ``loss`` (drop), ``corrupt`` (payload replaced by
    :class:`CorruptedPayload`), ``duplicate`` (``copies`` extra
    deliveries), ``delay`` (fixed ``extra_delay`` seconds) or ``reorder``
    (uniform random delay in ``[0, extra_delay]`` — enough spread to
    overtake later sends).  ``source``/``destination`` of ``"*"`` match
    any host; ``payload_kinds`` (class names) of ``()`` match any payload.
    """

    kind: str
    probability: float
    source: str = ANY
    destination: str = ANY
    start: float = 0.0
    end: float = math.inf
    extra_delay: float = 0.0
    copies: int = 1
    payload_kinds: tuple[str, ...] = ()

    _KINDS = ("loss", "corrupt", "duplicate", "delay", "reorder")

    def __post_init__(self) -> None:
        if self.kind not in self._KINDS:
            raise ConfigurationError(
                f"unknown link fault kind {self.kind!r}; "
                f"expected one of {self._KINDS}"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise ConfigurationError(
                f"fault probability must be in [0, 1], got {self.probability}"
            )
        if self.end < self.start:
            raise ConfigurationError(
                f"fault window ends ({self.end}) before it starts ({self.start})"
            )
        if self.kind in ("delay", "reorder") and self.extra_delay <= 0:
            raise ConfigurationError(
                f"{self.kind} fault needs a positive extra_delay"
            )
        if self.kind == "duplicate" and self.copies < 1:
            raise ConfigurationError("duplicate fault needs copies >= 1")

    def matches(self, source: str, destination: str, payload_kind: str,
                now: float) -> bool:
        if not self.start <= now < self.end:
            return False
        if self.source != ANY and self.source != source:
            return False
        if self.destination != ANY and self.destination != destination:
            return False
        if self.payload_kinds and payload_kind not in self.payload_kinds:
            return False
        return True


@dataclass(frozen=True)
class Partition:
    """A network split into disjoint host groups, healed at ``heal_at``.

    While active, any message between hosts of *different* groups is
    dropped (both directions).  Hosts in no group are unaffected.
    ``heal_at=None`` means the partition never heals within the run.
    """

    groups: tuple[tuple[str, ...], ...]
    start: float
    heal_at: Optional[float] = None

    def __post_init__(self) -> None:
        if len(self.groups) < 2:
            raise ConfigurationError("a partition needs at least two groups")
        seen: set[str] = set()
        for group in self.groups:
            for host in group:
                if host in seen:
                    raise ConfigurationError(
                        f"host {host!r} appears in two partition groups"
                    )
                seen.add(host)
        if self.heal_at is not None and self.heal_at <= self.start:
            raise ConfigurationError(
                f"partition heals ({self.heal_at}) before it starts "
                f"({self.start})"
            )

    def active(self, now: float) -> bool:
        if now < self.start:
            return False
        return self.heal_at is None or now < self.heal_at

    def severs(self, source: str, destination: str, now: float) -> bool:
        if not self.active(now):
            return False
        src_group = dst_group = None
        for index, group in enumerate(self.groups):
            if source in group:
                src_group = index
            if destination in group:
                dst_group = index
        if src_group is None or dst_group is None:
            return False
        return src_group != dst_group


@dataclass(frozen=True)
class CrashEvent:
    """Fail-stop a gateway at ``at``; optionally restart at ``restart_at``.

    ``preserve_chain=True`` models a daemon whose block store survived
    (the daemon writes it at the crash and replays it into the same node
    on restart); ``False`` is total state loss — the gateway returns at
    genesis and must re-sync everything.
    """

    host: str
    at: float
    restart_at: Optional[float] = None
    preserve_chain: bool = False

    def __post_init__(self) -> None:
        if self.restart_at is not None and self.restart_at <= self.at:
            raise ConfigurationError(
                f"restart ({self.restart_at}) not after crash ({self.at})"
            )


@dataclass
class FaultPlan:
    """A seeded, declarative schedule of faults for one run."""

    seed: int = 0
    link_faults: list = field(default_factory=list)
    partitions: list = field(default_factory=list)
    crashes: list = field(default_factory=list)

    # -- fluent builders ---------------------------------------------------------

    def add_link_fault(self, fault: LinkFault) -> "FaultPlan":
        self.link_faults.append(fault)
        return self

    def lose_links(self, probability: float, source: str = ANY,
                   destination: str = ANY, start: float = 0.0,
                   end: float = math.inf,
                   payload_kinds: Sequence[str] = ()) -> "FaultPlan":
        return self.add_link_fault(LinkFault(
            kind="loss", probability=probability, source=source,
            destination=destination, start=start, end=end,
            payload_kinds=tuple(payload_kinds)))

    def corrupt_links(self, probability: float, source: str = ANY,
                      destination: str = ANY, start: float = 0.0,
                      end: float = math.inf,
                      payload_kinds: Sequence[str] = ()) -> "FaultPlan":
        return self.add_link_fault(LinkFault(
            kind="corrupt", probability=probability, source=source,
            destination=destination, start=start, end=end,
            payload_kinds=tuple(payload_kinds)))

    def duplicate_links(self, probability: float, copies: int = 1,
                        source: str = ANY, destination: str = ANY,
                        start: float = 0.0,
                        end: float = math.inf) -> "FaultPlan":
        return self.add_link_fault(LinkFault(
            kind="duplicate", probability=probability, copies=copies,
            source=source, destination=destination, start=start, end=end))

    def delay_links(self, probability: float, extra_delay: float,
                    source: str = ANY, destination: str = ANY,
                    start: float = 0.0, end: float = math.inf) -> "FaultPlan":
        return self.add_link_fault(LinkFault(
            kind="delay", probability=probability, extra_delay=extra_delay,
            source=source, destination=destination, start=start, end=end))

    def reorder_links(self, probability: float, spread: float,
                      source: str = ANY, destination: str = ANY,
                      start: float = 0.0, end: float = math.inf) -> "FaultPlan":
        return self.add_link_fault(LinkFault(
            kind="reorder", probability=probability, extra_delay=spread,
            source=source, destination=destination, start=start, end=end))

    def partition(self, groups: Sequence[Sequence[str]], start: float,
                  heal_at: Optional[float] = None) -> "FaultPlan":
        self.partitions.append(Partition(
            groups=tuple(tuple(group) for group in groups),
            start=start, heal_at=heal_at))
        return self

    def crash(self, host: str, at: float, restart_at: Optional[float] = None,
              preserve_chain: bool = False) -> "FaultPlan":
        self.crashes.append(CrashEvent(
            host=host, at=at, restart_at=restart_at,
            preserve_chain=preserve_chain))
        return self

    # -- inspection --------------------------------------------------------------

    def horizon(self) -> float:
        """The time of the last *scheduled* fault event.

        Probabilistic link faults with open-ended windows do not count —
        only finite bounds do.  Reconvergence is measured from here.
        """
        times = [0.0]
        for partition in self.partitions:
            times.append(partition.start)
            if partition.heal_at is not None:
                times.append(partition.heal_at)
        for crash in self.crashes:
            times.append(crash.at)
            if crash.restart_at is not None:
                times.append(crash.restart_at)
        for fault in self.link_faults:
            for bound in (fault.start, fault.end):
                if math.isfinite(bound):
                    times.append(bound)
        return max(times)

    @property
    def empty(self) -> bool:
        return not (self.link_faults or self.partitions or self.crashes)
