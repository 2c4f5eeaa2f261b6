"""Deterministic chaos engineering for the gateway mesh.

The federation of BcWAN gateways lives on real WANs: links lose, delay,
duplicate and corrupt frames; backbones partition; daemons crash and come
back with or without their disk.  This package injects exactly those
faults into a simulation — *deterministically*, from a single seed — and
checks that the recovery machinery (anti-entropy sync with timeouts and
backoff, orphan re-evaluation, crash/restart resync) actually restores
agreement.

Layout:

- :mod:`repro.chaos.faults` — the :class:`FaultPlan` DSL (pure data);
- :mod:`repro.chaos.injector` — :class:`ChaosInjector`, which interprets
  a plan through :class:`repro.p2p.network.WANetwork` interception hooks
  and the daemon crash/restart lifecycle;
- :mod:`repro.chaos.verify` — :func:`assert_converged`, the oracle;
- :mod:`repro.chaos.scenario` — :func:`build_federation`, the canned
  N-gateway mesh chaos tests run against.
"""

from repro.chaos.faults import (
    CorruptedPayload,
    CrashEvent,
    FaultPlan,
    LinkFault,
    Partition,
)
from repro.chaos.injector import ChaosInjector
from repro.chaos.scenario import Federation, build_federation
from repro.chaos.verify import (
    ConvergenceReport,
    assert_converged,
    assert_hierarchy_converged,
    chain_digest,
    utxo_digest,
)

__all__ = [
    "FaultPlan",
    "LinkFault",
    "Partition",
    "CrashEvent",
    "CorruptedPayload",
    "ChaosInjector",
    "Federation",
    "build_federation",
    "ConvergenceReport",
    "assert_converged",
    "assert_hierarchy_converged",
    "chain_digest",
    "utxo_digest",
]
