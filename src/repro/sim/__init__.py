"""Deterministic discrete-event simulation substrate.

* :mod:`repro.sim.core` — the event loop, processes (generators), timeouts;
* :mod:`repro.sim.rng` — named seeded random streams;
* :mod:`repro.sim.latency` — wide-area latency models (PlanetLab-like).
"""

from repro.sim.core import (
    AnyOf,
    Event,
    Process,
    SimulationError,
    Simulator,
    Timeout,
)
from repro.sim.latency import (
    ConstantLatency,
    LatencyModel,
    PlanetLabLatencyMatrix,
)
from repro.sim.rng import RngRegistry

__all__ = [
    "AnyOf",
    "ConstantLatency",
    "Event",
    "LatencyModel",
    "PlanetLabLatencyMatrix",
    "Process",
    "RngRegistry",
    "SimulationError",
    "Simulator",
    "Timeout",
]
