"""Wide-area link latency models.

The paper ran its gateways on five PlanetLab nodes and a master on AWS
EC2; inter-site latency dominates the no-verification exchange time.
PlanetLab RTTs are famously heavy-tailed, which the lognormal model here
captures; the latency matrix assigns each site pair its own distribution,
seeded deterministically.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Protocol

from repro.errors import ConfigurationError

__all__ = [
    "LatencyModel",
    "ConstantLatency",
    "PlanetLabLatencyMatrix",
]


class LatencyModel(Protocol):
    """One-way delay, in seconds, for a message between two endpoints."""

    def sample(self, source: str, destination: str,
               rng: random.Random) -> float:
        ...


@dataclass(frozen=True)
class ConstantLatency:
    """Fixed one-way delay (useful in tests)."""

    delay: float = 0.05

    def sample(self, source: str, destination: str,
               rng: random.Random) -> float:
        return 0.0 if source == destination else self.delay


class PlanetLabLatencyMatrix:
    """Per-pair lognormal delays over a set of named sites.

    Each unordered site pair gets a median drawn once (deterministically
    from ``seed``) from ``median_range``, then per-message jitter is
    lognormal around that median — approximating the stable-but-distinct
    RTTs between PlanetLab sites.
    """

    # Lognormal shape of the per-message jitter, and the minimum
    # physically-possible delay.
    SIGMA = 0.35
    FLOOR = 0.004

    def __init__(self, sites: list[str], seed: int = 0,
                 median_range: tuple[float, float] = (0.020, 0.120)) -> None:
        if median_range[0] <= 0 or median_range[0] > median_range[1]:
            raise ConfigurationError(f"bad median range: {median_range}")
        self.sites = list(sites)
        seeder = random.Random(seed)
        self._medians: dict[frozenset[str], float] = {}
        for i, a in enumerate(self.sites):
            for b in self.sites[i + 1:]:
                self._medians[frozenset((a, b))] = seeder.uniform(*median_range)
        self._default_range = median_range
        self._seeder = seeder

    def median_for(self, source: str, destination: str) -> float:
        """The stable median delay between two sites (creating if new)."""
        key = frozenset((source, destination))
        median = self._medians.get(key)
        if median is None:
            median = self._seeder.uniform(*self._default_range)
            self._medians[key] = median
        return median

    def sample(self, source: str, destination: str,
               rng: random.Random) -> float:
        if source == destination:
            return 0.0
        median = self.median_for(source, destination)
        return max(self.FLOOR, rng.lognormvariate(math.log(median), self.SIGMA))
