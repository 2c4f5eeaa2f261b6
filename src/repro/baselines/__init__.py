"""Comparison systems.

* :mod:`repro.baselines.lorawan` — the centralized Fig. 1 architecture
  (fast, but no roaming without a shared operator);
* :mod:`repro.baselines.altruistic` — Durand et al.'s incentive-free
  blockchain directory (delivery tracks gateway goodwill);
* :mod:`repro.baselines.reputation` — the pay-first reputation scheme the
  paper's §4.4 argues "does not eliminate the problem".
"""

from repro.baselines.altruistic import AltruisticBaseline
from repro.baselines.lorawan import LoRaWANBaseline
from repro.baselines.reputation import (
    ReputationExchange,
    ReputationOutcome,
    ReputationReport,
)

__all__ = [
    "AltruisticBaseline",
    "LoRaWANBaseline",
    "ReputationExchange",
    "ReputationOutcome",
    "ReputationReport",
]
