"""Threat models from the paper's discussion (§6).

* :mod:`repro.attacks.double_spend` — the zero-confirmation race a
  malicious recipient can win;
* :mod:`repro.attacks.bruteforce` — RSA-512 factoring economics
  (Valenta et al. anchor + GNFS scaling).
"""

from repro.attacks.bruteforce import (
    KeySizeEconomics,
    factoring_cost_usd,
    gnfs_work,
)
from repro.attacks.double_spend import DoubleSpendResult, run_double_spend

__all__ = [
    "DoubleSpendResult",
    "KeySizeEconomics",
    "factoring_cost_usd",
    "gnfs_work",
    "run_double_spend",
]
