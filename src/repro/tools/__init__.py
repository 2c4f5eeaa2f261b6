"""Operator tooling.

* :mod:`repro.tools.explorer` — render chains, blocks, and BcWAN
  transaction types as text (the missing ``multichain-cli`` equivalent);
* :mod:`repro.tools.experiment` — a command-line front end to the
  paper's experiments (``bcwan-experiment fig5 ...``).
"""

from repro.tools.explorer import (
    describe_output,
    format_block,
    format_chain_summary,
    format_transaction,
    scan_key_releases,
)

__all__ = [
    "describe_output",
    "format_block",
    "format_chain_summary",
    "format_transaction",
    "scan_key_releases",
]
