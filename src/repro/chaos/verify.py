"""Convergence checking: did the federation actually heal?

`assert_converged` is the chaos suite's oracle.  It demands more than
equal heights — heights can match across divergent branches (exactly the
split-brain a partition leaves behind), so agreement is checked on the
tip hash, the full active-chain digest, and the UTXO-set digest.  Digests
are computed over canonically ordered material, so two nodes that agree
on state produce identical hex strings regardless of insertion order.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

__all__ = ["ConvergenceReport", "chain_digest", "utxo_digest",
           "assert_converged", "assert_hierarchy_converged"]


def chain_digest(chain) -> str:
    """SHA-256 over the active chain's ``height:hash`` sequence."""
    hasher = hashlib.sha256()
    for height, block in chain.iter_active_blocks(start_height=0):
        hasher.update(height.to_bytes(8, "big"))
        hasher.update(block.hash)
    return hasher.hexdigest()


def utxo_digest(chain) -> str:
    """SHA-256 over the UTXO set in canonical ``(txid, index)`` order."""
    hasher = hashlib.sha256()
    entries = sorted(chain.utxos.items(),
                     key=lambda item: (item[0].txid, item[0].index))
    for outpoint, entry in entries:
        hasher.update(outpoint.txid)
        hasher.update(outpoint.index.to_bytes(8, "big"))
        # entry_hash covers the output; height/coinbase-ness are contextual
        # state two nodes must also agree on, so fold them in explicitly.
        hasher.update(entry.entry_hash)
        hasher.update(entry.height.to_bytes(8, "big"))
        hasher.update(b"\x01" if entry.is_coinbase else b"\x00")
    return hasher.hexdigest()


@dataclass(frozen=True)
class ConvergenceReport:
    """The agreed state (only produced when everyone agrees)."""

    height: int
    tip_hash: bytes
    chain_digest: str
    utxo_digest: str
    participants: tuple[str, ...]


def assert_converged(daemons) -> ConvergenceReport:
    """Assert every daemon agrees on chain state; return the agreed state.

    ``daemons`` is an iterable of :class:`~repro.core.daemon.BlockchainDaemon`
    (or a name->daemon mapping).  Raises :class:`AssertionError` with a
    per-node state table on any disagreement — the table is the first
    thing you want when a chaos scenario fails.
    """
    if hasattr(daemons, "values"):
        daemons = list(daemons.values())
    else:
        daemons = list(daemons)
    if not daemons:
        raise AssertionError("assert_converged needs at least one daemon")

    rows = []
    for daemon in daemons:
        if not daemon.online:
            raise AssertionError(
                f"daemon {daemon.name!r} is offline; a crashed gateway "
                f"cannot have converged (pass the survivors only)"
            )
        chain = daemon.node.chain
        rows.append((daemon.name, chain.height, chain.tip.hash,
                     chain_digest(chain), utxo_digest(chain)))

    reference = rows[0]
    mismatched = [row for row in rows[1:] if row[1:] != reference[1:]]
    if mismatched:
        table = "\n".join(
            f"  {name}: height={height} tip={tip.hex()[:16]}.. "
            f"chain={cdigest[:16]}.. utxo={udigest[:16]}.."
            for name, height, tip, cdigest, udigest in rows
        )
        raise AssertionError(f"federation has not converged:\n{table}")

    return ConvergenceReport(
        height=reference[1],
        tip_hash=reference[2],
        chain_digest=reference[3],
        utxo_digest=reference[4],
        participants=tuple(row[0] for row in rows),
    )


def assert_hierarchy_converged(groups) -> dict[str, ConvergenceReport]:
    """Per-chain convergence for a hierarchical federation.

    ``groups`` maps a chain label (``"region-0"``, ``"anchor"``, …) to
    the daemons following that chain — exactly the shape
    :meth:`repro.core.network.BcWANNetwork.convergence_groups` returns.
    Each group must converge *internally*; different groups follow
    different chains and are never compared to each other.  Returns the
    per-group reports; the failing group's name prefixes any assertion
    message so a cross-shard chaos failure points at the right chain.
    """
    if not groups:
        raise AssertionError(
            "assert_hierarchy_converged needs at least one group")
    reports: dict[str, ConvergenceReport] = {}
    for label, daemons in groups.items():
        try:
            reports[label] = assert_converged(daemons)
        except AssertionError as exc:
            raise AssertionError(f"[{label}] {exc}") from None
    return reports
