"""Chain parameters — the Multichain-style tunables.

The paper picked Multichain precisely because it exposes "the average
mining time, the size of a block or the consensus" as parameters (section
5.1), and its evaluation hinges on one more: whether block verification is
enabled (Figs. 5 vs 6).  All of those are first-class fields here.  The
block subsidy is not: every chain of the deployment pays the same one,
:data:`COINBASE_REWARD`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError

__all__ = ["ChainParams", "COIN", "COINBASE_REWARD"]

# Smallest currency unit multiplier (like satoshi per coin).
COIN = 100_000_000

# Subsidy per block, in base units: what the miner pays itself and the
# engine's ceiling on a coinbase, fees aside.
COINBASE_REWARD = 50 * COIN


@dataclass(frozen=True)
class ChainParams:
    """Consensus and performance parameters of a BcWAN chain.

    :param block_interval: target seconds between blocks (the paper's AWS
        master mines on a schedule; Multichain default is 15 s).
    :param max_block_size: serialized block size limit in bytes.
    :param coinbase_maturity: blocks before a coinbase output is spendable.
    :param verify_blocks: whether nodes re-verify every script in incoming
        blocks.  The paper disables this to isolate BcWAN's own latency
        (Fig. 5) and enables it for Fig. 6.
    :param verification_stall_base: modeled seconds of daemon stall per
        incoming block when ``verify_blocks`` is on (the Multichain daemon
        "stall[s] and become[s] unresponsive for extended periods upon each
        block arrival", section 5.2).
    :param verification_stall_per_tx: additional stall seconds per
        transaction in the verified block.
    :param locktime_grace: default refund window in blocks for the
        ephemeral-key-release script (the paper's ``block_height + 100``).
    """

    block_interval: float = 15.0
    max_block_size: int = 1_000_000
    coinbase_maturity: int = 1
    verify_blocks: bool = False
    verification_stall_base: float = 8.0
    verification_stall_per_tx: float = 0.055
    locktime_grace: int = 100

    def __post_init__(self) -> None:
        if self.block_interval <= 0:
            raise ConfigurationError(
                f"block interval must be positive: {self.block_interval}"
            )
        if self.max_block_size < 1_000:
            raise ConfigurationError(
                f"max block size too small: {self.max_block_size}"
            )
        if self.coinbase_maturity < 0:
            raise ConfigurationError(
                f"coinbase maturity must be non-negative: {self.coinbase_maturity}"
            )
        if self.verification_stall_base < 0 or self.verification_stall_per_tx < 0:
            raise ConfigurationError("verification stall times must be non-negative")
        if self.locktime_grace <= 0:
            raise ConfigurationError(
                f"locktime grace must be positive: {self.locktime_grace}"
            )

    def verification_stall(self, tx_count: int) -> float:
        """Seconds a daemon stalls verifying a block of ``tx_count`` txs.

        Pure arithmetic — whether verification runs at all is the caller's
        decision (a daemon may override the chain-wide ``verify_blocks``).
        """
        return (self.verification_stall_base
                + self.verification_stall_per_tx * tx_count)


DEFAULT_PARAMS = ChainParams()
