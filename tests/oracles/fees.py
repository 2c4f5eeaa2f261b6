"""Fee-paying spends from a wallet that pays none.

BcWAN's Multichain charges no fees, so every spend a ``SingleKeyWallet``
builds leaves ``FEE = 0`` to the miner.  The ledger still takes fees from
outside: the engine checks them, the mempool records them and the miner
claims them in its coinbase.  The tests of that side build their
fee-paying spends through :func:`paying_fee`.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

__all__ = ["paying_fee"]


@contextmanager
def paying_fee(wallet, fee: int) -> Iterator[None]:
    """Every spend ``wallet`` builds inside the block leaves ``fee``."""
    wallet.FEE = fee
    try:
        yield
    finally:
        del wallet.FEE
