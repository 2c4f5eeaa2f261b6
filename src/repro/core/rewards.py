"""Delivery pricing — the "fixed or negotiated" output of Fig. 3 step 9.

The paper leaves the payment amount open: "The recipient creates a
transaction in the Blockchain with a given output (**fixed or negotiated
with the gateway**)".  This module supplies both:

* :class:`FixedPricing` — the PoC behaviour, one constant price;
* :class:`CongestionPricing` — a gateway quotes more when its daemon
  queue is long (surge pricing for busy cells);
* :class:`VolumeDiscountPricing` — repeat customers pay less per message.

The negotiation itself is a single round: the gateway quotes a price in
its :class:`~repro.p2p.message.DeliveryMessage`; the recipient accepts if
the quote is within its :class:`RecipientBudget`, otherwise it refuses
the delivery (the gateway keeps the ciphertext, which is worthless to
it, and the recipient keeps its money — fairness is preserved either
way).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol

from repro.errors import ConfigurationError

__all__ = [
    "PricingPolicy",
    "FixedPricing",
    "CongestionPricing",
    "VolumeDiscountPricing",
    "RecipientBudget",
]


class PricingPolicy(Protocol):
    """Quotes the price of delivering one message for a recipient."""

    def quote(self, recipient_address: str, queue_length: int) -> int:
        ...


@dataclass(frozen=True)
class FixedPricing:
    """One constant price per delivery (the paper's PoC)."""

    price: int = 100

    def __post_init__(self) -> None:
        if self.price <= 0:
            raise ConfigurationError(f"price must be positive: {self.price}")

    def quote(self, recipient_address: str, queue_length: int) -> int:
        return self.price


@dataclass(frozen=True)
class CongestionPricing:
    """Base price plus a surcharge per queued daemon job.

    A gateway whose blockchain daemon is drowning (e.g. mid block
    verification storm) quotes more; recipients with tight budgets then
    naturally back off to quieter gateways.
    """

    base_price: int = 100
    surcharge_per_job: int = 10
    max_multiplier: float = 4.0

    def __post_init__(self) -> None:
        if self.base_price <= 0:
            raise ConfigurationError(
                f"base price must be positive: {self.base_price}"
            )
        if self.surcharge_per_job < 0:
            raise ConfigurationError(
                f"surcharge cannot be negative: {self.surcharge_per_job}"
            )
        if self.max_multiplier < 1.0:
            raise ConfigurationError(
                f"max multiplier must be >= 1: {self.max_multiplier}"
            )

    def quote(self, recipient_address: str, queue_length: int) -> int:
        quoted = self.base_price + self.surcharge_per_job * queue_length
        ceiling = int(self.base_price * self.max_multiplier)
        return min(quoted, ceiling)


@dataclass
class VolumeDiscountPricing:
    """Per-recipient discount that deepens with delivered volume."""

    base_price: int = 100
    discount_per_delivery: float = 0.01
    floor_fraction: float = 0.5
    _delivered: dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.base_price <= 0:
            raise ConfigurationError(
                f"base price must be positive: {self.base_price}"
            )
        if not 0 <= self.discount_per_delivery < 1:
            raise ConfigurationError(
                f"discount rate out of range: {self.discount_per_delivery}"
            )
        if not 0 < self.floor_fraction <= 1:
            raise ConfigurationError(
                f"floor fraction out of range: {self.floor_fraction}"
            )

    def quote(self, recipient_address: str, queue_length: int) -> int:
        """This delivery's price; every quote counts towards the next one."""
        count = self._delivered.get(recipient_address, 0)
        self._delivered[recipient_address] = count + 1
        fraction = max(self.floor_fraction,
                       1.0 - self.discount_per_delivery * count)
        return max(1, int(self.base_price * fraction))


@dataclass(frozen=True)
class RecipientBudget:
    """The recipient side of the negotiation: accept quotes up to a cap."""

    max_price: int = 150

    def __post_init__(self) -> None:
        if self.max_price <= 0:
            raise ConfigurationError(
                f"max price must be positive: {self.max_price}"
            )

    def accepts(self, quoted_price: int) -> bool:
        return 0 < quoted_price <= self.max_price
