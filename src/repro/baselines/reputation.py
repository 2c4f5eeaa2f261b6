"""The reputation-based exchange the paper considers and rejects (§4.4).

"A solution for this problem could be the usage of reputation. ... This
solution reduces the probability of misbehavior but does not eliminate
the problem."  This module makes the comparison quantitative: recipients
pay *first* (plain payment, no script protection) and gateways deliver —
or defect, keeping the payment.  Recipients track per-gateway reputation
and stop paying gateways below a threshold.

Against BcWAN's zero value-at-risk, the reputation scheme loses the
payments made before a defector's score crosses the threshold, and loses
all deliveries routed through blacklisted gateways afterwards.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.errors import ConfigurationError

__all__ = ["ReputationExchange", "ReputationOutcome", "ReputationReport"]


@dataclass
class ReputationOutcome:
    """One pay-first exchange attempt."""

    gateway: str
    paid: bool
    delivered: bool
    rating_after: float


@dataclass
class ReputationReport:
    """Aggregate results of a reputation-scheme simulation."""

    attempts: int = 0
    paid: int = 0
    delivered: int = 0
    stolen_payments: int = 0
    refused_low_reputation: int = 0
    outcomes: list[ReputationOutcome] = field(default_factory=list)

    @property
    def loss_rate(self) -> float:
        """Fraction of payments made that bought no delivery."""
        return self.stolen_payments / self.paid if self.paid else 0.0

    @property
    def delivery_rate(self) -> float:
        return self.delivered / self.attempts if self.attempts else 0.0


class ReputationExchange:
    """Pay-first exchanges guarded only by an EWMA reputation score.

    :param gateway_honesty: per-gateway probability of delivering after
        being paid (1.0 = honest, 0.0 = pure thief).
    :param threshold: recipients refuse to pay gateways scoring below this.

    Deliveries are drawn from ``rng``, seeded 0; a test that wants another
    draw sets it on the instance.
    """

    # Initial reputation of a gateway nobody has dealt with yet, and the
    # EWMA weight of the newest observation.
    OPTIMISM = 1.0
    SMOOTHING = 0.25

    def __init__(self, gateway_honesty: dict[str, float],
                 threshold: float = 0.5) -> None:
        for name, honesty in gateway_honesty.items():
            if not 0 <= honesty <= 1:
                raise ConfigurationError(
                    f"honesty of {name} out of range: {honesty}"
                )
        if not 0 <= threshold <= 1:
            raise ConfigurationError(f"threshold out of range: {threshold}")
        if not 0 < self.SMOOTHING <= 1:
            raise ConfigurationError(
                f"smoothing out of range: {self.SMOOTHING}")
        self.gateway_honesty = dict(gateway_honesty)
        self.threshold = threshold
        self.rng = random.Random(0)
        self.reputation: dict[str, float] = {
            name: self.OPTIMISM for name in gateway_honesty
        }

    def attempt(self, gateway: str, report: ReputationReport) -> ReputationOutcome:
        """One exchange through ``gateway``, updating reputation."""
        if gateway not in self.gateway_honesty:
            raise ConfigurationError(f"unknown gateway: {gateway}")
        report.attempts += 1
        score = self.reputation[gateway]
        if score < self.threshold:
            report.refused_low_reputation += 1
            outcome = ReputationOutcome(
                gateway=gateway, paid=False, delivered=False,
                rating_after=score,
            )
            report.outcomes.append(outcome)
            return outcome

        report.paid += 1
        delivered = self.rng.random() < self.gateway_honesty[gateway]
        observation = 1.0 if delivered else 0.0
        score = (1 - self.SMOOTHING) * score + self.SMOOTHING * observation
        self.reputation[gateway] = score
        if delivered:
            report.delivered += 1
        else:
            report.stolen_payments += 1
        outcome = ReputationOutcome(
            gateway=gateway, paid=True, delivered=delivered,
            rating_after=score,
        )
        report.outcomes.append(outcome)
        return outcome

    def simulate(self, exchanges_per_gateway: int = 100) -> ReputationReport:
        """Round-robin exchanges across all gateways."""
        report = ReputationReport()
        gateways = sorted(self.gateway_honesty)
        for _round in range(exchanges_per_gateway):
            for gateway in gateways:
                self.attempt(gateway, report)
        return report
