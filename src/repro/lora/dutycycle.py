"""Regulatory duty-cycle enforcement.

The EU 868 MHz ISM sub-bands the paper operates in impose a 1 % duty
cycle: after a transmission of airtime ``t``, a device must stay off the
air for ``t * (1/duty - 1)`` seconds.  This caps a sensor's throughput —
the paper's "theoretical maximum of 183 messages per sensor per hour" at
SF7 falls straight out of this arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError

__all__ = ["DutyCycleLimiter", "max_messages_per_hour"]


def max_messages_per_hour(time_on_air: float, duty_cycle: float = 0.01) -> float:
    """Theoretical message-rate ceiling for a given frame airtime."""
    if time_on_air <= 0:
        raise ConfigurationError(f"time on air must be positive: {time_on_air}")
    if not 0 < duty_cycle <= 1:
        raise ConfigurationError(f"duty cycle out of range: {duty_cycle}")
    return 3600.0 * duty_cycle / time_on_air


@dataclass
class DutyCycleLimiter:
    """Tracks when a radio may next transmit.

    Usage: call :meth:`next_allowed` to learn the earliest permitted start,
    and :meth:`register` after each transmission.
    """

    duty_cycle: float = 0.01
    _not_before: float = field(default=0.0, init=False)
    total_airtime: float = field(default=0.0, init=False)
    transmissions: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        if not 0 < self.duty_cycle <= 1:
            raise ConfigurationError(
                f"duty cycle out of range: {self.duty_cycle}"
            )

    def next_allowed(self, now: float) -> float:
        """Earliest time a transmission may start."""
        return max(now, self._not_before)

    def wait_time(self, now: float) -> float:
        """Seconds until transmission is permitted (0 if allowed now)."""
        wait = self._not_before - now
        return wait if wait > 0.0 else 0.0  # max(0.0, wait), with no call

    def register(self, start: float, time_on_air: float) -> None:
        """Account a transmission beginning at ``start``.

        The off-period rule is the ETSI per-transmission form:
        ``T_off = T_air / duty - T_air``.
        """
        if time_on_air < 0:
            raise ConfigurationError(f"negative airtime: {time_on_air}")
        if start < self._not_before:
            raise ConfigurationError(
                f"transmission at {start:.3f} violates duty cycle "
                f"(allowed from {self._not_before:.3f})"
            )
        off_period = time_on_air / self.duty_cycle - time_on_air
        self._not_before = start + time_on_air + off_period
        self.total_airtime += time_on_air
        self.transmissions += 1
