"""LoRa physical layer: modulation parameters and time-on-air.

Implements the Semtech SX127x time-on-air formula (AN1200.13) plus the
nominal-bitrate approximation the paper's capacity figure appears to use
(30 sensors/gateway at SF7, 1 % duty cycle, "183 messages per sensor per
hour" for a 132-byte frame — see ``benchmarks/test_setup_capacity.py`` for
the comparison).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigurationError

__all__ = [
    "SpreadingFactor",
    "LoRaModulation",
    "SENSITIVITY_DBM",
    "SNR_THRESHOLD_DB",
]

# Receiver sensitivity (dBm) per spreading factor at 125 kHz (SX1276 data
# sheet, typical values).
SENSITIVITY_DBM = {7: -123.0, 8: -126.0, 9: -129.0, 10: -132.0,
                   11: -134.5, 12: -137.0}

# Minimum SNR (dB) for demodulation per spreading factor.
SNR_THRESHOLD_DB = {7: -7.5, 8: -10.0, 9: -12.5, 10: -15.0,
                    11: -17.5, 12: -20.0}


class SpreadingFactor(int):
    """A LoRa spreading factor in [7, 12]."""

    def __new__(cls, value: int) -> "SpreadingFactor":
        if not 7 <= value <= 12:
            raise ConfigurationError(f"spreading factor out of range: {value}")
        return super().__new__(cls, value)


@dataclass(frozen=True)
class LoRaModulation:
    """A LoRa modulation configuration.

    :param spreading_factor: 7-12 (the paper uses SF7).
    :param bandwidth_hz: 125000, 250000 or 500000.
    :param coding_rate: 1-4, meaning 4/(4+CR).
    :param preamble_symbols: programmed preamble length (8 default).
    :param explicit_header: LoRa PHY header present (True for uplinks).
    :param crc: payload CRC present.
    :param low_data_rate_optimize: forced on for SF11/12 at 125 kHz.
    """

    spreading_factor: int = 7
    bandwidth_hz: int = 125_000
    coding_rate: int = 1
    preamble_symbols: int = 8
    explicit_header: bool = True
    crc: bool = True

    def __post_init__(self) -> None:
        SpreadingFactor(self.spreading_factor)
        if self.bandwidth_hz not in (125_000, 250_000, 500_000):
            raise ConfigurationError(f"unsupported bandwidth: {self.bandwidth_hz}")
        if not 1 <= self.coding_rate <= 4:
            raise ConfigurationError(f"coding rate out of range: {self.coding_rate}")
        if self.preamble_symbols < 6:
            raise ConfigurationError(
                f"preamble too short: {self.preamble_symbols} symbols"
            )

    @property
    def symbol_time(self) -> float:
        """Seconds per symbol: ``2^SF / BW``."""
        return (1 << self.spreading_factor) / self.bandwidth_hz

    @property
    def low_data_rate_optimize(self) -> bool:
        """Mandatory when the symbol time exceeds 16 ms (SF11/12 @125 kHz)."""
        return self.symbol_time > 0.016

    @property
    def preamble_time(self) -> float:
        """Preamble duration: ``(n_preamble + 4.25) * T_sym``."""
        return (self.preamble_symbols + 4.25) * self.symbol_time

    def payload_symbols(self, payload_bytes: int) -> int:
        """Symbol count of the payload part (AN1200.13 formula)."""
        if payload_bytes < 0:
            raise ConfigurationError(f"negative payload: {payload_bytes}")
        sf = self.spreading_factor
        de = 2 if self.low_data_rate_optimize else 0
        ih = 0 if self.explicit_header else 1
        crc = 1 if self.crc else 0
        numerator = 8 * payload_bytes - 4 * sf + 28 + 16 * crc - 20 * ih
        denominator = 4 * (sf - de)
        extra = max(math.ceil(numerator / denominator), 0) * (self.coding_rate + 4)
        return 8 + extra

    def time_on_air(self, payload_bytes: int) -> float:
        """Total frame airtime in seconds for ``payload_bytes`` of payload."""
        return (self.preamble_time
                + self.payload_symbols(payload_bytes) * self.symbol_time)

    @property
    def nominal_bitrate(self) -> float:
        """Nominal LoRa bit rate: ``SF * (BW / 2^SF) * CR_ratio`` (bit/s).

        SF7/125 kHz/CR4/5 gives the familiar 5469 bit/s figure.
        """
        sf = self.spreading_factor
        cr_ratio = 4 / (4 + self.coding_rate)
        return sf * (self.bandwidth_hz / (1 << sf)) * cr_ratio

    def nominal_time_on_air(self, payload_bytes: int) -> float:
        """Airtime under the nominal-bitrate approximation (paper-style)."""
        return payload_bytes * 8 / self.nominal_bitrate
