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
    "MAX_PAYLOAD_BYTES",
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

# The one radio setting of the paper's testbed (§5.2, EU868), in
# AN1200.13's terms: 125 kHz bandwidth, coding rate CR = 1 (4/5), an
# 8-symbol programmed preamble, an explicit PHY header (IH = 0) and the
# payload CRC on (CRC = 1).
BANDWIDTH_HZ = 125_000
CODING_RATE = 1
PREAMBLE_SYMBOLS = 8
IMPLICIT_HEADER = 0
CRC_ON = 1

# The most payload one LoRa PHY frame carries: its explicit header counts
# the payload in one byte (SX1276 data sheet, ``RegPayloadLength``).
MAX_PAYLOAD_BYTES = 255

# ``(spreading factor, payload bytes) -> time on air``: a frame's airtime
# is computed once per size, then looked up (a radio asks for it once to
# book its duty cycle and the channel once more to schedule the frame's
# end).
_AIRTIMES: dict[tuple[int, int], float] = {}


class SpreadingFactor(int):
    """A LoRa spreading factor in [7, 12]."""

    def __new__(cls, value: int) -> "SpreadingFactor":
        if not 7 <= value <= 12:
            raise ConfigurationError(f"spreading factor out of range: {value}")
        return super().__new__(cls, value)


@dataclass(frozen=True)
class LoRaModulation:
    """A LoRa modulation at the testbed's fixed PHY setting.

    :param spreading_factor: 7-12 (the paper uses SF7).  Everything else
        is a module constant: ``BANDWIDTH_HZ``, ``CODING_RATE``,
        ``PREAMBLE_SYMBOLS``, ``IMPLICIT_HEADER`` and ``CRC_ON``; low data
        rate optimisation is on for SF11/12.
    """

    spreading_factor: int = 7

    def __post_init__(self) -> None:
        SpreadingFactor(self.spreading_factor)

    @property
    def symbol_time(self) -> float:
        """Seconds per symbol: ``2^SF / BW``."""
        return (1 << self.spreading_factor) / BANDWIDTH_HZ

    @property
    def low_data_rate_optimize(self) -> bool:
        """Mandatory when the symbol time exceeds 16 ms (SF11/12 @125 kHz)."""
        return self.symbol_time > 0.016

    @property
    def preamble_time(self) -> float:
        """Preamble duration: ``(n_preamble + 4.25) * T_sym``."""
        return (PREAMBLE_SYMBOLS + 4.25) * self.symbol_time

    def payload_symbols(self, payload_bytes: int) -> int:
        """Symbol count of the payload part (AN1200.13 formula)."""
        if payload_bytes < 0:
            raise ConfigurationError(f"negative payload: {payload_bytes}")
        sf = self.spreading_factor
        de = 2 if self.low_data_rate_optimize else 0
        numerator = (8 * payload_bytes - 4 * sf + 28 + 16 * CRC_ON
                     - 20 * IMPLICIT_HEADER)
        denominator = 4 * (sf - de)
        extra = max(math.ceil(numerator / denominator), 0) * (CODING_RATE + 4)
        return 8 + extra

    def time_on_air(self, payload_bytes: int) -> float:
        """Total frame airtime in seconds for ``payload_bytes`` of payload."""
        key = (self.spreading_factor, payload_bytes)
        airtime = _AIRTIMES.get(key)
        if airtime is None:
            airtime = _AIRTIMES[key] = (
                self.preamble_time
                + self.payload_symbols(payload_bytes) * self.symbol_time)
        return airtime

    @property
    def nominal_bitrate(self) -> float:
        """Nominal LoRa bit rate: ``SF * (BW / 2^SF) * CR_ratio`` (bit/s).

        SF7/125 kHz/CR4/5 gives the familiar 5469 bit/s figure.
        """
        sf = self.spreading_factor
        cr_ratio = 4 / (4 + CODING_RATE)
        return sf * (BANDWIDTH_HZ / (1 << sf)) * cr_ratio

    def nominal_time_on_air(self, payload_bytes: int) -> float:
        """Airtime under the nominal-bitrate approximation (paper-style)."""
        return payload_bytes * 8 / self.nominal_bitrate
