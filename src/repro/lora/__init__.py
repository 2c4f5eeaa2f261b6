"""LoRa PHY/MAC simulation.

* :mod:`repro.lora.phy` — modulation, time-on-air (Semtech AN1200.13),
  per-SF sensitivities;
* :mod:`repro.lora.dutycycle` — the 1 % regulatory duty cycle;
* :mod:`repro.lora.channel` — shared medium, path loss, collisions;
* :mod:`repro.lora.frames` — the BcWAN frame formats of Fig. 3;
* :mod:`repro.lora.device` — the per-device radio facade.
"""

from repro.lora.channel import (
    Listener,
    PathLossModel,
    Position,
    RadioChannel,
    Transmission,
)
from repro.lora.device import (
    EU868_DOWNLINK_CHANNEL,
    EU868_DOWNLINK_DUTY_CYCLE,
    EU868_UPLINK_CHANNELS,
    LoRaRadio,
)
from repro.lora.dutycycle import DutyCycleLimiter, max_messages_per_hour
from repro.lora.frames import (
    HEADER_BYTES,
    DataFrame,
    KeyRequestFrame,
    KeyResponseFrame,
    LoRaFrame,
)
from repro.lora.phy import (
    SENSITIVITY_DBM,
    SNR_THRESHOLD_DB,
    LoRaModulation,
    SpreadingFactor,
)

__all__ = [
    "DataFrame",
    "DutyCycleLimiter",
    "EU868_DOWNLINK_CHANNEL",
    "EU868_DOWNLINK_DUTY_CYCLE",
    "EU868_UPLINK_CHANNELS",
    "HEADER_BYTES",
    "KeyRequestFrame",
    "KeyResponseFrame",
    "Listener",
    "LoRaFrame",
    "LoRaModulation",
    "LoRaRadio",
    "PathLossModel",
    "Position",
    "RadioChannel",
    "SENSITIVITY_DBM",
    "SNR_THRESHOLD_DB",
    "SpreadingFactor",
    "Transmission",
    "max_messages_per_hour",
]
