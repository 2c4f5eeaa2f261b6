"""LoRa PHY: time-on-air formula and modulation parameters."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.lora.dutycycle import max_messages_per_hour
from repro.lora.phy import (
    SENSITIVITY_DBM,
    SNR_THRESHOLD_DB,
    LoRaModulation,
    SpreadingFactor,
)


def test_spreading_factor_range():
    assert SpreadingFactor(7) == 7
    with pytest.raises(ConfigurationError):
        SpreadingFactor(6)
    with pytest.raises(ConfigurationError):
        SpreadingFactor(13)


def test_symbol_time_sf7():
    modulation = LoRaModulation(spreading_factor=7)
    assert modulation.symbol_time == pytest.approx(1.024e-3)


def test_symbol_time_scales_with_sf():
    t7 = LoRaModulation(spreading_factor=7).symbol_time
    t8 = LoRaModulation(spreading_factor=8).symbol_time
    assert t8 == pytest.approx(2 * t7)


def test_preamble_time_sf7():
    modulation = LoRaModulation(spreading_factor=7)
    assert modulation.preamble_time == pytest.approx(12.544e-3)


def test_known_toa_sf7_51_bytes():
    """Cross-checked with the Semtech SX1272 calculator: SF7/125k/CR4/5,
    51-byte payload, 8-symbol preamble, explicit header, CRC on."""
    modulation = LoRaModulation(spreading_factor=7)
    assert modulation.time_on_air(51) * 1000 == pytest.approx(102.66, abs=0.5)


def test_known_toa_sf12_51_bytes():
    modulation = LoRaModulation(spreading_factor=12)
    # LDRO is mandatory at SF12/125k; the Semtech calculator gives
    # 2465.79 ms for SF12/125k/CR4/5, 51 B, 8-symbol preamble, CRC on.
    assert modulation.low_data_rate_optimize
    assert modulation.time_on_air(51) * 1000 == pytest.approx(2465.8, rel=0.01)


def test_paper_frame_toa():
    """The paper's 132-byte frame (128 payload + 4 header) at SF7."""
    modulation = LoRaModulation(spreading_factor=7)
    toa = modulation.time_on_air(132)
    assert 0.21 < toa < 0.23  # exact Semtech formula: ~220 ms


def test_paper_capacity_nominal_bitrate():
    """Section 5.2's '183 messages per sensor per hour' comes out of the
    nominal-bitrate approximation at 1 % duty cycle."""
    modulation = LoRaModulation(spreading_factor=7)
    assert modulation.nominal_bitrate == pytest.approx(5468.75)
    toa = modulation.nominal_time_on_air(132)
    per_hour = max_messages_per_hour(toa, duty_cycle=0.01)
    assert 180 <= per_hour <= 190  # paper: 183


def test_toa_monotone_in_payload():
    modulation = LoRaModulation(spreading_factor=7)
    times = [modulation.time_on_air(n) for n in range(0, 255, 16)]
    assert all(a <= b for a, b in zip(times, times[1:]))


def test_toa_monotone_in_sf():
    times = [LoRaModulation(spreading_factor=sf).time_on_air(64)
             for sf in range(7, 13)]
    assert all(a < b for a, b in zip(times, times[1:]))


def test_ldro_only_at_sf11_sf12_125k():
    assert not LoRaModulation(spreading_factor=10).low_data_rate_optimize
    assert LoRaModulation(spreading_factor=11).low_data_rate_optimize


def test_validation():
    with pytest.raises(ConfigurationError):
        LoRaModulation(spreading_factor=6)
    with pytest.raises(ConfigurationError):
        LoRaModulation().payload_symbols(-1)


# Read from the seed's settable modulation at its defaults (125 kHz,
# CR 4/5, 8-symbol preamble, explicit header, CRC on): the constants that
# replaced those fields must give every airtime bit for bit.
TIME_ON_AIR = {
    7: (0.102656, 0.220416),
    8: (0.184832, 0.389632),
    9: (0.328704, 0.697344),
    10: (0.616448, 1.271808),
    11: (1.314816, 2.789376),
    12: (2.465792, 5.087232),
}


@pytest.mark.parametrize("sf", sorted(TIME_ON_AIR))
def test_airtime_bits_are_pinned(sf):
    modulation = LoRaModulation(spreading_factor=sf)
    assert (modulation.time_on_air(51),
            modulation.time_on_air(132)) == TIME_ON_AIR[sf]


def test_nominal_airtime_bits_are_pinned():
    assert LoRaModulation(spreading_factor=7).nominal_time_on_air(132) \
        == 0.19309714285714286


def test_sensitivity_tables_cover_all_sfs():
    for sf in range(7, 13):
        assert sf in SENSITIVITY_DBM
        assert sf in SNR_THRESHOLD_DB
    # Higher SF = better sensitivity (more negative).
    values = [SENSITIVITY_DBM[sf] for sf in range(7, 13)]
    assert all(a > b for a, b in zip(values, values[1:]))


@given(st.integers(min_value=7, max_value=12),
       st.integers(min_value=0, max_value=255))
@settings(max_examples=60)
def test_payload_symbols_at_least_8(sf, payload):
    assert LoRaModulation(spreading_factor=sf).payload_symbols(payload) >= 8
