"""Threat models: double spend, RSA economics."""

from __future__ import annotations

import pytest

from repro.attacks import (
    KeySizeEconomics,
    factoring_cost_usd,
    gnfs_work,
    run_double_spend,
)
from repro.attacks import double_spend
from repro.errors import ConfigurationError


# -- double spend (§6) ---------------------------------------------------------

def test_zero_conf_attack_succeeds():
    """The paper's admitted exposure: at 0 confirmations the attacker
    gets the key without paying."""
    result = run_double_spend(confirmations_required=0)
    assert result.key_revealed
    assert not result.gateway_paid
    assert not result.offer_confirmed
    assert result.attack_succeeded


def test_one_confirmation_defeats_attack():
    result = run_double_spend(confirmations_required=1)
    assert not result.key_revealed
    assert not result.attack_succeeded


@pytest.mark.parametrize("confirmations", [2, 3])
def test_deeper_confirmation_also_safe(confirmations):
    result = run_double_spend(confirmations_required=confirmations)
    assert not result.attack_succeeded


def test_double_spend_deterministic(monkeypatch):
    monkeypatch.setattr(double_spend, "SEED", 5)
    a = run_double_spend(confirmations_required=0)
    b = run_double_spend(confirmations_required=0)
    assert a == b


# -- RSA-512 economics (§6) ---------------------------------------------------------

def test_anchor_calibration():
    """Valenta et al.: RSA-512 for ~$75."""
    assert factoring_cost_usd(512) == pytest.approx(75.0)


def test_cost_grows_superexponentially():
    c512 = factoring_cost_usd(512)
    c768 = factoring_cost_usd(768)
    c1024 = factoring_cost_usd(1024)
    assert c768 > 100 * c512          # hundreds of thousands of dollars
    assert c1024 > 100 * c768         # hundreds of millions


def test_gnfs_work_monotone():
    values = [gnfs_work(bits) for bits in (512, 640, 768, 1024, 2048)]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_micropayment_is_uneconomical_to_attack():
    """The paper's argument: attack cost >> micro-payment value."""
    assert factoring_cost_usd(512) / 0.01 > 1000


def test_high_value_payload_needs_bigger_keys():
    # A $10k payload behind RSA-512 would be economical to crack...
    assert factoring_cost_usd(512) / 10_000 < 1
    # ...but not behind RSA-1024.
    assert factoring_cost_usd(1024) / 10_000 > 1


def test_validation():
    with pytest.raises(ConfigurationError):
        gnfs_work(64)


def test_key_size_economics_rows():
    row = KeySizeEconomics.for_bits(512)
    assert row.lora_payload_bytes == 132  # the paper's 128 + 4 header
    row1024 = KeySizeEconomics.for_bits(1024)
    assert row1024.lora_payload_bytes == 260
    assert row1024.factoring_cost_usd > row.factoring_cost_usd
