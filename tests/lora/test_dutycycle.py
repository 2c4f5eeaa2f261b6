"""Duty-cycle enforcement."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.lora.dutycycle import DutyCycleLimiter, max_messages_per_hour


def test_off_period_rule():
    limiter = DutyCycleLimiter(duty_cycle=0.01)
    limiter.register(start=0.0, time_on_air=1.0)
    # T_off = 1/0.01 - 1 = 99 s; next allowed at t=100.
    assert limiter.next_allowed(0.0) == pytest.approx(100.0)
    assert limiter.wait_time(40.0) == pytest.approx(60.0)
    assert limiter.wait_time(150.0) == 0.0


def test_violation_rejected():
    limiter = DutyCycleLimiter(duty_cycle=0.01)
    limiter.register(start=0.0, time_on_air=1.0)
    with pytest.raises(ConfigurationError):
        limiter.register(start=50.0, time_on_air=1.0)


def test_back_to_back_transmissions_allowed_after_wait():
    limiter = DutyCycleLimiter(duty_cycle=0.1)
    limiter.register(start=0.0, time_on_air=0.5)
    allowed = limiter.next_allowed(0.0)
    limiter.register(start=allowed, time_on_air=0.5)
    assert limiter.transmissions == 2
    assert limiter.total_airtime == pytest.approx(1.0)


def test_validation():
    with pytest.raises(ConfigurationError):
        DutyCycleLimiter(duty_cycle=0.0)
    with pytest.raises(ConfigurationError):
        DutyCycleLimiter(duty_cycle=1.5)
    limiter = DutyCycleLimiter()
    with pytest.raises(ConfigurationError):
        limiter.register(start=0.0, time_on_air=-1.0)


def test_max_messages_per_hour():
    assert max_messages_per_hour(1.0, 0.01) == pytest.approx(36.0)
    assert max_messages_per_hour(0.1931, 0.01) == pytest.approx(186.4, abs=1)
    with pytest.raises(ConfigurationError):
        max_messages_per_hour(0.0)
    with pytest.raises(ConfigurationError):
        max_messages_per_hour(1.0, 0.0)


@given(st.lists(st.floats(min_value=0.001, max_value=2.0), min_size=1,
                max_size=20))
@settings(max_examples=40)
def test_long_run_utilization_never_exceeds_duty(airtimes):
    """Whatever the schedule, honoring next_allowed keeps duty legal."""
    duty = 0.01
    limiter = DutyCycleLimiter(duty_cycle=duty)
    now = 0.0
    for toa in airtimes:
        start = limiter.next_allowed(now)
        limiter.register(start, toa)
        now = start + toa
    window_end = limiter.next_allowed(now)
    assert limiter.total_airtime <= duty * window_end * (1 + 1e-9)
