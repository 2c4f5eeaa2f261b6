"""Fixture: a test module (virtually ``tests/test_reach_settings.py``)."""

from repro.reach.settings import Planted


def test_it():
    assert Planted(knob=0.25).knob == 0.25
