"""Fixture: a test module (virtually ``tests/test_reach_params.py``)."""

from repro.reach.params import Built, dead_default, live_default, tested


def test_knob():
    assert tested(1, knob=6) == 6


def test_defaults():
    assert dead_default(2, 4) == 8
    assert live_default(2) == 4


def test_built_as_a_value(make=Built):
    assert make().size == 1
