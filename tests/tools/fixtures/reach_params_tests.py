"""Fixture: a test module (virtually ``tests/test_reach_params.py``)."""

from repro.reach.params import tested


def test_knob():
    assert tested(1, knob=6) == 6
