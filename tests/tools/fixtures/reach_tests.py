"""Fixture: a test module (virtually ``tests/test_reach.py``)."""

from repro.reach import tests_only


def test_it():
    assert tests_only() == 3
