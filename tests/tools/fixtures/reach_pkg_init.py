"""Fixture: a package ``__init__`` — re-exports are not uses."""

from repro.reach.lib import (Options, Service, Traced, exported_only,
                             tests_only, used)

__all__ = ["Options", "Service", "Traced", "exported_only", "tests_only",
           "used"]
