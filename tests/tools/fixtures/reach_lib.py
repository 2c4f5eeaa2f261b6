"""Fixture: definitions reached (or not) from the entry point."""

from dataclasses import dataclass


def used():
    return helper()


def helper():
    return 1


def exported_only():
    """Named by the package ``__init__`` and nothing else."""
    return 2


def tests_only():
    """Called by ``tests/`` and nothing else."""
    return 3


class Traced:
    def hook(self):
        """Named only in a ``"module:Class.method"`` string of the root."""
        return 4


class Service:
    def __init__(self, config):
        self.config = config

    def __repr__(self):
        return "Service()"

    @property
    def size(self):
        return self.config.read_never_set

    def by_name(self):
        """Called through a receiver nothing can resolve."""
        return self._inner()

    def _inner(self):
        return 5

    def never_called(self):
        return 6


@dataclass
class Options:
    depth: int = 1

    def __post_init__(self):
        if self.depth < 0:
            raise ValueError("negative depth")


class Orphan:
    """Instantiated by nobody; its method shares a name with a live one."""

    def by_name(self):
        return 7
