"""Fixture: a config dataclass with one never-set and one never-read field."""

from dataclasses import dataclass


@dataclass(frozen=True)
class NetworkConfig:
    seed: int = 0
    read_never_set: int = 5
    set_never_read: int = 9

    def __post_init__(self):
        if self.set_never_read < 0:
            raise ValueError("validated, documented, read by nothing")
