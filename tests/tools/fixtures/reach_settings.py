"""Fixture: frozen dataclasses with defaults are settings classes."""

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Planted:
    size: int = 1
    knob: float = 0.5


@dataclass(frozen=True)
class Point:
    x: float = 0.0
    y: float = 0.0


@dataclass(frozen=True)
class Span:
    start: float = 0.0
    end: float = 1.0

    @classmethod
    def of(cls, *bounds):
        return cls(*bounds)


@dataclass(frozen=True)
class Letter:
    to: str
    stamp: float
    note: str = ""
    cache: dict = field(default_factory=dict, init=False)


@dataclass(frozen=True)
class Record:
    value: int
    unread: int


@dataclass
class Loose:
    depth: int = 1
