"""The central metrics store: labeled counters and gauges.

One :class:`MetricsRegistry` per scenario.  Instruments are registered
by name; labeled instruments fan out into children keyed by their label
values, with a hard cardinality bound per instrument — past the bound,
further label sets collapse into a reserved ``__overflow__`` child so a
buggy label (say, a txid) can never grow the registry without bound.

``snapshot()`` is the single canonical read shape: a plain dict of
sorted ``name{k=v,...}`` series, suitable both for tests and for the
deterministic JSONL export.  :class:`StatsView` wraps one subset of the
snapshot behind a read-only mapping for the uniform ``stats()``
accessors on daemons, sync agents, gossip nodes and the chaos injector.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from typing import Optional

from repro.errors import ConfigurationError

__all__ = ["Instrument", "MetricsRegistry", "StatsView"]

_KINDS = ("counter", "gauge")
_OVERFLOW = "__overflow__"


class _Cell:
    """One concrete time series: an instrument at one label set."""

    __slots__ = ("kind", "_value")

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self._value += amount

    def set(self, value: float) -> None:
        if self.kind != "gauge":
            raise ConfigurationError("set() is for gauges")
        self._value = value

    @property
    def value(self) -> float:
        return self._value


class Instrument:
    """A named metric; labeled instruments hold one child per label set."""

    __slots__ = ("name", "kind", "labelnames", "_registry", "_children")

    def __init__(self, name: str, kind: str,
                 labelnames: tuple[str, ...],
                 registry: "MetricsRegistry") -> None:
        self.name = name
        self.kind = kind
        self.labelnames = labelnames
        self._registry = registry
        self._children: dict[tuple[str, ...], _Cell] = {}
        if not labelnames:
            self._children[()] = _Cell(kind)

    def labels(self, **label_values: object) -> _Cell:
        if tuple(sorted(label_values)) != tuple(sorted(self.labelnames)):
            raise ConfigurationError(
                f"instrument {self.name!r} takes labels {self.labelnames}, "
                f"got {tuple(sorted(label_values))}")
        key = tuple(str(label_values[name]) for name in self.labelnames)
        cell = self._children.get(key)
        if cell is None:
            if len(self._children) >= self._registry.max_label_sets:
                self._registry.label_overflows += 1
                key = tuple(_OVERFLOW for _ in self.labelnames)
                cell = self._children.get(key)
                if cell is None:
                    cell = self._children[key] = _Cell(self.kind)
                return cell
            cell = self._children[key] = _Cell(self.kind)
        return cell

    # Unlabeled instruments act directly as their single cell.

    def _sole(self) -> _Cell:
        if self.labelnames:
            raise ConfigurationError(
                f"instrument {self.name!r} is labeled; call .labels() first")
        return self._children[()]

    def inc(self, amount: float = 1.0) -> None:
        self._sole().inc(amount)

    def set(self, value: float) -> None:
        self._sole().set(value)

    @property
    def value(self) -> float:
        return self._sole().value

    def series(self) -> Iterator[tuple[str, _Cell]]:
        for key in sorted(self._children):
            if self.labelnames:
                labels = ",".join(f"{name}={value}" for name, value
                                  in zip(self.labelnames, key))
                yield f"{self.name}{{{labels}}}", self._children[key]
            else:
                yield self.name, self._children[key]


def _number(value: float) -> float | int:
    """Collapse integral floats so snapshots render as ints."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    return value


class MetricsRegistry:
    """All instruments of one scenario, under one cardinality budget."""

    def __init__(self, max_label_sets: int = 64) -> None:
        self.max_label_sets = max_label_sets
        self.label_overflows = 0
        self._instruments: dict[str, Instrument] = {}

    def _instrument(self, name: str, kind: str,
                    labelnames: tuple[str, ...]) -> Instrument:
        if kind not in _KINDS:
            raise ConfigurationError(f"unknown instrument kind {kind!r}")
        existing = self._instruments.get(name)
        if existing is not None:
            if existing.kind != kind or existing.labelnames != labelnames:
                raise ConfigurationError(
                    f"instrument {name!r} already registered as "
                    f"{existing.kind}{existing.labelnames}, "
                    f"not {kind}{labelnames}")
            return existing
        instrument = Instrument(name, kind, labelnames, self)
        self._instruments[name] = instrument
        return instrument

    def counter(self, name: str, *labelnames: str) -> Instrument:
        return self._instrument(name, "counter", labelnames)

    def gauge(self, name: str, *labelnames: str) -> Instrument:
        return self._instrument(name, "gauge", labelnames)

    def get(self, name: str) -> Optional[Instrument]:
        return self._instruments.get(name)

    def snapshot(self) -> dict[str, dict[str, object]]:
        """The canonical read shape, fully sorted for determinism."""
        families: dict[str, dict[str, object]] = {"counters": {},
                                                   "gauges": {}}
        for name in sorted(self._instruments):
            instrument = self._instruments[name]
            family = families[instrument.kind + "s"]
            for series, cell in instrument.series():
                family[series] = _number(cell.value)
        return families


class StatsView(Mapping):
    """A read-only, sorted view of one component's stats.

    The uniform return type of every ``stats()`` accessor: behaves as a
    mapping, renders as an aligned table via :meth:`format`.
    """

    def __init__(self, values: Mapping[str, object]) -> None:
        self._values = {key: values[key] for key in sorted(values)}

    def __getitem__(self, key: str) -> object:
        return self._values[key]

    def __iter__(self) -> Iterator[str]:
        return iter(self._values)

    def __len__(self) -> int:
        return len(self._values)

    def __repr__(self) -> str:
        return f"StatsView({self._values!r})"

    def format(self) -> str:
        if not self._values:
            return "(no stats)"
        width = max(len(key) for key in self._values)
        lines = []
        for key, value in self._values.items():
            if isinstance(value, float):
                rendered = f"{value:.6g}"
            else:
                rendered = str(value)
            lines.append(f"{key:<{width}}  {rendered}")
        return "\n".join(lines)
