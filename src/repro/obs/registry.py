"""The central metrics store: counters read where they are counted.

Every counter is a plain attribute of the object that counts it, and
nothing on a hot path knows the registry exists.  One
:class:`MetricsRegistry` per scenario holds *sources* instead of values:
a component registers once — a family prefix, its labels, and for each
field where to read it — and :meth:`MetricsRegistry.snapshot` reads
every source through its owner at that moment.  The export is a view of
live state: a reading cannot go stale, and there is no mirror to keep
in step.

One table per component: a counting component is :class:`Counted`, and
its ``COUNTERS`` / ``GAUGES`` tables are the only place its readings are
named.  Its registration (``registry.register(prefix, component,
**labels)``) and its ``stats()`` both read those tables, so the export
and the view cannot disagree, and a counter is otherwise named only
where it is incremented.

``snapshot()`` is the single canonical read shape: a plain dict of
sorted ``name{k=v,...}`` series, suitable both for tests and for the
deterministic JSONL export.  :class:`StatsView` is the read-only mapping
every ``stats()`` returns.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from typing import Any, Callable, ClassVar, NamedTuple, Union

from repro.errors import ConfigurationError

__all__ = ["Counted", "Keyed", "MetricsRegistry", "StatsView", "attrs",
           "read"]

# Where a field is read: an attribute path from its owner
# (``"node.engine.cache_stats.hits"``) or a function of the owner.
Source = Union[str, Callable[[Any], Any]]


class Keyed(NamedTuple):
    """A reading that is a mapping: one series per key, under the extra
    label ``label`` in the export (``hits{kind=ecdsa}``) and as
    ``<field>.<key>`` in a :class:`StatsView`."""

    source: Source
    label: str


# A component's table: field -> where to read it.
Table = Mapping[str, Union[Source, Keyed]]


def attrs(*fields: str) -> dict[str, str]:
    """Table entries for fields read from the attribute of their name."""
    return {field: field for field in fields}


def read(owner: Any, source: Source) -> Any:
    """One reading of ``source`` off ``owner``.

    A path through an absent component (a daemon without a sync agent)
    reads 0.
    """
    if callable(source):
        return source(owner)
    value = owner
    for name in source.split("."):
        if value is None:
            return 0
        value = getattr(value, name)
    return value


def _number(value: float) -> float | int:
    """Collapse integral floats so snapshots render as ints."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    return value


class _Family:
    """One metric name: its kind, label names and per-label-set sources."""

    __slots__ = ("kind", "labelnames", "by", "sources")

    def __init__(self, kind: str, labelnames: tuple[str, ...],
                 by: str) -> None:
        self.kind = kind
        self.labelnames = labelnames
        self.by = by
        self.sources: dict[tuple[str, ...], tuple[Any, Source]] = {}

    def series(self) -> dict[tuple[str, ...], Any]:
        """Label values -> reading, for every source present right now."""
        out: dict[tuple[str, ...], Any] = {}
        for key, (owner, source) in self.sources.items():
            value = read(owner, source)
            if value is None:
                continue  # nothing to report yet (a zero denominator)
            if self.by:
                for label, item in value.items():
                    out[key + (str(label),)] = item
            else:
                out[key] = value
        return out


class MetricsRegistry:
    """Every counter and gauge of one scenario, read at snapshot time."""

    def __init__(self) -> None:
        self._families: dict[str, _Family] = {}

    def register(self, prefix: str, owner: Any,
                 counters: Union[Table, tuple[str, ...], None] = None,
                 gauges: Union[Table, tuple[str, ...], None] = None,
                 **labels: str) -> None:
        """Export ``owner``'s fields as ``<prefix>.<field>{labels}``.

        ``counters`` / ``gauges`` default to a :class:`Counted` owner's
        ``COUNTERS`` / ``GAUGES`` tables; given, a mapping gives each
        field its :data:`Source` or :class:`Keyed` (a bare name is its
        own attribute path).  A reading of None leaves the series out of
        that snapshot.
        """
        if counters is None and gauges is None:
            counters, gauges = owner.COUNTERS, owner.GAUGES
        key = tuple(str(value) for value in labels.values())
        for kind, fields in (("counter", counters), ("gauge", gauges)):
            for field in fields or ():
                source = fields[field] if isinstance(fields, Mapping) \
                    else field
                by = ""
                if isinstance(source, Keyed):
                    source, by = source
                labelnames = tuple(labels) + ((by,) if by else ())
                name = f"{prefix}.{field}"
                family = self._families.get(name)
                if family is None:
                    family = self._families[name] = _Family(
                        kind, labelnames, by)
                elif (family.kind, family.labelnames) != (kind, labelnames):
                    raise ConfigurationError(
                        f"metric {name!r} already registered as "
                        f"{family.kind}{family.labelnames}, "
                        f"not {kind}{labelnames}")
                if key in family.sources:
                    raise ConfigurationError(
                        f"metric {name!r} already has a source for {labels}")
                family.sources[key] = (owner, source)

    def snapshot(self) -> dict[str, dict[str, object]]:
        """The canonical read shape, fully sorted for determinism."""
        families: dict[str, dict[str, object]] = {"counters": {},
                                                   "gauges": {}}
        for name in sorted(self._families):
            family = self._families[name]
            out = families[family.kind + "s"]
            series = family.series()
            for key in sorted(series):
                if family.labelnames:
                    labels = ",".join(f"{label}={value}" for label, value
                                      in zip(family.labelnames, key))
                    out[f"{name}{{{labels}}}"] = _number(series[key])
                else:
                    out[name] = _number(series[key])
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


class Counted:
    """A component that counts, each reading named once, in its tables.

    ``COUNTERS`` and ``GAUGES`` map a field to where it is read
    (:data:`Source` or :class:`Keyed`).  ``registry.register(prefix,
    component, **labels)`` exports both; :meth:`stats` shows both, plus
    ``VIEW_ONLY`` — readings a person asks for that the export leaves
    out (a mean or a total of exported series, a time not every run
    stamps).  A reading of None is left out of the view as of the
    export.

    A field read from the attribute of its own name is a plain int
    attribute that starts at 0 on the class: the component only ever
    writes ``self.field += 1``.
    """

    COUNTERS: ClassVar[Table] = {}
    GAUGES: ClassVar[Table] = {}
    VIEW_ONLY: ClassVar[Table] = {}

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        for table in (cls.COUNTERS, cls.GAUGES):
            for field, source in table.items():
                if source == field and not hasattr(cls, field):
                    setattr(cls, field, 0)

    def stats(self) -> StatsView:
        """Every reading of this component's tables, right now."""
        values: dict[str, object] = {}
        for table in (self.COUNTERS, self.GAUGES, self.VIEW_ONLY):
            for field, source in table.items():
                if isinstance(source, Keyed):
                    for key, value in read(self, source.source).items():
                        values[f"{field}.{key}"] = value
                    continue
                value = read(self, source)
                if value is not None:
                    values[field] = value
        return StatsView(values)
