"""Sim-clock structured tracing: nested spans with deterministic ids.

A :class:`Span` records a named interval of *simulated* time with a
trace id (shared by every span of one logical operation — one fair
exchange, one block's life) and a parent pointer forming a tree.  Ids
come from per-tracer ``itertools.count`` streams, so they are a pure
function of span-creation order — which the simulator makes
deterministic — never of process-global state.

Spans are cheap by construction: when the tracer is disabled (or the
:data:`NULL_TRACER` is wired in), ``span()`` hands back the shared
:data:`NULL_SPAN` whose every method is a no-op, so instrumented code
needs no ``if tracing:`` guards of its own.

A span left open at the end of a run is a bug in the instrumentation
(the chaos tests pin this): whoever owns a span must end it, with
``status="lost"`` when the work it covers was dropped by the network,
a crash, or a stale daemon epoch.
"""

from __future__ import annotations

import itertools
from typing import Any, Optional

__all__ = ["NULL_SPAN", "NULL_TRACER", "Span", "Tracer"]


class Span:
    """One named interval of sim time inside a trace tree."""

    __slots__ = ("tracer", "trace_id", "span_id", "parent_id", "name",
                 "start", "end_time", "status", "attrs")

    def __init__(self, tracer: "Tracer", trace_id: int, span_id: int,
                 parent_id: int, name: str, start: float,
                 attrs: dict[str, Any]) -> None:
        self.tracer = tracer
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start = start
        self.end_time: Optional[float] = None
        self.status = "open"
        self.attrs = attrs

    def annotate(self, **attrs: Any) -> "Span":
        self.attrs.update(attrs)
        return self

    def end(self, status: str = "ok", at: Optional[float] = None,
            **attrs: Any) -> None:
        """Close the span.  Idempotent: the first ``end()`` wins."""
        if self.end_time is not None:
            return
        self.attrs.update(attrs)
        self.status = status
        self.end_time = at if at is not None else self.tracer.now()
        if self.end_time < self.start:
            self.end_time = self.start

    @property
    def duration(self) -> Optional[float]:
        if self.end_time is None:
            return None
        return self.end_time - self.start

    def __repr__(self) -> str:
        return (f"Span({self.name!r}, trace={self.trace_id}, "
                f"span={self.span_id}, status={self.status!r})")


class _NullSpan:
    """The do-nothing span handed out by disabled tracers."""

    __slots__ = ()
    trace_id = 0
    span_id = 0
    parent_id = 0
    name = ""
    start = 0.0
    end_time = 0.0
    status = "disabled"
    duration = 0.0

    @property
    def attrs(self) -> dict[str, Any]:
        return {}

    def annotate(self, **attrs: Any) -> "_NullSpan":
        return self

    def end(self, status: str = "ok", at: Optional[float] = None,
            **attrs: Any) -> None:
        return None

    def __repr__(self) -> str:
        return "NULL_SPAN"

    def __bool__(self) -> bool:
        return False


NULL_SPAN = _NullSpan()


class Tracer:
    """Mints spans stamped with the simulator's clock.

    ``sim`` may be ``None`` for clock-less unit tests (spans start at
    0.0 unless given an explicit ``start``).  A disabled tracer mints
    only :data:`NULL_SPAN`, making instrumentation free when off.
    """

    def __init__(self, sim: Any = None, enabled: bool = True) -> None:
        self.sim = sim
        self.enabled = enabled
        self.spans: list[Span] = []
        self._span_ids = itertools.count(1)
        self._trace_ids = itertools.count(1)

    def now(self) -> float:
        return self.sim.now if self.sim is not None else 0.0

    def span(self, name: str, parent: Optional[Any] = None,
             start: Optional[float] = None, **attrs: Any) -> Any:
        """Open a span.  ``parent=None`` roots a fresh trace."""
        if not self.enabled:
            return NULL_SPAN
        if parent is None or parent is NULL_SPAN:
            trace_id = next(self._trace_ids)
            parent_id = 0
        else:
            trace_id = parent.trace_id
            parent_id = parent.span_id
        span = Span(self, trace_id, next(self._span_ids), parent_id,
                    name, start if start is not None else self.now(), attrs)
        self.spans.append(span)
        return span


NULL_TRACER = Tracer(enabled=False)
