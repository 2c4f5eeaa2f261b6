"""Per-exchange instrumentation.

An :class:`ExchangeRecord` tracks one Fig. 3 exchange through every leg;
the :class:`ExchangeTracker` is the shared registry agents stamp as the
protocol progresses.  The paper's headline metric is
``t_decrypted - t_epk_sent`` — "from the first message from the gateway to
the decryption of the message by the recipient" (section 5.2).

When the tracker is given a :class:`~repro.obs.tracing.Tracer`, each
exchange also becomes one *trace*: a root ``exchange`` span plus four
contiguous ``leg.*`` child spans (uplink / publication / payment /
decryption) that the breakdown in :mod:`repro.obs.export` summarises.

Historically this lived in ``repro.core.metrics``; that shim has been
removed and the observability layer is the one home.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.obs.tracing import NULL_TRACER, Span, Tracer

__all__ = ["ExchangeRecord", "ExchangeTracker"]


@dataclass
class ExchangeRecord:
    """Timestamps (simulation seconds) for one exchange; None = not reached."""

    exchange_id: int
    node_id: str
    gateway: str = ""
    recipient: str = ""
    plaintext: bytes = b""

    t_request: Optional[float] = None        # node uplinks the key request
    t_keygen_done: Optional[float] = None    # gateway has the ephemeral pair
    t_epk_sent: Optional[float] = None       # gateway starts the ePk downlink
    t_epk_received: Optional[float] = None   # node has ePk
    t_data_sent: Optional[float] = None      # node finishes the data uplink
    t_data_received: Optional[float] = None  # gateway has (Em, Sig, @R)
    t_delivered: Optional[float] = None      # recipient got the TCP delivery
    t_offer_sent: Optional[float] = None     # offer tx broadcast (step 9)
    t_claim_seen: Optional[float] = None     # recipient saw the claim tx
    t_decrypted: Optional[float] = None      # plaintext recovered (end)

    status: str = "pending"                  # pending/completed/failed
    failure_reason: str = ""
    price: int = 0
    decrypted: bytes = b""

    # Tracing context: the root span of this exchange's trace and the
    # currently-open leg spans by name.  Excluded from comparisons.
    trace: Any = field(default=None, repr=False, compare=False)
    legs: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def completed(self) -> bool:
        return self.status == "completed"

    @property
    def latency(self) -> Optional[float]:
        """The paper's metric: first gateway message → recipient decryption."""
        if self.t_epk_sent is None or self.t_decrypted is None:
            return None
        return self.t_decrypted - self.t_epk_sent

    @property
    def radio_time(self) -> Optional[float]:
        if self.t_epk_sent is None or self.t_data_received is None:
            return None
        return self.t_data_received - self.t_epk_sent

    @property
    def settlement_time(self) -> Optional[float]:
        """Delivery → decryption: the blockchain fair-exchange leg."""
        if self.t_delivered is None or self.t_decrypted is None:
            return None
        return self.t_decrypted - self.t_delivered


class ExchangeTracker:
    """Registry of all exchanges in a run.

    With a tracer attached, the tracker doubles as the span lifecycle
    owner for exchange traces: agents call :meth:`begin_leg` /
    :meth:`end_leg` at the protocol steps, and :meth:`complete` /
    :meth:`fail` guarantee no leg span outlives its exchange — a failed
    exchange closes its open legs with ``status="lost"``.
    """

    def __init__(self, tracer: Optional[Tracer] = None) -> None:
        self._records: dict[int, ExchangeRecord] = {}
        self._ids = itertools.count(1)
        self.tracer = tracer if tracer is not None else NULL_TRACER

    def new_exchange(self, node_id: str, plaintext: bytes) -> ExchangeRecord:
        record = ExchangeRecord(
            exchange_id=next(self._ids), node_id=node_id, plaintext=plaintext,
        )
        record.trace = self.tracer.span(
            "exchange", exchange_id=record.exchange_id, node=node_id)
        self._records[record.exchange_id] = record
        return record

    # -- span lifecycle ----------------------------------------------------------

    def begin_leg(self, record: ExchangeRecord, leg: str,
                  start: Optional[float] = None, **attrs: Any) -> Span:
        """Open ``leg.<leg>`` under the exchange's root span.  Idempotent:
        a duplicate frame re-entering a step reuses the open span."""
        existing = record.legs.get(leg)
        if existing is not None:
            return existing
        span = self.tracer.span(f"leg.{leg}", parent=record.trace,
                                start=start, **attrs)
        record.legs[leg] = span
        return span

    def end_leg(self, record: ExchangeRecord, leg: str,
                status: str = "ok", at: Optional[float] = None,
                **attrs: Any) -> None:
        span = record.legs.pop(leg, None)
        if span is not None:
            span.end(status, at=at, **attrs)

    def leg(self, record: ExchangeRecord, leg: str) -> Optional[Span]:
        return record.legs.get(leg)

    def complete(self, record: ExchangeRecord) -> None:
        record.status = "completed"
        self._close(record, leg_status="ok", root_status="ok")

    def fail(self, record: Optional[ExchangeRecord], reason: str) -> None:
        """Mark failed; any leg still in flight is closed ``lost``.  An
        untracked exchange (``record`` None) has nothing to mark."""
        if record is None:
            return
        record.status = "failed"
        record.failure_reason = reason
        self._close(record, leg_status="lost", root_status="failed",
                    reason=reason)

    def _close(self, record: ExchangeRecord, leg_status: str,
               root_status: str, **attrs: Any) -> None:
        for leg in list(record.legs):
            self.end_leg(record, leg, status=leg_status, **attrs)
        if record.trace is not None:
            record.trace.end(root_status, **attrs)

    # -- queries -----------------------------------------------------------------

    def get(self, exchange_id: int) -> Optional[ExchangeRecord]:
        return self._records.get(exchange_id)

    def records(self) -> list[ExchangeRecord]:
        return list(self._records.values())

    def completed(self) -> list[ExchangeRecord]:
        return [r for r in self._records.values() if r.completed]

    def failed(self) -> list[ExchangeRecord]:
        return [r for r in self._records.values() if r.status == "failed"]

    def latencies(self) -> list[float]:
        return [r.latency for r in self.completed() if r.latency is not None]
