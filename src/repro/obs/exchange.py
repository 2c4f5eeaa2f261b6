"""Per-exchange instrumentation: the Fig. 3 exchange as one table.

:data:`STEPS` names section 4.4's ten instants in protocol order.  An
:class:`ExchangeRecord` logs one exchange's instants; the parties report
each step with one :meth:`ExchangeTracker.reach`.  The paper's headline
metric is ``t_decrypted - t_epk_sent`` — "from the first message from
the gateway to the decryption of the message by the recipient" (§5.2).

When the tracker is given a :class:`~repro.obs.tracing.Tracer`, each
exchange also becomes one *trace*: a root ``exchange`` span plus four
contiguous ``leg.*`` child spans (:data:`LEGS`), opened and closed by
the table alone, that the breakdown in :mod:`repro.obs.export`
summarises.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.obs.tracing import NULL_SPAN, NULL_TRACER, Span, Tracer

__all__ = ["LEGS", "STEPS", "ExchangeRecord", "ExchangeTracker"]

# step -> (leg it closes, leg it opens); ``reach`` stamps ``t_<step>``.
STEPS: dict[str, tuple[Optional[str], Optional[str]]] = {
    "request": (None, None),                     # node uplinks the key request
    "keygen_done": (None, None),                 # gateway made the ePk pair
    "epk_sent": (None, "uplink"),                # ePk downlink starts
    "epk_received": (None, None),                # node has ePk
    "data_sent": (None, None),                   # data uplink ends
    "data_received": ("uplink", "publication"),  # gateway has (Em, Sig, @R)
    "delivered": ("publication", "payment"),     # recipient has the delivery
    "offer_sent": (None, None),                  # offer tx broadcast (step 9)
    "claim_seen": ("payment", "decryption"),     # recipient saw the claim tx
    "decrypted": ("decryption", None),           # plaintext recovered (end)
}

LEGS = tuple(opens for _closes, opens in STEPS.values() if opens)


@dataclass
class ExchangeRecord:
    """One exchange's :data:`STEPS` instants (sim seconds); None = not yet."""

    exchange_id: int
    node_id: str
    gateway: str = ""
    recipient: str = ""
    plaintext: bytes = b""

    t_request: Optional[float] = None
    t_keygen_done: Optional[float] = None
    t_epk_sent: Optional[float] = None
    t_epk_received: Optional[float] = None
    t_data_sent: Optional[float] = None
    t_data_received: Optional[float] = None
    t_delivered: Optional[float] = None
    t_offer_sent: Optional[float] = None
    t_claim_seen: Optional[float] = None
    t_decrypted: Optional[float] = None

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


class ExchangeTracker:
    """Registry of all exchanges in a run, and owner of their spans.

    :meth:`reach`, :meth:`fail` and :meth:`leg` take an exchange id and
    do nothing for an untracked id or a completed or failed exchange.
    Stamps read the tracer's clock (0.0 without a simulator).  No leg
    span outlives its exchange: a failure closes open legs ``lost``.
    """

    def __init__(self, tracer: Optional[Tracer] = None) -> None:
        self._records: dict[int, ExchangeRecord] = {}
        self._ids = itertools.count(1)
        self.tracer = tracer if tracer is not None else NULL_TRACER

    def new_exchange(self, node_id: str, plaintext: bytes) -> ExchangeRecord:
        """Launch an exchange: its first step, ``request``, is now."""
        record = ExchangeRecord(
            exchange_id=next(self._ids), node_id=node_id, plaintext=plaintext,
        )
        record.trace = self.tracer.span(
            "exchange", exchange_id=record.exchange_id, node=node_id)
        self._records[record.exchange_id] = record
        self.reach(record.exchange_id, "request")
        return record

    # -- the parties' calls ------------------------------------------------------

    def reach(self, exchange_id: int, step: str, at: Optional[float] = None,
              **fields: Any) -> None:
        """Stamp ``step`` at ``at`` (default: now), set ``fields`` on the
        record, and move the legs by :data:`STEPS`; ``decrypted``
        completes the exchange.  The first stamp wins: a step re-entered
        (a key request retried) moves nothing."""
        record = self._pending(exchange_id)
        if record is None or getattr(record, f"t_{step}") is not None:
            return
        when = self.tracer.now() if at is None else at
        setattr(record, f"t_{step}", when)
        for name, value in fields.items():
            setattr(record, name, value)
        closes, opens = STEPS[step]
        record.legs.pop(closes, NULL_SPAN).end("ok", at=when)
        if opens is not None:
            record.legs[opens] = self.tracer.span(
                f"leg.{opens}", parent=record.trace, start=when)
        if step == "decrypted":
            record.status = "completed"
            self._close(record, leg_status="ok", root_status="ok")

    def fail(self, exchange_id: int, reason: str) -> None:
        """Mark failed; any leg still in flight is closed ``lost``."""
        record = self._pending(exchange_id)
        if record is None:
            return
        record.status = "failed"
        record.failure_reason = reason
        self._close(record, leg_status="lost", root_status="failed",
                    reason=reason)

    def leg(self, exchange_id: int, name: str) -> Optional[Span]:
        """The open ``leg.<name>`` span, to parent a wire message on."""
        record = self._records.get(exchange_id)
        return record.legs.get(name) if record is not None else None

    def _pending(self, exchange_id: int) -> Optional[ExchangeRecord]:
        record = self._records.get(exchange_id)
        if record is not None and record.status == "pending":
            return record
        return None

    def _close(self, record: ExchangeRecord, leg_status: str,
               root_status: str, **attrs: Any) -> None:
        for span in record.legs.values():
            span.end(leg_status, **attrs)
        record.legs.clear()
        record.trace.end(root_status, **attrs)

    # -- queries -----------------------------------------------------------------

    def get(self, exchange_id: int) -> Optional[ExchangeRecord]:
        return self._records.get(exchange_id)

    def records(self) -> list[ExchangeRecord]:
        return list(self._records.values())

    def pending(self) -> list[ExchangeRecord]:
        return [r for r in self._records.values() if r.status == "pending"]

    def completed(self) -> list[ExchangeRecord]:
        return [r for r in self._records.values() if r.completed]

    def failed(self) -> list[ExchangeRecord]:
        return [r for r in self._records.values() if r.status == "failed"]

    def latencies(self) -> list[float]:
        return [r.latency for r in self.completed() if r.latency is not None]
