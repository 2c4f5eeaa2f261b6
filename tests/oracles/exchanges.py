"""Look up one exchange's record the way the program reads them all."""

from __future__ import annotations

from typing import Optional

from repro.obs.exchange import ExchangeRecord, ExchangeTracker


def record_of(tracker: ExchangeTracker,
              exchange_id: int) -> Optional[ExchangeRecord]:
    """The record of ``exchange_id`` among ``tracker.records()``, or
    None."""
    return next((found for found in tracker.records()
                 if found.exchange_id == exchange_id), None)
