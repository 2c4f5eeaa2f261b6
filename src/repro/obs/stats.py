"""Descriptive statistics over metric samples.

:class:`Summary` computes the statistics the benchmark harness prints
(mean, percentiles, histogram) — the numbers behind the paper's Figs. 5/6.
Historically these lived in ``repro.sim.trace``; that shim has been
removed and the observability layer is the one home.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["Summary", "histogram"]


@dataclass(frozen=True)
class Summary:
    """Descriptive statistics over one metric's samples."""

    count: int
    mean: float
    stdev: float
    minimum: float
    p25: float
    median: float
    p75: float
    p95: float
    p99: float
    maximum: float

    @classmethod
    def empty(cls) -> "Summary":
        """The zero-sample summary: count 0, every statistic 0.0.

        A run with no completed exchanges is a legitimate outcome (e.g. a
        fully partitioned network ablation); reports must render it as a
        0% completion rate, not crash.
        """
        return cls(count=0, mean=0.0, stdev=0.0, minimum=0.0, p25=0.0,
                   median=0.0, p75=0.0, p95=0.0, p99=0.0, maximum=0.0)

    @classmethod
    def of(cls, samples: list[float]) -> "Summary":
        if not samples:
            return cls.empty()
        ordered = sorted(samples)
        n = len(ordered)
        mean = sum(ordered) / n
        variance = sum((x - mean) ** 2 for x in ordered) / n if n > 1 else 0.0
        return cls(
            count=n,
            mean=mean,
            stdev=math.sqrt(variance),
            minimum=ordered[0],
            p25=_quantile(ordered, 0.25),
            median=_quantile(ordered, 0.50),
            p75=_quantile(ordered, 0.75),
            p95=_quantile(ordered, 0.95),
            p99=_quantile(ordered, 0.99),
            maximum=ordered[-1],
        )

    def to_dict(self) -> dict[str, float]:
        """A JSON-safe mapping of every statistic.

        The contract the sweep runner relies on: values are always finite
        (``json.dumps(..., allow_nan=False)`` never raises), and the
        zero-sample summary serializes as explicit ``count: 0`` zeros
        rather than NaN.
        """
        row = {
            "count": self.count, "mean": self.mean, "stdev": self.stdev,
            "min": self.minimum, "p25": self.p25, "median": self.median,
            "p75": self.p75, "p95": self.p95, "p99": self.p99,
            "max": self.maximum,
        }
        for key, value in row.items():
            if not math.isfinite(value):
                raise ValueError(f"non-finite summary statistic {key}={value}")
        return row

    def format(self) -> str:
        """One line, in seconds (every summarised metric is a latency)."""
        if self.count == 0:
            return "n=0 (no samples)"
        return (
            f"n={self.count} mean={self.mean:.3f}s "
            f"median={self.median:.3f}s p95={self.p95:.3f}s "
            f"p99={self.p99:.3f}s max={self.maximum:.3f}s"
        )


def _quantile(ordered: list[float], q: float) -> float:
    """Linear-interpolation quantile of pre-sorted data."""
    if len(ordered) == 1:
        return ordered[0]
    position = q * (len(ordered) - 1)
    lower = int(position)
    upper = min(lower + 1, len(ordered) - 1)
    weight = position - lower
    return ordered[lower] * (1 - weight) + ordered[upper] * weight


def histogram(samples: list[float],
              bins: int = 20) -> list[tuple[float, float, int]]:
    """Fixed-width histogram over the samples' own range, as
    ``(bin_lo, bin_hi, count)`` triples."""
    if not samples:
        return []
    lo, hi = min(samples), max(samples)
    if hi <= lo:
        return [(lo, hi, len(samples))]
    width = (hi - lo) / bins
    counts = [0] * bins
    for sample in samples:
        index = int((sample - lo) / width)
        counts[min(max(index, 0), bins - 1)] += 1
    return [(lo + i * width, lo + (i + 1) * width, counts[i]) for i in range(bins)]
