"""RNG streams, latency models, and metric summaries."""

from __future__ import annotations

import random

import pytest

from repro.errors import ConfigurationError
from repro.sim.latency import ConstantLatency, PlanetLabLatencyMatrix
from repro.sim.rng import RngRegistry
from repro.obs.stats import Summary, histogram


# -- RNG --------------------------------------------------------------------

def test_streams_deterministic():
    a = RngRegistry(42).stream("x").random()
    b = RngRegistry(42).stream("x").random()
    assert a == b


def test_streams_independent():
    registry = RngRegistry(42)
    sequence_a = [registry.stream("a").random() for _ in range(5)]
    # Re-create and interleave draws on stream b; stream a must not shift.
    registry2 = RngRegistry(42)
    sequence_a2 = []
    for _ in range(5):
        registry2.stream("b").random()
        sequence_a2.append(registry2.stream("a").random())
    assert sequence_a == sequence_a2


def test_stream_identity_preserved():
    registry = RngRegistry(1)
    assert registry.stream("same") is registry.stream("same")


def test_distinct_names_distinct_streams():
    registry = RngRegistry(1)
    assert registry.stream("a").random() != registry.stream("b").random()


# -- latency ----------------------------------------------------------------------

def test_constant_latency():
    model = ConstantLatency(delay=0.1)
    rng = random.Random(0)
    assert model.sample("a", "b", rng) == 0.1
    assert model.sample("a", "a", rng) == 0.0


def test_lognormal_latency_floor_and_self():
    # a 5 ms median puts about a quarter of the jitter under the floor
    model = PlanetLabLatencyMatrix(["a", "b"], median_range=(0.005, 0.005))
    rng = random.Random(0)
    samples = [model.sample("a", "b", rng) for _ in range(500)]
    assert min(samples) == PlanetLabLatencyMatrix.FLOOR
    assert model.sample("x", "x", rng) == 0.0


def test_lognormal_median_approx():
    model = PlanetLabLatencyMatrix(["a", "b"], median_range=(0.05, 0.05))
    rng = random.Random(1)
    samples = sorted(model.sample("a", "b", rng) for _ in range(4000))
    median = samples[2000]
    assert 0.045 < median < 0.055


def test_matrix_pairs_are_stable_and_symmetric():
    matrix = PlanetLabLatencyMatrix(["s1", "s2", "s3"], seed=3)
    assert matrix.median_for("s1", "s2") == matrix.median_for("s2", "s1")
    assert matrix.median_for("s1", "s2") != matrix.median_for("s1", "s3")


def test_matrix_deterministic_in_seed():
    a = PlanetLabLatencyMatrix(["x", "y"], seed=9).median_for("x", "y")
    b = PlanetLabLatencyMatrix(["x", "y"], seed=9).median_for("x", "y")
    assert a == b


def test_matrix_self_latency_zero():
    matrix = PlanetLabLatencyMatrix(["x", "y"], seed=0)
    assert matrix.sample("x", "x", random.Random(0)) == 0.0


def test_matrix_lazily_adds_unknown_pairs():
    matrix = PlanetLabLatencyMatrix(["x"], seed=0)
    assert matrix.median_for("x", "new-site") > 0


def test_matrix_validation():
    with pytest.raises(ConfigurationError):
        PlanetLabLatencyMatrix(["a"], median_range=(0.2, 0.1))


# -- trace ------------------------------------------------------------------------

def test_summary_statistics():
    summary = Summary.of([1.0, 2.0, 3.0, 4.0, 5.0])
    assert summary.count == 5
    assert summary.mean == 3.0
    assert summary.median == 3.0
    assert summary.minimum == 1.0
    assert summary.maximum == 5.0
    assert summary.p25 == 2.0
    assert summary.p75 == 4.0


def test_summary_matches_numpy():
    import numpy as np
    data = [float(x) for x in np.random.RandomState(0).gamma(2, 2, 200)]
    summary = Summary.of(data)
    assert summary.mean == pytest.approx(np.mean(data))
    assert summary.median == pytest.approx(np.percentile(data, 50))
    assert summary.p95 == pytest.approx(np.percentile(data, 95))
    assert summary.stdev == pytest.approx(np.std(data))


def test_summary_single_sample():
    summary = Summary.of([7.0])
    assert summary.mean == summary.median == summary.p99 == 7.0
    assert summary.stdev == 0.0


def test_summary_empty_is_well_defined():
    summary = Summary.of([])
    assert summary.count == 0
    assert summary.mean == 0.0 and summary.maximum == 0.0
    # NaN-free formatting: a zero-exchange run reports, not crashes.
    text = summary.format()
    assert "n=0" in text
    assert "nan" not in text.lower()


def test_summary_format_mentions_stats():
    text = Summary.of([1.0, 2.0]).format()
    assert "mean=" in text and "p95=" in text


def test_histogram_bins():
    bins = histogram([0.0, 0.5, 1.0, 1.5, 2.0], bins=2)
    assert len(bins) == 2
    assert sum(count for _lo, _hi, count in bins) == 5


def test_histogram_empty():
    assert histogram([]) == []


def test_histogram_degenerate_range():
    bins = histogram([3.0, 3.0, 3.0], bins=5)
    assert bins == [(3.0, 3.0, 3)]
