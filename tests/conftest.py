"""Shared fixtures: deterministic datasets and an injectable stub RNG."""

from __future__ import annotations

import numpy as np
import pytest

from amiprivacy.meterdata import EnergyQuantity, FeederDataset


class StubRng:
    """Feeds predetermined draws to code expecting a random.Random."""

    def __init__(self, uniforms=()):
        self._uniforms = list(uniforms)

    def random(self):
        return self._uniforms.pop(0)


def build_series(meter_id, milli_values, interval_s=3600, start=0):
    """One meter's series, made and checked by a one-meter dataset."""
    dataset = FeederDataset.from_columns(
        (meter_id,), [0] * len(milli_values),
        [start + i * interval_s for i in range(len(milli_values))], milli_values,
        interval_s, EnergyQuantity(2**63 - 1),
    )
    return dataset.series[0]


def make_uniform_dataset(
    n_meters, milli_per_reading, n_intervals, interval_s=3600, delta_max_milli=5000
):
    series = tuple(
        build_series(f"m{i:04d}", [milli_per_reading] * n_intervals, interval_s)
        for i in range(n_meters)
    )
    return FeederDataset(
        series=series, interval_s=interval_s, delta_max=EnergyQuantity(delta_max_milli)
    )


def make_two_cluster_dataset(n_meters, n_days, seed, delta_max_milli=5000):
    """Half night-heavy, half day-heavy households; hourly readings."""
    rng = np.random.default_rng(seed)
    night_mean = np.array([2.0] * 6 + [0.5] * 18)
    day_mean = np.array([0.4] * 9 + [2.2] * 9 + [0.4] * 6)
    series = []
    for i in range(n_meters):
        mean = night_mean if i < n_meters // 2 else day_mean
        values = rng.normal(np.tile(mean, n_days), 0.15)
        milli = np.maximum(np.rint(values * 1000).astype(int), 0)
        series.append(build_series(f"m{i:04d}", milli))
    return FeederDataset(
        series=tuple(series), interval_s=3600, delta_max=EnergyQuantity(delta_max_milli)
    )


@pytest.fixture
def two_cluster_dataset():
    return make_two_cluster_dataset(n_meters=60, n_days=2, seed=11)
