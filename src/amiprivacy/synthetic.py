"""Statistical-simulation synthetic load generation plus the fidelity and
memorization checks used before any synthetic dataset leaves the platform.

The generator is deliberately simple and desk-scale verifiable: cluster
per-meter daily profiles, keep per-cluster hourly mean/std over member
days, and sample households as clamped normal draws around a cluster
profile. Neural generators are a non-goal here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .meterdata import MILLI_PER_KWH, EnergyQuantity, FeederDataset

HOURS_PER_DAY = 24
SECONDS_PER_DAY = 86400
_REL_ERR_FLOOR = 1e-9
_KMEANS_ITERATIONS = 25
_HIST_BINS = 50


class SyntheticError(Exception):
    pass


class TooFewSeries(SyntheticError):
    pass


class EmptySeries(SyntheticError):
    pass


class EmptyDataset(SyntheticError):
    pass


@dataclass(frozen=True)
class ClusterProfile:
    weight: float
    hourly_mean: tuple[float, ...]  # kWh per hour, 24 entries
    hourly_std: tuple[float, ...]

    def __post_init__(self):
        if len(self.hourly_mean) != HOURS_PER_DAY or len(self.hourly_std) != HOURS_PER_DAY:
            raise ValueError("hourly profiles must have 24 entries")
        if not (math.isfinite(self.weight) and self.weight >= 0):
            raise ValueError(f"weight must be finite and non-negative, got {self.weight}")
        if not all(math.isfinite(m) for m in self.hourly_mean):
            raise ValueError("means must be finite")
        # copysign refuses -0.0 too, as numpy's normal refuses any scale with its sign bit set.
        if not all(math.isfinite(s) and math.copysign(1.0, s) > 0 for s in self.hourly_std):
            raise ValueError("stds must be finite and non-negative")


@dataclass(frozen=True)
class GeneratorModel:
    clusters: tuple[ClusterProfile, ...]

    def __post_init__(self):
        total = sum(c.weight for c in self.clusters)
        if not abs(total - 1.0) <= 1e-9:
            raise ValueError(f"cluster weights must sum to 1, got {total}")


@dataclass(frozen=True)
class FidelityReport:
    per_hour_mean_rel_err: tuple[float, ...]
    hist_l1: float  # L1 distance between normalized histograms, in [0, 2]
    peak_dist_rel_err: float


@dataclass(frozen=True)
class PrivacyCheckReport:
    min_nn_distance: float  # normalized RMS to the nearest real series
    memorization_flag: bool
    distinguisher_auc: float


def _meter_days(dataset: FeederDataset) -> tuple[np.ndarray, np.ndarray]:
    """Each row's (meter, day) group number, and the first row of each group.

    Rows are grouped by meter and sorted by time, so groups are contiguous.
    """
    day = dataset.timestamp // SECONDS_PER_DAY
    first = np.ones(len(day), dtype=bool)
    first[1:] = (np.diff(dataset.meter_idx) != 0) | (np.diff(day) != 0)
    return np.cumsum(first) - 1, np.flatnonzero(first)


def _hourly_day_rows(dataset: FeederDataset) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Complete-day hourly kWh, one row per (meter, day) in row order; each
    row's meter; and each meter's mean day profile. Read-only, since
    `fit` keeps them as the dataset's "day_profiles" view.
    """
    per_day_expected = SECONDS_PER_DAY // dataset.interval_s
    if per_day_expected * dataset.interval_s != SECONDS_PER_DAY or dataset.interval_s > 3600:
        raise SyntheticError("interval must divide one hour for hourly profiling")
    group, starts = _meter_days(dataset)
    hourly = np.zeros((len(starts), HOURS_PER_DAY), dtype=np.int64)
    np.add.at(hourly, (group, dataset.timestamp % SECONDS_PER_DAY // 3600), dataset.milli_kwh)
    complete = np.diff(np.append(starts, len(group))) == per_day_expected
    days = hourly[complete] / MILLI_PER_KWH
    day_meter = dataset.meter_idx[starts[complete]]
    per_meter = np.bincount(day_meter, minlength=len(dataset.meter_ids))
    if not per_meter.all():
        raise EmptySeries(f"series {dataset.meter_ids[per_meter.argmin()]!r} has no complete day")
    # Row by row, as each meter's days.mean(axis=0) sums them.
    profiles = np.add.reduceat(days, np.cumsum(per_meter) - per_meter, axis=0) / per_meter[:, None]
    for view in (days, day_meter, profiles):
        view.setflags(write=False)
    return days, day_meter, profiles


def fit(real: FeederDataset, n_clusters: int, seed: int) -> GeneratorModel:
    """Cluster per-meter average daily profiles and summarize each cluster.

    Seeded Lloyd (k-means) iteration, stopped at the first assignment that
    repeats the previous one, and after 25 iterations at most: the same
    members give the same centroids, so every later iteration would repeat
    it. Per-cluster hourly mean/std are computed over all member days, and
    weights are member fractions. A cluster left without members is a
    ValueError. The day profiles depend on the dataset alone and are
    computed once per dataset.
    """
    if n_clusters < 1:
        raise ValueError("n_clusters must be >= 1")
    if len(real.meter_ids) < n_clusters:
        raise TooFewSeries(f"{len(real.meter_ids)} series < {n_clusters} clusters")
    days, day_meter, profiles = real._derived("day_profiles", _hourly_day_rows)

    rng = np.random.default_rng(seed)
    init = rng.choice(len(profiles), size=n_clusters, replace=False)
    centroids = profiles[init].copy()
    assignment = np.full(len(profiles), -1)
    for _ in range(_KMEANS_ITERATIONS):
        dists = ((profiles[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        nearest = dists.argmin(axis=1)
        if np.array_equal(nearest, assignment):
            break
        assignment = nearest
        for c in range(n_clusters):
            members = profiles[assignment == c]
            if len(members):
                centroids[c] = members.mean(axis=0)

    clusters = []
    for c in range(n_clusters):
        in_cluster = assignment == c
        if not in_cluster.any():
            raise ValueError(f"cluster {c} has no members")
        member_days = days[in_cluster[day_meter]]
        clusters.append(
            ClusterProfile(
                weight=int(np.count_nonzero(in_cluster)) / len(profiles),
                hourly_mean=tuple(member_days.mean(axis=0)),
                hourly_std=tuple(member_days.std(axis=0)),
            )
        )
    return GeneratorModel(clusters=tuple(clusters))


def generate(model: GeneratorModel, n_households: int, n_days: int, seed: int) -> FeederDataset:
    """Sample a synthetic hourly dataset from the model, deterministically.

    Each household draws a cluster by weight, then every interval is
    max(0, N(mean_h, std_h)) rounded to milli-kWh. Household h derives its
    own generator from (seed, h), so generation is order-independent and
    repeatable. From it, the household takes one `random()`, whose place
    in the cumulative weights picks its cluster (as `Generator.choice` with
    `p` does for one draw), then `24 * n_days` standard normals z, and its
    values are mean + std * z (as `Generator.normal` computes them). The
    picks and normals of all households are collected first, then the values
    are formed in one array operation.
    """
    if n_households < 1 or n_days < 1:
        raise ValueError("n_households and n_days must be >= 1")
    interval_s = 3600
    horizon = n_days * HOURS_PER_DAY
    cdf = np.cumsum([c.weight for c in model.clusters], dtype=float)
    cdf /= cdf[-1]
    mean = np.tile([c.hourly_mean for c in model.clusters], n_days)
    std = np.tile([c.hourly_std for c in model.clusters], n_days)

    u, z = np.empty(n_households), np.empty((n_households, horizon))
    for h in range(n_households):
        rng = np.random.default_rng([seed, h])
        u[h] = rng.random()
        rng.standard_normal(out=z[h])
    c = cdf.searchsorted(u, side="right")
    values = mean[c] + std[c] * z
    milli = np.rint(np.maximum(0.0, values) * MILLI_PER_KWH).astype(np.int64).ravel()
    return FeederDataset.from_columns(
        meter_ids=[f"synth-{h:05d}" for h in range(n_households)],
        meter_idx=np.repeat(np.arange(n_households), horizon),
        timestamp=np.tile(np.arange(horizon) * interval_s, n_households),
        milli_kwh=milli,
        interval_s=interval_s,
        delta_max=EnergyQuantity(max(1, int(milli.max()))),
    )


def _hourly_means(dataset: FeederDataset) -> np.ndarray:
    hour = dataset.timestamp % SECONDS_PER_DAY // 3600
    sums = np.zeros(HOURS_PER_DAY, dtype=np.int64)
    np.add.at(sums, hour, dataset.milli_kwh)
    counts = np.bincount(hour, minlength=HOURS_PER_DAY)
    means = np.zeros(HOURS_PER_DAY)
    nonzero = counts > 0
    means[nonzero] = sums[nonzero] / MILLI_PER_KWH / counts[nonzero]
    return means


def _daily_peak_mean(dataset: FeederDataset) -> float:
    _, starts = _meter_days(dataset)
    return float(np.mean(np.maximum.reduceat(dataset.milli_kwh, starts) / MILLI_PER_KWH))


def fidelity_report(real: FeederDataset, synth: FeederDataset) -> FidelityReport:
    """Aggregate-fidelity metrics: hourly means, value histogram, daily peaks."""
    if real.n_readings() == 0 or synth.n_readings() == 0:
        raise EmptyDataset("fidelity_report needs non-empty datasets")
    if real.interval_s != synth.interval_s:
        raise ValueError("datasets must share interval_s")

    mu_real = _hourly_means(real)
    mu_synth = _hourly_means(synth)
    rel_err = np.abs(mu_synth - mu_real) / np.maximum(mu_real, _REL_ERR_FLOOR)

    dmax = real.delta_max.kwh
    real_vals = np.clip(real.milli_kwh / MILLI_PER_KWH, 0, dmax)
    synth_vals = np.clip(synth.milli_kwh / MILLI_PER_KWH, 0, dmax)
    h_real, _ = np.histogram(real_vals, bins=_HIST_BINS, range=(0, dmax))
    h_synth, _ = np.histogram(synth_vals, bins=_HIST_BINS, range=(0, dmax))
    hist_l1 = float(np.abs(h_real / len(real_vals) - h_synth / len(synth_vals)).sum())

    peak_real = _daily_peak_mean(real)
    peak_synth = _daily_peak_mean(synth)
    peak_err = abs(peak_synth - peak_real) / max(peak_real, _REL_ERR_FLOOR)

    return FidelityReport(
        per_hour_mean_rel_err=tuple(rel_err),
        hist_l1=hist_l1,
        peak_dist_rel_err=float(peak_err),
    )


def _series_matrix(dataset: FeederDataset, length: int) -> np.ndarray:
    """kWh of each meter's first `length` readings, one row per meter."""
    starts = dataset.meter_bounds()[:-1]
    return dataset.milli_kwh[starts[:, None] + np.arange(length)] / MILLI_PER_KWH


def _pairwise_rms(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # Squared-distance expansion keeps memory at O(|a|*|b|) not O(|a|*|b|*T).
    sq = (
        (a**2).sum(axis=1)[:, None]
        + (b**2).sum(axis=1)[None, :]
        - 2.0 * (a @ b.T)
    )
    return np.sqrt(np.maximum(sq, 0.0) / a.shape[1])


def _rank_auc(member_scores: np.ndarray, other_scores: np.ndarray) -> float:
    """P(member score < other score), ties at half weight (Mann-Whitney)."""
    if len(member_scores) == 0 or len(other_scores) == 0:
        return 0.5
    combined = np.concatenate([member_scores, other_scores])
    # Each tie group takes the mean of the 1-based ranks it spans.
    _, group, counts = np.unique(combined, return_inverse=True, return_counts=True)
    ranks = (np.cumsum(counts) - (counts - 1) / 2.0)[group]
    m = len(member_scores)
    u = ranks[:m].sum() - m * (m + 1) / 2.0
    return float(1.0 - u / (m * len(other_scores)))


def privacy_check(
    real: FeederDataset, synth: FeederDataset, threshold: float
) -> PrivacyCheckReport:
    """Nearest-neighbor memorization scan plus a membership distinguisher.

    min_nn_distance is the smallest normalized RMS distance from any
    synthetic series to any real series; the flag is set iff it falls
    below the threshold. The distinguisher splits the real series into
    two halves (even/odd index as member/held-out proxies), scores each
    real series by its distance to the nearest synthetic series, and
    reports the AUC of telling the halves apart: near 0.5 means the
    synthetic set does not single out training records.
    """
    if not real.meter_ids or not synth.meter_ids:
        raise EmptyDataset("privacy_check needs non-empty datasets")
    if real.interval_s != synth.interval_s:
        raise ValueError("datasets must share interval_s")
    length = min(
        np.diff(real.meter_bounds()).min(), np.diff(synth.meter_bounds()).min()
    )
    if length == 0:
        raise EmptyDataset("series must be non-empty")
    real_mat = _series_matrix(real, length)
    synth_mat = _series_matrix(synth, length)
    dmax = real.delta_max.kwh

    dist = _pairwise_rms(synth_mat, real_mat) / dmax
    min_nn = float(dist.min())

    real_scores = dist.min(axis=0)  # per real series: nearest synthetic
    members = real_scores[0::2]
    held_out = real_scores[1::2]
    auc = _rank_auc(members, held_out)

    # An exact verbatim copy (distance 0) is flagged at any threshold,
    # including 0; otherwise the flag is the strict threshold comparison.
    flagged = min_nn < threshold or min_nn == 0.0
    return PrivacyCheckReport(
        min_nn_distance=min_nn,
        memorization_flag=flagged,
        distinguisher_auc=auc,
    )
