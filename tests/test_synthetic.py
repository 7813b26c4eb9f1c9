import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from amiprivacy import synthetic
from amiprivacy.meterdata import MILLI_PER_KWH, EnergyQuantity, FeederDataset, serialize_csv
from amiprivacy.synthetic import (
    SECONDS_PER_DAY,
    ClusterProfile,
    EmptyDataset,
    EmptySeries,
    GeneratorModel,
    SyntheticError,
    TooFewSeries,
    _meter_days,
    _rank_auc,
    fidelity_report,
    fit,
    generate,
    privacy_check,
)
from conftest import build_series, make_two_cluster_dataset


def _flat_model(mean_kwh=1.0, std=0.0):
    cluster = ClusterProfile(
        weight=1.0, hourly_mean=(mean_kwh,) * 24, hourly_std=(std,) * 24
    )
    return GeneratorModel(clusters=(cluster,))


def _constant_dataset(n_meters, milli, n_days=1):
    series = tuple(
        build_series(f"m{i}", [milli] * (24 * n_days)) for i in range(n_meters)
    )
    return FeederDataset(series=series, interval_s=3600, delta_max=EnergyQuantity(5000))


class TestFit:
    def test_identical_constant_meters_single_cluster(self):
        d = _constant_dataset(8, 1000)
        model = fit(d, n_clusters=1, seed=0)
        assert len(model.clusters) == 1
        cluster = model.clusters[0]
        assert cluster.weight == 1.0
        assert all(m == pytest.approx(1.0) for m in cluster.hourly_mean)
        assert all(s == 0.0 for s in cluster.hourly_std)

    def test_two_separated_groups_recovered(self, two_cluster_dataset):
        d = two_cluster_dataset
        model = fit(d, n_clusters=2, seed=3)
        # Group-mean oracle straight from the fixture definition.
        half = len(d.series) // 2
        groups = [d.series[:half], d.series[half:]]
        oracle_means = []
        for group in groups:
            values = np.array(
                [[r.energy.kwh for r in s.readings] for s in group]
            ).reshape(len(group), -1, 24)
            oracle_means.append(values.mean(axis=(0, 1)))
        for oracle in oracle_means:
            best = min(
                model.clusters,
                key=lambda c: np.abs(np.array(c.hourly_mean) - oracle).max(),
            )
            rel = np.abs(np.array(best.hourly_mean) - oracle) / oracle
            assert rel.max() < 0.01
        assert sum(c.weight for c in model.clusters) == pytest.approx(1.0, abs=1e-12)

    def test_too_few_series(self):
        with pytest.raises(TooFewSeries):
            fit(_constant_dataset(2, 1000), n_clusters=3, seed=0)

    def test_incomplete_day_rejected(self):
        series = (build_series("m0", [1000] * 10),)  # 10 hours only
        d = FeederDataset(series=series, interval_s=3600, delta_max=EnergyQuantity(5000))
        with pytest.raises(EmptySeries):
            fit(d, n_clusters=1, seed=0)

    def test_deterministic_under_seed(self, two_cluster_dataset):
        assert fit(two_cluster_dataset, 2, seed=5) == fit(two_cluster_dataset, 2, seed=5)


class TestGenerate:
    def test_degenerate_distribution_is_exact(self):
        d = generate(_flat_model(mean_kwh=1.0, std=0.0), n_households=5, n_days=2, seed=0)
        assert (d.milli_kwh == 1000).all()

    def test_daily_totals_match_analytic_mean(self):
        model = _flat_model(mean_kwh=1.0, std=0.2)
        d = generate(model, n_households=10_000, n_days=1, seed=1)
        totals = [
            sum(r.energy.kwh for r in s.readings) for s in d.series
        ]
        assert np.mean(totals) == pytest.approx(24.0, rel=0.02)

    def test_no_events_when_rate_zero(self):
        d = generate(_flat_model(1.0, 0.0), n_households=3, n_days=1, seed=2)
        assert d.milli_kwh.max() == 1000

    def test_household_does_not_depend_on_how_many_are_generated(self):
        night = ClusterProfile(weight=0.5, hourly_mean=(2.0,) * 6 + (0.5,) * 18,
                               hourly_std=(0.3,) * 24)
        day = ClusterProfile(weight=0.5, hourly_mean=(0.4,) * 9 + (2.2,) * 15,
                             hourly_std=(0.2,) * 24)
        model = GeneratorModel(clusters=(night, day))
        few = generate(model, 3, 2, seed=17)
        many = generate(model, 10, 2, seed=17)
        assert many.meter_ids[:3] == few.meter_ids
        np.testing.assert_array_equal(many.milli_kwh[:3 * 48], few.milli_kwh)

    def test_same_seed_byte_identical(self):
        a = generate(_flat_model(1.0, 0.3), 20, 2, seed=9)
        b = generate(_flat_model(1.0, 0.3), 20, 2, seed=9)
        assert serialize_csv(a) == serialize_csv(b)
        assert a == b

    def test_output_satisfies_dataset_invariants(self):
        d = generate(_flat_model(0.05, 0.5), 30, 1, seed=4)
        assert (d.milli_kwh >= 0).all()
        assert not (d.timestamp % d.interval_s).any()

    def test_weights_must_sum_to_one(self):
        cluster = ClusterProfile(weight=0.5, hourly_mean=(1.0,) * 24, hourly_std=(0.0,) * 24)
        with pytest.raises(ValueError):
            GeneratorModel(clusters=(cluster,))

    # Models numpy's choice and normal used to refuse inside generate, and one (a NaN
    # weight) that generate sampled from; the model's own checks now refuse them all.
    @pytest.mark.parametrize("weights, mean, std", [
        ((1.5, -0.5), 1.0, 0.1),
        ((float("nan"),), 1.0, 0.1),
        ((float("inf"), float("-inf")), 1.0, 0.1),
        ((1.0,), 1.0, -0.5),
        ((1.0,), 1.0, -0.0),
        ((1.0,), 1.0, float("nan")),
        ((1.0,), 1.0, float("inf")),
        ((1.0,), 1.0, float("-inf")),
        ((1.0,), float("nan"), 0.1),
        ((1.0,), float("inf"), 0.1),
    ], ids=["negative-weight", "nan-weight", "infinite-weights", "negative-std", "minus-zero-std",
            "nan-std", "infinite-std", "minus-infinite-std", "nan-mean", "infinite-mean"])
    def test_model_refuses_what_sampling_cannot_use(self, weights, mean, std):
        with pytest.raises(ValueError):
            GeneratorModel(clusters=tuple(
                ClusterProfile(weight=w, hourly_mean=(1.0,) * 23 + (mean,),
                               hourly_std=(0.2,) * 23 + (std,))
                for w in weights))


class TestFidelityReport:
    def test_identity_is_exactly_zero(self, two_cluster_dataset):
        report = fidelity_report(two_cluster_dataset, two_cluster_dataset)
        assert all(e == 0.0 for e in report.per_hour_mean_rel_err)
        assert report.hist_l1 == 0.0
        assert report.peak_dist_rel_err == 0.0

    def test_doubled_values_give_unit_error(self):
        real = _constant_dataset(4, 1000)
        doubled = _constant_dataset(4, 2000)
        report = fidelity_report(real, doubled)
        assert all(e == pytest.approx(1.0, abs=1e-12) for e in report.per_hour_mean_rel_err)
        assert report.peak_dist_rel_err == pytest.approx(1.0, abs=1e-12)

    def test_fit_generate_reproduces_hourly_means(self, two_cluster_dataset):
        model = fit(two_cluster_dataset, 2, seed=0)
        synth = generate(model, n_households=300, n_days=2, seed=1)
        report = fidelity_report(two_cluster_dataset, synth)
        assert max(report.per_hour_mean_rel_err) < 0.10
        assert report.hist_l1 < 0.5

    def test_empty_dataset_rejected(self):
        d = _constant_dataset(2, 1000)
        empty = FeederDataset(series=(), interval_s=3600, delta_max=EnergyQuantity(5000))
        with pytest.raises(EmptyDataset):
            fidelity_report(d, empty)


class TestPrivacyCheck:
    def test_exact_copy_sets_flag(self, two_cluster_dataset):
        real = two_cluster_dataset
        model = fit(real, 2, seed=0)
        synth = generate(model, n_households=20, n_days=2, seed=1)
        copied = real.series[0]
        renamed = build_series(
            "synth-copy", [r.energy.milli_kwh for r in copied.readings]
        )
        poisoned = FeederDataset(
            series=synth.series + (renamed,),
            interval_s=3600,
            delta_max=EnergyQuantity(
                max(synth.delta_max.milli_kwh, real.delta_max.milli_kwh)
            ),
        )
        report = privacy_check(real, poisoned, threshold=0.01)
        assert report.min_nn_distance == 0.0
        assert report.memorization_flag

    def test_independent_synth_not_flagged(self, two_cluster_dataset):
        synth = generate(_flat_model(1.0, 0.3), 40, 2, seed=77)
        report = privacy_check(two_cluster_dataset, synth, threshold=0.01)
        assert report.min_nn_distance > 0.0
        assert not report.memorization_flag

    def test_zero_threshold_flags_only_exact_duplicate(self, two_cluster_dataset):
        synth = generate(_flat_model(1.0, 0.3), 40, 2, seed=77)
        report = privacy_check(two_cluster_dataset, synth, threshold=0.0)
        assert not report.memorization_flag

        duplicate = build_series(
            "dup", [r.energy.milli_kwh for r in two_cluster_dataset.series[0].readings]
        )
        poisoned = FeederDataset(
            series=(duplicate,), interval_s=3600, delta_max=two_cluster_dataset.delta_max
        )
        report = privacy_check(two_cluster_dataset, poisoned, threshold=0.0)
        assert report.memorization_flag

    def test_flag_monotone_in_threshold(self, two_cluster_dataset):
        synth = generate(_flat_model(1.0, 0.3), 40, 2, seed=13)
        flags = [
            privacy_check(two_cluster_dataset, synth, threshold=t).memorization_flag
            for t in (0.0, 0.001, 0.01, 0.1, 10.0)
        ]
        # Once set, raising the threshold never clears it.
        assert flags == sorted(flags)

    def test_independent_synth_auc_near_chance(self):
        real = make_two_cluster_dataset(n_meters=200, n_days=2, seed=5)
        synth = generate(_flat_model(1.2, 0.4), 200, 2, seed=1234)
        report = privacy_check(real, synth, threshold=0.001)
        assert 0.4 <= report.distinguisher_auc <= 0.6

    def test_copying_one_half_is_detectable(self):
        real = make_two_cluster_dataset(n_meters=40, n_days=1, seed=6)
        members = real.series[0::2]  # the member half used by the distinguisher
        copies = tuple(
            build_series(f"copy-{i}", [r.energy.milli_kwh for r in s.readings])
            for i, s in enumerate(members)
        )
        synth = FeederDataset(
            series=copies, interval_s=3600, delta_max=real.delta_max
        )
        report = privacy_check(real, synth, threshold=0.01)
        assert report.distinguisher_auc > 0.9

    def test_empty_rejected(self):
        d = _constant_dataset(2, 1000)
        empty = FeederDataset(series=(), interval_s=3600, delta_max=EnergyQuantity(5000))
        with pytest.raises(EmptyDataset):
            privacy_check(d, empty, threshold=0.1)


def _loop_rank_auc(member_scores, other_scores):
    """The tie loop _rank_auc used before np.unique, kept as the reference."""
    if len(member_scores) == 0 or len(other_scores) == 0:
        return 0.5
    combined = np.concatenate([member_scores, other_scores])
    order = np.argsort(combined, kind="mergesort")
    ranks = np.empty(len(combined))
    ranks[order] = np.arange(1, len(combined) + 1)
    sorted_vals = combined[order]
    i = 0
    while i < len(sorted_vals):
        j = i
        while j + 1 < len(sorted_vals) and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        if j > i:
            ranks[order[i : j + 1]] = (i + 1 + j + 1) / 2.0
        i = j + 1
    m = len(member_scores)
    u = ranks[:m].sum() - m * (m + 1) / 2.0
    return float(1.0 - u / (m * len(other_scores)))


# Few distinct values, so most draws hold ties; lists may be empty.
_scores = st.lists(st.sampled_from([0.0, 0.125, 0.5, 1.0 / 3.0, 2.0, 7.5]), max_size=40)


@settings(max_examples=300, deadline=None)
@given(members=_scores, others=_scores, spread=st.lists(
    st.floats(0.0, 10.0, allow_nan=False), max_size=40))
def test_rank_auc_matches_the_tie_loop_bit_for_bit(members, others, spread):
    for a, b in ((members, others), (members + spread, others), (spread, others + spread)):
        a, b = np.array(a, dtype=float), np.array(b, dtype=float)
        assert _rank_auc(a, b).hex() == _loop_rank_auc(a, b).hex()


def _loop_generate(model, n_households, n_days, seed):
    """generate as one choice, one normal and one cast per household, kept as the reference."""
    horizon = n_days * 24
    weights = np.array([c.weight for c in model.clusters])
    households = []
    for h in range(n_households):
        rng = np.random.default_rng([seed, h])
        cluster = model.clusters[rng.choice(len(weights), p=weights)]
        mean = np.tile(cluster.hourly_mean, n_days)
        std = np.tile(cluster.hourly_std, n_days)
        values = np.maximum(0.0, rng.normal(mean, std))
        households.append(np.rint(values * MILLI_PER_KWH).astype(np.int64))
    milli = np.concatenate(households)
    return FeederDataset.from_columns(
        meter_ids=[f"synth-{h:05d}" for h in range(n_households)],
        meter_idx=np.repeat(np.arange(n_households), horizon),
        timestamp=np.tile(np.arange(horizon) * 3600, n_households),
        milli_kwh=milli, interval_s=3600,
        delta_max=EnergyQuantity(max(1, int(milli.max()))),
    )


@st.composite
def _models(draw):
    """1-4 clusters; integer weights, so a cluster may have weight 0; some stds 0.

    Profiles come from a drawn numpy seed, so a failing case shrinks quickly.
    """
    counts = draw(st.lists(st.integers(0, 5), min_size=1, max_size=4).filter(any))
    clusters = []
    for n in counts:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        std = rng.uniform(0.0, 2.0, 24) * (rng.random(24) < draw(st.sampled_from([0.0, 0.5, 1.0])))
        clusters.append(ClusterProfile(weight=n / sum(counts),
                                       hourly_mean=tuple(rng.uniform(-1.0, 4.0, 24)),
                                       hourly_std=tuple(std)))
    return GeneratorModel(clusters=tuple(clusters))


@settings(max_examples=150, deadline=None)
@given(model=_models(), n_households=st.integers(1, 29), n_days=st.integers(1, 8),
       seed=st.integers(0, 2**63 - 1))
def test_generate_matches_the_household_loop_bit_for_bit(model, n_households, n_days, seed):
    got = generate(model, n_households, n_days, seed)
    want = _loop_generate(model, n_households, n_days, seed)
    np.testing.assert_array_equal(got.milli_kwh, want.milli_kwh)
    assert got.meter_ids == want.meter_ids
    np.testing.assert_array_equal(got.timestamp, want.timestamp)
    assert got.delta_max == want.delta_max


_TOTALS = ("interval_milli", "meter_milli", "total_milli")


def _totals_kept(dataset):
    """The totals a dataset holds in their slots, that is, has computed."""
    kept = set()
    for name in _TOTALS:
        try:
            FeederDataset.__dict__[name].__get__(dataset, FeederDataset)
            kept.add(name)
        except AttributeError:
            pass
    return kept


def test_generate_and_privacy_check_never_compute_the_synthetic_totals():
    real = make_two_cluster_dataset(6, 3, seed=4)
    synth = generate(fit(real, 2, seed=1), 5, 2, seed=3)
    privacy_check(real, synth, threshold=0.01)
    assert _totals_kept(synth) == set()
    assert synth.total_milli == int(synth.milli_kwh.sum())  # a total is computed on first read
    assert _totals_kept(synth) == {"total_milli"}


def _loop_fit(real, n_clusters, seed):
    """fit with per-meter day lists and a fixed 25 Lloyd iterations, kept as the reference."""
    if n_clusters < 1:
        raise ValueError("n_clusters must be >= 1")
    if len(real.meter_ids) < n_clusters:
        raise TooFewSeries(f"{len(real.meter_ids)} series < {n_clusters} clusters")
    per_day_expected = SECONDS_PER_DAY // real.interval_s
    if per_day_expected * real.interval_s != SECONDS_PER_DAY or real.interval_s > 3600:
        raise SyntheticError("interval must divide one hour for hourly profiling")
    group, starts = _meter_days(real)
    hourly = np.zeros((len(starts), 24), dtype=np.int64)
    np.add.at(hourly, (group, real.timestamp % SECONDS_PER_DAY // 3600), real.milli_kwh)
    complete = np.diff(np.append(starts, len(group))) == per_day_expected
    meters = real.meter_idx[starts[complete]]
    day_rows = np.split(hourly[complete] / MILLI_PER_KWH,
                        np.searchsorted(meters, np.arange(1, len(real.meter_ids))))
    for meter_id, days in zip(real.meter_ids, day_rows):
        if not len(days):
            raise EmptySeries(f"series {meter_id!r} has no complete day")
    profiles = np.stack([rows.mean(axis=0) for rows in day_rows])

    rng = np.random.default_rng(seed)
    init = rng.choice(len(profiles), size=n_clusters, replace=False)
    centroids = profiles[init].copy()
    assignment = np.zeros(len(profiles), dtype=int)
    for _ in range(25):
        dists = ((profiles[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        assignment = dists.argmin(axis=1)
        for c in range(n_clusters):
            members = profiles[assignment == c]
            if len(members):
                centroids[c] = members.mean(axis=0)

    clusters = []
    for c in range(n_clusters):
        member_idx = np.flatnonzero(assignment == c)
        member_days = np.concatenate([day_rows[i] for i in member_idx])  # empty: ValueError
        clusters.append(ClusterProfile(
            weight=len(member_idx) / len(profiles),
            hourly_mean=tuple(member_days.mean(axis=0)),
            hourly_std=tuple(member_days.std(axis=0)),
        ))
    return GeneratorModel(clusters=tuple(clusters))


def _fit_outcome(fit_fn, real, n_clusters, seed):
    try:
        return fit_fn(real, n_clusters, seed)
    except ValueError:  # a cluster ended without members
        return ValueError


_FIT_DATASETS = [make_two_cluster_dataset(n_meters=n, n_days=d, seed=s)
                 for n, d, s in ((7, 1, 1), (24, 2, 2), (50, 3, 3))]


@settings(max_examples=150, deadline=None)
@given(which=st.integers(0, len(_FIT_DATASETS) - 1), n_clusters=st.integers(1, 4),
       seed=st.integers(0, 2**32 - 1))
def test_fit_matches_the_fixed_iteration_loop(which, n_clusters, seed):
    real = _FIT_DATASETS[which]
    got, want = (_fit_outcome(f, real, n_clusters, seed) for f in (fit, _loop_fit))
    assert got == want
    assert repr(got) == repr(want)  # and the weights stay Python floats


def test_fit_with_a_cluster_left_empty_matches_the_loop():
    d = _constant_dataset(5, 1000)  # identical meters: every one joins cluster 0
    for seed in range(5):
        assert _fit_outcome(fit, d, 3, seed) is _fit_outcome(_loop_fit, d, 3, seed) is ValueError
        assert fit(d, 1, seed) == _loop_fit(d, 1, seed)


def test_day_profiles_are_computed_once_per_dataset(monkeypatch, two_cluster_dataset):
    calls = []
    compute = synthetic._hourly_day_rows
    monkeypatch.setattr(synthetic, "_hourly_day_rows", lambda d: calls.append(d) or compute(d))
    with pytest.raises(ValueError):
        fit(two_cluster_dataset, 0, 0)
    with pytest.raises(TooFewSeries):
        fit(two_cluster_dataset, 61, 0)
    assert calls == []  # argument checks come before the view
    first = fit(two_cluster_dataset, 2, 0)
    fit(two_cluster_dataset, 3, 1)
    assert len(calls) == 1
    assert fit(two_cluster_dataset, 2, 0) == first

    partial = FeederDataset(
        series=(build_series("full", [1000] * 24), build_series("short", [1000] * 10)),
        interval_s=3600, delta_max=EnergyQuantity(5000))
    for _ in range(2):  # a refused dataset stores nothing, so it is refused again
        with pytest.raises(EmptySeries, match="'short'"):
            fit(partial, 1, 0)
    assert len(calls) == 3
