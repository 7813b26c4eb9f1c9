import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from amiprivacy.meterdata import EnergyQuantity, FeederDataset, serialize_csv
from amiprivacy.synthetic import (
    ClusterProfile,
    EmptyDataset,
    EmptySeries,
    GeneratorModel,
    TooFewSeries,
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
