import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import amiprivacy.fedlearn as fedlearn
from amiprivacy.fedlearn import (
    ClipNormMissing,
    ClientUpdate,
    DimensionMismatch,
    EmptyUpdateList,
    FixedPointOverflow,
    MASK_MODULUS,
    ModelParams,
    NoTrainingData,
    RoundConfig,
    decode_fixed,
    dp_noise_update,
    encode_fixed,
    extract_examples,
    fed_avg,
    local_train,
    masked_uploads,
    LAG_LONG,
    N_FEATURES,
    round_robin_shards,
    run_federation,
)
from amiprivacy.meterdata import MILLI_PER_KWH
from conftest import build_series, make_uniform_dataset

INTERVAL = 900  # 15-minute data so lag-96 is one day


def _random_series(meter_id, n_readings, seed):
    rng = random.Random(seed)
    milli = [rng.randrange(200, 3000) for _ in range(n_readings)]
    return build_series(meter_id, milli, interval_s=INTERVAL)


def _update(weights, n):
    return ClientUpdate(client_id=f"c{n}", weights=ModelParams(np.array(weights)), n_samples=n)


def _centralized_gd(X, y, w0, lr, steps):
    """Independent full-batch oracle for the same MSE objective."""
    w = np.array(w0, dtype=float)
    for _ in range(steps):
        w = w - lr * (2.0 / len(y)) * (X.T @ (X @ w - y))
    return w


class TestLocalTrain:
    def test_zero_residual_returns_global(self):
        # Constant load is fit exactly by "predict = previous interval".
        series = build_series("m", [1000] * 200, interval_s=INTERVAL)
        global_params = ModelParams(np.array([1.0, 0.0, 0.0, 0.0]))
        cfg = RoundConfig(local_steps=5, learning_rate=0.1)
        update = local_train(extract_examples([series]), global_params, cfg, "c0")
        assert np.array_equal(update.weights.weights, global_params.weights)
        assert update.n_samples == 200 - 96

    def test_single_example_hand_gradient(self):
        series = _random_series("m", 97, seed=3)
        kwh = [r.energy.kwh for r in series.readings]
        hour = (series.readings[96].timestamp // 3600) % 24
        x = [kwh[95], kwh[0], hour / 23.0, 1.0]
        y = kwh[96]
        w0 = [0.1, -0.2, 0.3, 0.05]
        lr = 0.01
        residual = sum(xi * wi for xi, wi in zip(x, w0)) - y
        expected = [wi - lr * 2.0 * residual * xi for wi, xi in zip(w0, x)]

        cfg = RoundConfig(local_steps=1, learning_rate=lr)
        update = local_train(extract_examples([series]), ModelParams(np.array(w0)), cfg, "c0")
        assert update.n_samples == 1
        np.testing.assert_allclose(update.weights.weights, expected, rtol=0, atol=1e-12)

    def test_no_training_data(self):
        short = _random_series("m", 50, seed=1)  # below the lag horizon
        with pytest.raises(NoTrainingData):
            local_train(extract_examples([short]), ModelParams(np.zeros(4)), RoundConfig(), "c0")

    def test_local_steps_zero_rejected(self):
        with pytest.raises(ValueError):
            RoundConfig(local_steps=0)

    def test_extract_examples_feature_layout(self):
        series = _random_series("m", 100, seed=9)
        X, y = extract_examples([series])
        assert X.shape == (4, 4)
        kwh = [r.energy.kwh for r in series.readings]
        assert X[0][0] == kwh[95]
        assert X[0][1] == kwh[0]
        assert X[0][3] == 1.0
        assert y[0] == kwh[96]


class TestFedAvg:
    def test_weighted_mean_formula(self):
        avg = fed_avg([_update([2.0], 10), _update([4.0], 30)])
        assert avg.weights.tolist() == [3.5]

    def test_single_update_identity(self):
        avg = fed_avg([_update([1.5, -2.5], 7)])
        assert avg.weights.tolist() == [1.5, -2.5]

    def test_equal_counts_unweighted_mean(self):
        avg = fed_avg([_update([1.0, 3.0], 5), _update([3.0, 5.0], 5)])
        assert avg.weights.tolist() == [2.0, 4.0]

    def test_permutation_invariant(self):
        ups = [_update([1.0], 2), _update([5.0], 3), _update([9.0], 4)]
        a = fed_avg(ups).weights
        b = fed_avg(list(reversed(ups))).weights
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-15)

    def test_split_client_recombines(self):
        whole = [_update([1.0, 2.0], 4), _update([5.0, 6.0], 4)]
        split = [
            _update([1.0, 2.0], 1),
            _update([1.0, 2.0], 3),
            _update([5.0, 6.0], 4),
        ]
        np.testing.assert_array_equal(fed_avg(whole).weights, fed_avg(split).weights)

    def test_empty_rejected(self):
        with pytest.raises(EmptyUpdateList):
            fed_avg([])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            fed_avg([_update([1.0], 1), _update([1.0, 2.0], 1)])


def _column_sums(uploads):
    return uploads.sum(axis=0, dtype=np.uint64)


class TestMasking:
    def test_two_client_masks_cancel(self):
        w_a, w_b = np.array([0.5, -1.25, 2.0, 0.0]), np.array([1.0, 1.0, -3.5, 0.125])
        uploads = masked_uploads(np.stack([w_a, w_b]), {(0, 1): 12345})
        assert uploads.dtype == np.uint64 and uploads.shape == (2, 4)
        plain = [
            (x + y) % MASK_MODULUS
            for x, y in zip(encode_fixed(w_a), encode_fixed(w_b))
        ]
        assert _column_sums(uploads).tolist() == plain
        np.testing.assert_array_equal(decode_fixed(_column_sums(uploads)), w_a + w_b)

    def test_masked_payload_differs_from_plain(self):
        vectors = np.array([[0.5, 1.5, -2.5, 0.0], [1.0, -1.0, 0.25, 3.0]])
        uploads = masked_uploads(vectors, {(0, 1): 99})
        for row, vec in zip(uploads.tolist(), vectors):
            assert all(u != e for u, e in zip(row, encode_fixed(vec)))

    def test_single_client_mask_is_empty_sum(self):
        w = np.array([0.25, -0.75])
        uploads = masked_uploads(w[None, :], {})
        assert tuple(uploads[0].tolist()) == encode_fixed(w)

    def test_five_clients_random_seeds(self):
        rng = random.Random(8)
        vectors = np.array([[rng.uniform(-5, 5) for _ in range(4)] for _ in range(5)])
        pair_seeds = {(i, j): rng.randrange(2**32) for i in range(5) for j in range(i + 1, 5)}
        uploads = masked_uploads(vectors, pair_seeds)
        plain_fixed = [0, 0, 0, 0]
        for w in vectors:
            for k, v in enumerate(encode_fixed(w)):
                plain_fixed[k] = (plain_fixed[k] + v) % MASK_MODULUS
        assert _column_sums(uploads).tolist() == plain_fixed

    def test_fixed_point_bound_is_two_to_the_63_over_k(self):
        k = 3
        limit = 2**63 / k / 1e6  # largest |coordinate| whose k-fold sum decodes
        under = np.full((k, 2), limit * (1 - 1e-9))
        under[:, 1] *= -1
        sums = _column_sums(masked_uploads(under, {(0, 1): 5, (0, 2): 6, (1, 2): 7}))
        exact = [k * round(v * 1e6) for v in under[0]]
        assert sums.astype(np.int64).tolist() == exact  # no wrap: the signs survive
        for sign in (1, -1):
            over = under.copy()
            over[2, 0] = sign * limit * (1 + 1e-9)
            with pytest.raises(FixedPointOverflow):
                masked_uploads(over, {})

    def test_encode_decode_round_trip(self):
        vec = np.array([0.000001, -123.456789, 0.0, 7.25])
        np.testing.assert_allclose(
            decode_fixed(encode_fixed(vec)), vec, rtol=0, atol=5e-7
        )


class TestDpNoiseUpdate:
    def test_identity_when_within_norm_and_sigma_zero(self):
        cfg = RoundConfig(clip_norm=10.0, dp_sigma=0.0)
        u = _update([0.6, 0.8], 1)
        out = dp_noise_update(u, cfg, random.Random(0))
        np.testing.assert_array_equal(out.weights.weights, u.weights.weights)

    def test_clip_scales_to_unit_norm(self):
        cfg = RoundConfig(clip_norm=1.0, dp_sigma=0.0)
        out = dp_noise_update(_update([3.0, 4.0], 1), cfg, random.Random(0))
        np.testing.assert_allclose(out.weights.weights, [0.6, 0.8], rtol=0, atol=1e-15)

    def test_noise_reproducible_under_seed(self):
        cfg = RoundConfig(clip_norm=1.0, dp_sigma=0.5)
        a = dp_noise_update(_update([3.0, 4.0], 1), cfg, random.Random(42))
        b = dp_noise_update(_update([3.0, 4.0], 1), cfg, random.Random(42))
        np.testing.assert_array_equal(a.weights.weights, b.weights.weights)
        assert not np.array_equal(a.weights.weights, [0.6, 0.8])

    def test_clip_norm_required(self):
        cfg = RoundConfig()
        with pytest.raises(ClipNormMissing):
            dp_noise_update(_update([1.0], 1), cfg, random.Random(0))

    def test_sigma_without_clip_rejected(self):
        with pytest.raises(ValueError):
            RoundConfig(dp_sigma=0.1)


def _shards(n_clients, series_per_client, n_readings=192, seed=0):
    shards = []
    for c in range(n_clients):
        shards.append(
            [
                _random_series(f"m{c}-{j}", n_readings, seed + c * 10 + j)
                for j in range(series_per_client)
            ]
        )
    return shards


class TestRunFederation:
    def test_single_client_equals_centralized(self):
        shard = [_random_series("m", 192, seed=5)]
        cfg = RoundConfig(rounds=4, local_steps=3, learning_rate=0.01)
        result = run_federation([shard], cfg, seed=0)
        X, y = extract_examples(shard)
        oracle = _centralized_gd(X, y, np.zeros(4), 0.01, steps=12)
        np.testing.assert_allclose(result.final.weights, oracle, rtol=1e-12, atol=0)

    def test_matches_centralized_per_round(self):
        shards = _shards(4, 2, seed=1)
        train_series = [s for shard in shards for s in shard[:-1]]
        X, y = extract_examples(train_series)
        lr = 0.01
        for rounds in (1, 2, 5, 10):
            cfg = RoundConfig(rounds=rounds, local_steps=1, learning_rate=lr)
            fed = run_federation(shards, cfg, seed=0).final.weights
            oracle = _centralized_gd(X, y, np.zeros(4), lr, steps=rounds)
            np.testing.assert_allclose(fed, oracle, rtol=1e-9, atol=1e-12)

    def test_secure_aggregation_changes_nothing_in_fixed_point(self):
        shards = _shards(3, 2, seed=2)
        cfg = RoundConfig(rounds=3, local_steps=1, learning_rate=0.01)
        plain = run_federation(shards, cfg, seed=7, secure_agg=False)
        masked = run_federation(shards, cfg, seed=7, secure_agg=True)
        assert encode_fixed(plain.final.weights) == encode_fixed(masked.final.weights)

    def test_client_without_data_is_excluded(self):
        good = [_random_series("good", 192, seed=3)]
        empty_shard = [_random_series("short", 50, seed=4)]  # yields no examples
        cfg = RoundConfig(rounds=2, local_steps=1, learning_rate=0.01)
        with_empty = run_federation([empty_shard, good], cfg, seed=0)
        alone = run_federation([good], cfg, seed=0)
        np.testing.assert_array_equal(with_empty.final.weights, alone.final.weights)

    def test_deterministic_under_seed(self):
        shards = _shards(2, 2, seed=6)
        cfg = RoundConfig(rounds=2, local_steps=2, learning_rate=0.01,
                          clip_norm=5.0, dp_sigma=0.01)
        a = run_federation(shards, cfg, seed=21)
        b = run_federation(shards, cfg, seed=21)
        np.testing.assert_array_equal(a.final.weights, b.final.weights)
        assert a.history == b.history

    def test_clip_without_noise_bounds_the_weights(self):
        shards = _shards(2, 2, seed=6)
        unclipped = run_federation(shards, RoundConfig(rounds=3, learning_rate=0.01), seed=0)
        cfg = RoundConfig(rounds=3, learning_rate=0.01, clip_norm=1e-3)  # dp_sigma stays 0
        clipped = run_federation(shards, cfg, seed=0)
        assert np.linalg.norm(unclipped.final.weights) > 0.1
        assert np.linalg.norm(clipped.final.weights) <= 1e-3 * (1 + 1e-12)

    def test_history_records_every_round(self):
        shards = _shards(2, 2, seed=8)
        cfg = RoundConfig(rounds=5, local_steps=1, learning_rate=0.01)
        result = run_federation(shards, cfg, seed=0)
        assert [m.round_index for m in result.history] == list(range(5))
        assert all(np.isfinite(m.mse) for m in result.history)

    def test_clients_only_see_their_own_shard(self, monkeypatch):
        shards = _shards(3, 1, seed=9)
        calls = []
        real = fedlearn.extract_examples

        def spy(series_set):
            calls.append({s.meter_id for s in series_set})
            return real(series_set)

        monkeypatch.setattr(fedlearn, "extract_examples", spy)
        run_federation(shards, RoundConfig(rounds=2, learning_rate=0.01), seed=0)
        # The hold-out set first (empty: no client has a second series), then each client's own.
        assert calls == [set()] + [{s.meter_id for s in shard} for shard in shards]


def test_examples_extracted_once_per_client_and_weights_unchanged(monkeypatch):
    shards = _shards(4, 3, seed=12)
    cfg = RoundConfig(rounds=5, local_steps=2, learning_rate=0.01)
    # Reference: every round re-extracts each client's examples.
    w = np.zeros(4)
    for _ in range(cfg.rounds):
        updates = [local_train(extract_examples(shard[:-1]), ModelParams(w), cfg,
                               f"client-{i:03d}") for i, shard in enumerate(shards)]
        w = np.array(fed_avg(updates).weights)

    calls = []
    real = fedlearn.extract_examples

    def counting(series_set):
        calls.append(1)
        return real(series_set)

    monkeypatch.setattr(fedlearn, "extract_examples", counting)
    result = run_federation(shards, cfg, seed=0)
    assert len(calls) == len(shards) + 1  # each client once, plus the hold-out set
    np.testing.assert_array_equal(result.final.weights, w)


def _reference_federation(shards, cfg, seed, secure_agg):
    """The round loop as it was first written: every client tries to train each round."""
    X_hold, y_hold = extract_examples([shard[-1] for shard in shards if len(shard) > 1])
    examples = [extract_examples(shard[:-1] if len(shard) > 1 else shard) for shard in shards]
    w, mses = np.zeros(4), []
    for rnd in range(cfg.rounds):
        updates = []
        for i, client_examples in enumerate(examples):
            client_id = f"client-{i:03d}"
            try:
                update = local_train(client_examples, ModelParams(w), cfg, client_id)
            except NoTrainingData:
                continue
            if cfg.clip_norm is not None:
                rng = random.Random(fedlearn._derived_seed(seed, client_id, rnd))
                update = dp_noise_update(update, cfg, rng)
            updates.append(update)
        if secure_agg:
            ids = [u.client_id for u in updates]
            pair_seeds = {(i, j): fedlearn._derived_seed(seed, rnd, *sorted((ids[i], ids[j])))
                          for i in range(len(ids)) for j in range(i + 1, len(ids))}
            vectors = np.stack([u.weights.weights * u.n_samples for u in updates])
            uploads = masked_uploads(vectors, pair_seeds)
            w = decode_fixed(uploads.sum(axis=0, dtype=np.uint64)) / sum(
                u.n_samples for u in updates)
        else:
            w = np.array(fed_avg(updates).weights)
        mses.append(float(np.mean((X_hold @ w - y_hold) ** 2)))
    return w, mses


@pytest.mark.parametrize("secure_agg", [False, True], ids=["plain", "secure"])
@pytest.mark.parametrize("dp_keys", [{}, {"clip_norm": 0.2}, {"clip_norm": 0.2, "dp_sigma": 0.01}],
                         ids=["no_clip", "clip", "clip_and_noise"])
def test_training_clients_fixed_once_give_the_reference_weights_and_mses(
    monkeypatch, secure_agg, dp_keys
):
    shards = _shards(3, 3, seed=12)
    # Client 1's series are all shorter than 97 readings, so it has no examples and never trains.
    shards.insert(1, [_random_series("s0", 90, 40), _random_series("s1", 96, 41)])
    cfg = RoundConfig(rounds=4, local_steps=2, learning_rate=0.01, **dp_keys)
    w, mses = _reference_federation(shards, cfg, 4, secure_agg)

    trained = []
    real = fedlearn.local_train

    def spy(examples, params, cfg, client_id=""):
        trained.append(client_id)
        return real(examples, params, cfg, client_id)

    monkeypatch.setattr(fedlearn, "local_train", spy)
    result = run_federation(shards, cfg, seed=4, secure_agg=secure_agg)
    np.testing.assert_array_equal(result.final.weights, w)
    assert [m.mse for m in result.history] == mses
    assert trained == ["client-000", "client-002", "client-003"] * cfg.rounds


def test_no_client_with_examples_is_refused_before_any_training(monkeypatch):
    # The lone series is too short; the pair's long one is held out, its short one is not.
    shards = [[_random_series("a", 96, 1)],
              [_random_series("b", 50, 2), _random_series("c", 200, 3)]]
    monkeypatch.setattr(fedlearn, "local_train", lambda *args: pytest.fail("a client trained"))
    with pytest.raises(NoTrainingData, match="^no client produced a training update$"):
        run_federation(shards, RoundConfig(rounds=3, learning_rate=0.01), seed=0)


def test_round_robin_shards_deal_meters_in_turn():
    dataset = make_uniform_dataset(7, 1000, 2)
    shards = round_robin_shards(dataset, 3)
    assert [[s.meter_id for s in shard] for shard in shards] == [
        ["m0000", "m0003", "m0006"], ["m0001", "m0004"], ["m0002", "m0005"],
    ]
    assert round_robin_shards(dataset, 10)[9] == ()


def _examples_series_by_series(series_set):
    """extract_examples as one column_stack per series, concatenated."""
    feats, targets = [], []
    for s in series_set:
        if len(s) <= LAG_LONG:
            continue
        kwh = s.milli_kwh / MILLI_PER_KWH
        hour = s.timestamp[LAG_LONG:] // 3600 % 24
        feats.append(np.column_stack(
            [kwh[LAG_LONG - 1:-1], kwh[:-LAG_LONG], hour / 23.0, np.ones(len(hour))]))
        targets.append(kwh[LAG_LONG:])
    if not feats:
        return np.empty((0, N_FEATURES)), np.empty((0,))
    return np.concatenate(feats), np.concatenate(targets)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 2 * LAG_LONG + 3), st.integers(0, 200),
                          st.integers(0, 2**32 - 1)), max_size=5))
@example(shapes=[])
@example(shapes=[(LAG_LONG, 0, 1), (LAG_LONG + 1, 3, 2), (0, 0, 3), (LAG_LONG + 2, 7, 4)])
def test_extract_examples_equals_the_series_by_series_stack(shapes):
    series = [build_series(f"m{i}", np.random.default_rng(seed).integers(0, 5000, n).tolist(),
                           interval_s=INTERVAL, start=start * INTERVAL)
              for i, (n, start, seed) in enumerate(shapes)]
    X, y = extract_examples(iter(series))
    X_ref, y_ref = _examples_series_by_series(series)
    for got, ref in ((X, X_ref), (y, y_ref)):
        assert (got.dtype, got.shape, got.flags.c_contiguous) == (ref.dtype, ref.shape, True)
        assert got.tobytes() == ref.tobytes()
