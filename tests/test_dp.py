import math
import random
import threading

import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st

from amiprivacy.dp import (
    BudgetExhausted,
    BudgetLedger,
    CapMismatch,
    DeltaNotZero,
    EmptyDataset,
    InvalidUniform,
    LedgerEntry,
    OPS,
    PrivacyParams,
    Sensitivity,
    compose,
    dp_sum,
    laplace_mechanism,
    laplace_sample,
    prepare,
    release,
    seeded_rng,
)
from amiprivacy.meterdata import EnergyQuantity, FeederDataset
from conftest import StubRng, build_series, make_uniform_dataset

EPS1 = PrivacyParams(epsilon=1.0)
LN2_TIMES_10 = 6.931471805599453  # -10 * ln(0.5)


class TestLaplaceSample:
    def test_median_is_zero(self):
        assert laplace_sample(10.0, 0.5) == 0.0
        assert math.copysign(1.0, laplace_sample(10.0, 0.5)) == 1.0  # +0.0, not -0.0

    def test_upper_quartile(self):
        assert laplace_sample(10.0, 0.75) == pytest.approx(LN2_TIMES_10, abs=1e-12)

    def test_symmetry(self):
        assert laplace_sample(10.0, 0.25) == -laplace_sample(10.0, 0.75)

    @pytest.mark.parametrize("u", [0.0, 1.0, -0.2, 1.5])
    def test_invalid_uniform(self, u):
        with pytest.raises(InvalidUniform):
            laplace_sample(10.0, u)

    def test_empirical_moments(self):
        rng = seeded_rng(7)
        b = 10.0
        n = 100_000
        samples = [laplace_sample(b, rng.random() or 0.5) for _ in range(n)]
        mean = sum(samples) / n
        var = sum((s - mean) ** 2 for s in samples) / n
        assert abs(mean) < 0.05 * b
        assert abs(math.sqrt(var) - b * math.sqrt(2)) < 0.03 * b * math.sqrt(2)


class TestLaplaceMechanism:
    @pytest.mark.parametrize("u", [0.3, 0.5, 0.7])
    def test_a_scale_that_overflows_is_refused(self, u):
        # 1.0 / 1e-320 is inf: the sample would be -inf, nan or inf.
        with pytest.raises(ValueError, match="must be positive and finite"):
            laplace_mechanism(5.0, Sensitivity(1.0), PrivacyParams(1e-320), StubRng(uniforms=[u]))

    def test_a_refused_scale_draws_nothing(self):
        rng = random.Random(1)
        state = rng.getstate()
        with pytest.raises(ValueError, match="must be positive and finite"):
            laplace_mechanism(5.0, Sensitivity(1.0), PrivacyParams(1e-320), rng)
        assert rng.getstate() == state

    def test_scale_is_sensitivity_over_epsilon(self):
        # Delta=5, eps=0.5 must give scale 10 exactly: the injected-uniform
        # noise matches the closed form at scale 10 bit for bit.
        p = PrivacyParams(epsilon=0.5)
        for u in (0.1, 0.3, 0.75, 0.9):
            answer = laplace_mechanism(0.0, Sensitivity(5.0), p, StubRng(uniforms=[u]))
            assert answer.value == laplace_sample(10.0, u)

    def test_zero_noise_at_median(self):
        answer = laplace_mechanism(123.456, Sensitivity(5.0), EPS1, StubRng(uniforms=[0.5]))
        assert answer.value == 123.456

    def test_derived_value(self):
        answer = laplace_mechanism(100.0, Sensitivity(5.0), EPS1, StubRng(uniforms=[0.75]))
        assert answer.value == pytest.approx(103.46573590279973, abs=1e-12)

    def test_records_parameters(self):
        answer = laplace_mechanism(1.0, Sensitivity(5.0), EPS1, StubRng(uniforms=[0.5]))
        assert answer.mechanism == "laplace"
        assert answer.sensitivity.delta_f == 5.0
        assert answer.params.epsilon == 1.0
        assert answer.query_id

    def test_requires_delta_zero(self):
        with pytest.raises(DeltaNotZero):
            laplace_mechanism(
                1.0, Sensitivity(1.0), PrivacyParams(1.0, 1e-5), StubRng(uniforms=[0.5])
            )


class TestParams:
    def test_epsilon_positive(self):
        with pytest.raises(ValueError):
            PrivacyParams(epsilon=0.0)

    def test_delta_range(self):
        with pytest.raises(ValueError):
            PrivacyParams(epsilon=1.0, delta=1.0)

    def test_sensitivity_positive(self):
        with pytest.raises(ValueError):
            Sensitivity(0.0)


def _ledger(cap=100.0):
    return BudgetLedger(epsilon_cap=cap)


class TestDpQueries:
    def test_sum_zero_noise_matches_plain_total(self):
        d = make_uniform_dataset(1000, 1500, 1)
        answer = dp_sum(d, 0, EPS1, _ledger(), StubRng(uniforms=[0.5]))
        assert answer.value == 1500.0

    def test_sum_on_empty_dataset_is_noise_only(self):
        d = FeederDataset(series=(), interval_s=3600, delta_max=EnergyQuantity(5000))
        answer = dp_sum(d, 0, EPS1, _ledger(), StubRng(uniforms=[0.75]))
        assert answer.value == laplace_sample(5.0, 0.75)

    def test_sum_budget_exhausted_releases_nothing(self):
        d = make_uniform_dataset(3, 1000, 1)
        ledger = _ledger(cap=1.0)
        ledger.charge("q0", 1.0, 0.0)
        before = ledger.entries
        with pytest.raises(BudgetExhausted):
            dp_sum(d, 0, EPS1, ledger, StubRng(uniforms=[0.5]))
        assert ledger.entries == before

    def test_count_zero_noise(self):
        d = make_uniform_dataset(42, 1000, 1)
        answer = release(d, "count", 1.0, 0.0, _ledger(), StubRng(uniforms=[0.5]))
        assert answer.value == 42.0
        assert answer.sensitivity.delta_f == 1.0

    def test_mean_uses_exact_public_count(self):
        d = FeederDataset(
            series=(build_series("a", [2000]), build_series("b", [3000]),
                    build_series("c", [5000])),
            interval_s=3600,
            delta_max=EnergyQuantity(5000),
        )
        answer = release(d, "mean", 1.0, 0.0, _ledger(), StubRng(uniforms=[0.5]))
        assert answer.value == pytest.approx(10.0 / 3.0, abs=1e-12)

    def test_mean_empty_dataset(self):
        d = FeederDataset(series=(), interval_s=3600, delta_max=EnergyQuantity(5000))
        with pytest.raises(EmptyDataset):
            release(d, "mean", 1.0, 0.0, _ledger(), StubRng(uniforms=[0.5]))

    def test_histogram_zero_noise_and_single_charge(self):
        series = tuple(build_series(f"m{i}", [500]) for i in range(10))
        d = FeederDataset(series=series, interval_s=3600, delta_max=EnergyQuantity(5000))
        ledger = _ledger()
        answers = release(d, "histogram", 1.0, 0.0, ledger, StubRng(uniforms=[0.5, 0.5]),
                          edges=[0.0, 1.0, 2.0])
        assert [a.value for a in answers] == [10.0, 0.0]
        assert len(ledger.entries) == 1  # one epsilon for the whole release
        assert len({a.query_id for a in answers}) == 1

    def test_histogram_edges_validated(self):
        d = make_uniform_dataset(1, 1000, 1)
        with pytest.raises(ValueError):
            release(d, "histogram", 1.0, 0.0, _ledger(), StubRng(), edges=[1.0, 1.0])


class TestLedger:
    def test_compose_twenty_four_half_epsilon_entries(self):
        ledger = _ledger(cap=100.0)
        for i in range(24):
            ledger.charge(f"q{i}", 0.5, 0.0)
        totals = compose(ledger)
        assert totals.epsilon_total == 12.0
        assert totals.delta_total == 0.0

    def test_compose_empty(self):
        totals = compose(_ledger())
        assert (totals.epsilon_total, totals.delta_total) == (0.0, 0.0)

    def test_compose_mixed_entries(self):
        ledger = _ledger()
        ledger.charge("a", 0.3, 0.0)
        ledger.charge("b", 0.7, 1e-6)
        totals = compose(ledger)
        assert totals.epsilon_total == pytest.approx(1.0, abs=1e-15)
        assert totals.delta_total == 1e-6

    def test_append_exceeding_cap_fails_atomically(self):
        ledger = BudgetLedger(epsilon_cap=1.0)
        ledger.charge("a", 0.6, 0.0)
        with pytest.raises(BudgetExhausted):
            ledger.charge("b", 0.5, 0.0)
        assert len(ledger.entries) == 1
        ledger.charge("c", 0.4, 0.0)  # exactly at the cap is allowed
        assert len(ledger.entries) == 2

    def test_compose_monotone_under_appends(self):
        ledger = _ledger()
        last = 0.0
        for i in range(10):
            ledger.charge(f"q{i}", 0.1 * (i + 1), 0.0)
            now = compose(ledger).epsilon_total
            assert now >= last
            last = now

    def test_post_processing_consumes_no_budget(self):
        d = make_uniform_dataset(5, 1000, 1)
        ledger = _ledger()
        answer = dp_sum(d, 0, EPS1, ledger, StubRng(uniforms=[0.5]))
        n_before = len(ledger.entries)
        _ = round(answer.value * 2.0)  # arbitrary post-processing
        assert len(ledger.entries) == n_before

    def test_concurrent_charges_respect_cap(self):
        ledger = BudgetLedger(epsilon_cap=5.0)
        errors = []

        def worker():
            try:
                ledger.charge("q", 1.0, 0.0)
            except BudgetExhausted:
                errors.append(1)

        threads = [threading.Thread(target=worker) for _ in range(20)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(ledger.entries) == 5
        assert len(errors) == 15

    def test_round_trip_lines(self):
        ledger = _ledger(cap=7.0)
        ledger.charge("q1", 0.25, 1e-7)
        ledger.charge("q2", 0.5, 0.0)
        restored = BudgetLedger.from_lines(ledger.to_lines(), epsilon_cap=7.0)
        assert restored.entries == ledger.entries

    def test_nan_charge_is_refused_untouched(self):
        ledger = _ledger()
        ledger.charge("q1", 0.25, 0.0)
        before = ledger.entries
        with pytest.raises(ValueError):
            ledger.charge("q2", float("nan"), 0.0)
        assert ledger.entries == before
        assert ledger.epsilon_spent() == 0.25

    def test_a_numpy_float_charge_round_trips_through_the_ledger_lines(self):
        ledger = _ledger(cap=1.0)
        ledger.charge("q", np.float64(0.5), np.float64(0.0))
        [entry] = ledger.entries
        assert (type(entry.epsilon), type(entry.delta)) == (float, float)
        assert ledger.to_lines().startswith("q,0.5,0.0,")
        assert BudgetLedger.from_lines(ledger.to_lines(), epsilon_cap=1.0).entries == (entry,)

    @pytest.mark.parametrize("epsilon, delta", [(True, 0.0), (0.5, False)])
    def test_a_bool_loss_is_refused_untouched(self, epsilon, delta):
        ledger = _ledger(cap=1.0)
        ledger.charge("q1", 0.25, 0.0)
        before = ledger.entries
        with pytest.raises(TypeError):
            ledger.charge("q2", epsilon, delta)
        with pytest.raises(TypeError):
            PrivacyParams(epsilon, delta)
        assert ledger.entries == before
        assert ledger.epsilon_spent() == 0.25

    # Summed into the running total, a nan or negative epsilon lets every later charge pass.
    @pytest.mark.parametrize("line", ["a,nan,0.0,0\n", "a,-5.0,0.0,0\n", "a,0.5,1.0,0\n"])
    def test_from_lines_refuses_a_loss_no_cap_bounds(self, line):
        with pytest.raises(ValueError):
            BudgetLedger.from_lines(line, epsilon_cap=1.0)


_AWKWARD_EDGES = [0.1, 0.2, 0.3, 0.1 + 0.2, 0.7, 1.0005, 1.2345, 2.0004999, 0.0009999999999999998,
                  0.001, 4.999999999999999, 5.0, 5.0001, 7.5, -0.0, -1.0, 1e300, math.inf,
                  -math.inf]
_EDGE = st.one_of(st.sampled_from(_AWKWARD_EDGES),
                  st.floats(min_value=-1.0, max_value=6.0, allow_nan=False))


@given(
    st.lists(st.one_of(st.integers(0, 5000), st.sampled_from([0, 1, 100, 300, 1000, 5000])),
             max_size=40),
    st.lists(_EDGE, min_size=2, max_size=8),
)
def test_histogram_integer_edges_match_float_rule(milli, edges):
    edges = sorted(set(edges))
    assume(len(edges) >= 2)
    expected = [0] * (len(edges) - 1)
    for m in milli:
        for i in range(len(expected)):
            if edges[i] <= m / 1000 < edges[i + 1]:
                expected[i] += 1
                break
    d = FeederDataset(
        series=tuple(build_series(f"m{i}", [m]) for i, m in enumerate(milli)),
        interval_s=3600,
        delta_max=EnergyQuantity(5000),
    )
    rng = StubRng(uniforms=[0.5] * len(expected))
    answers = release(d, "histogram", 1.0, 0.0, _ledger(), rng, edges=edges)
    assert [a.value for a in answers] == [float(c) for c in expected]


def test_histogram_rejects_nan_edge():
    d = make_uniform_dataset(1, 1000, 1)
    with pytest.raises(ValueError):
        release(d, "histogram", 1.0, 0.0, _ledger(), StubRng(), edges=[0.0, math.nan, 2.0])


def test_mean_takes_exact_integer_sum():
    # Ten float 0.1s add up to 0.9999999999999999; the milli-kWh sum is exact.
    d = make_uniform_dataset(10, 100, 1)
    answer = release(d, "mean", 1.0, 0.0, _ledger(), StubRng(uniforms=[0.5]))
    assert answer.value == 0.1


def _left_fold(entries):
    total = 0.0
    for e in entries:
        total += e.epsilon
    return total


@given(
    st.lists(st.floats(min_value=1e-6, max_value=0.5), max_size=4),
    st.lists(st.floats(min_value=1e-6, max_value=0.7), max_size=40),
)
def test_ledger_running_total_equals_entry_sum(seeded, charges):
    # The running total adds left to right. Python 3.12+ sum() of floats is
    # compensated, so the reference is the plain left fold.
    entries = [LedgerEntry(f"s{i}", eps, 0.0, 0.0) for i, eps in enumerate(seeded)]
    ledger = BudgetLedger(epsilon_cap=3.0, entries=entries)
    assert ledger.epsilon_spent() == _left_fold(ledger.entries)
    for i, eps in enumerate(charges):
        before = ledger.entries
        try:
            ledger.charge(f"q{i}", eps, 0.0)
        except BudgetExhausted:
            assert ledger.entries == before
        assert ledger.epsilon_spent() == _left_fold(ledger.entries)
        assert ledger.epsilon_spent() <= 3.0 + 1e-12


class TestRelease:
    @pytest.mark.parametrize("op, delta, timestamp, edges, error, match", [
        ("median", 0.0, 0, (0.0, 1.0), ValueError, "unknown dp op 'median'"),
        ("sum", 0.0, None, None, ValueError, "sum query needs a timestamp"),
        ("histogram", 0.0, None, None, ValueError, "histogram query needs bin edges"),
        *[(op, 1e-6, 0, (0.0, 1.0), DeltaNotZero, "delta = 0") for op in OPS],
    ], ids=["unknown_op", "sum_without_timestamp", "histogram_without_edges",
            *(f"{op}_with_delta" for op in OPS)])
    def test_refused_before_any_charge(self, op, delta, timestamp, edges, error, match):
        ledger = _ledger(cap=1.0)
        with pytest.raises(error, match=match):
            release(make_uniform_dataset(3, 1000, 2), op, 0.5, delta, ledger, StubRng(),
                    timestamp, edges)
        assert ledger.entries == ()

    def test_the_op_is_checked_before_the_params_and_the_params_before_the_arguments(self):
        d, ledger = make_uniform_dataset(3, 1000, 2), _ledger()
        with pytest.raises(ValueError, match="unknown dp op"):
            release(d, "median", -1.0, 0.0, ledger, StubRng())
        with pytest.raises(ValueError, match="epsilon must be"):
            release(d, "sum", -1.0, 0.0, ledger, StubRng())
        assert ledger.entries == ()

    @pytest.mark.parametrize("op", OPS)
    def test_release_is_the_prepared_query_answered(self, op):
        d, ledger = make_uniform_dataset(3, 1000, 2), _ledger()
        got = release(d, op, 0.5, 0.0, ledger, seeded_rng(5), 0, (0.0, 1.0, 2.0))
        want = prepare(d, op, 0.5, 0.0, 0, (0.0, 1.0, 2.0)).answer(seeded_rng(5))
        got, want = (x if op == "histogram" else [x] for x in (got, want))
        assert [a.value for a in got] == [a.value for a in want]
        [entry] = ledger.entries
        assert (entry.query_id, entry.epsilon) == (got[0].query_id, 0.5)
        assert {a.query_id for a in got} == {entry.query_id}


_COLLAPSING_EDGES = [0.0001, 0.0002, 1.0001, 1.0002, 1.0009]  # pairs share a first milli-kWh


@given(
    st.lists(st.one_of(st.integers(0, 5000), st.sampled_from([0, 1, 2, 1000, 1001, 5000])),
             max_size=40),
    st.lists(st.one_of(_EDGE, st.sampled_from(_COLLAPSING_EDGES)), min_size=2, max_size=8),
)
@example(milli=[], edges=[0.0, 1.0, 2.0])
@example(milli=[1, 2, 1000, 1001, 1001, 5000], edges=[0.0001, 0.0002, 1.0001, 1.0002, 5.0])
def test_histogram_from_value_index_matches_float_rule_cold_and_warm(milli, edges):
    edges = sorted(set(edges))
    assume(len(edges) >= 2)
    expected = [0] * (len(edges) - 1)
    for m in milli:
        for i in range(len(expected)):
            if edges[i] <= m / 1000 < edges[i + 1]:
                expected[i] += 1
                break
    d = FeederDataset(
        series=tuple(build_series(f"m{i}", [m]) for i, m in enumerate(milli)),
        interval_s=3600,
        delta_max=EnergyQuantity(5000),
    )
    for _ in range(2):  # the first call builds the value index, the second reads it
        rng = StubRng(uniforms=[0.5] * len(expected))
        answers = release(d, "histogram", 1.0, 0.0, _ledger(), rng, edges=edges)
        assert [a.value for a in answers] == [float(c) for c in expected]


@pytest.mark.parametrize("op", OPS)
def test_a_noise_scale_that_overflows_is_refused_before_any_charge(op):
    # 1.0 / 1e-320 is inf: the answer would be +-inf or nan, which JSON cannot carry.
    ledger = _ledger(cap=1.0)
    with pytest.raises(ValueError, match="must be positive and finite"):
        release(make_uniform_dataset(3, 1000, 2), op, 1e-320, 0.0, ledger, seeded_rng(5),
                0, (0.0, 1.0, 2.0))
    assert ledger.entries == ()
    assert ledger.epsilon_spent() == 0.0


@pytest.mark.parametrize("epsilons, index", [((math.inf,), 0), ((0.5, 0.25, 0.5, 0.1), 2)])
def test_ledger_refuses_entries_that_pass_the_cap_naming_the_first(epsilons, index):
    entries = [LedgerEntry(f"q{i}", eps, 0.0, 0.0) for i, eps in enumerate(epsilons)]
    with pytest.raises(ValueError, match=f"^ledger entry {index} "):
        BudgetLedger(epsilon_cap=1.0, entries=entries)
    # Charges that reach the cap exactly load as they were made.
    ledger = BudgetLedger(epsilon_cap=1.0)
    for eps in (0.1, 0.2, 0.7):
        ledger.charge("c", eps, 0.0)
    assert BudgetLedger(1.0, ledger.entries).epsilon_spent() == ledger.epsilon_spent()


@pytest.mark.parametrize("cap", [math.inf, 0.0, -1.0, math.nan])
def test_ledger_cap_must_be_positive_and_finite(cap):
    with pytest.raises(ValueError, match="epsilon_cap"):
        BudgetLedger(epsilon_cap=cap)


def test_a_ledger_that_records_an_infinite_cap_is_refused():
    text = "q0,1e+300,0.0,0.0,inf\n"
    with pytest.raises(ValueError, match="epsilon_cap"):
        BudgetLedger.from_lines(text, math.inf)
    with pytest.raises(CapMismatch):
        BudgetLedger.from_lines(text, 1.0)
