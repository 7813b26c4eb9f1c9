import dataclasses

import pytest

from amiprivacy.anonymize import (
    Aggregate,
    AggregationPolicy,
    EmptyIdentifier,
    KAnonymityReport,
    PseudonymKey,
    QuasiIdentifierRecord,
    Suppressed,
    aggregate_threshold,
    check_k_anonymity,
    pseudonymize,
)
from amiprivacy.meterdata import EnergyQuantity

KEY = PseudonymKey(secret=bytes(range(32)), epoch=0)


class TestPseudonymize:
    def test_deterministic(self):
        assert pseudonymize("meter-1", KEY) == pseudonymize("meter-1", KEY)

    def test_output_shape(self):
        p = pseudonymize("meter-1", KEY)
        assert len(p) == 32
        int(p, 16)  # valid hex

    def test_epoch_changes_output(self):
        other = PseudonymKey(secret=KEY.secret, epoch=1)
        assert pseudonymize("meter-1", KEY) != pseudonymize("meter-1", other)

    def test_distinct_ids_distinct_outputs(self):
        assert pseudonymize("meter-1", KEY) != pseudonymize("meter-2", KEY)

    def test_no_collisions_across_ids_and_epochs(self):
        # 10^4 ids x 10 epochs: brute-force uniqueness scan over 10^5 pairs.
        seen = set()
        for epoch in range(10):
            key = PseudonymKey(secret=KEY.secret, epoch=epoch)
            for i in range(10_000):
                seen.add(pseudonymize(f"id-{i}", key))
        assert len(seen) == 100_000

    def test_empty_identifier(self):
        with pytest.raises(EmptyIdentifier):
            pseudonymize("", KEY)

    def test_secret_not_in_repr(self):
        assert KEY.secret.hex() not in repr(KEY)
        assert "secret" not in repr(KEY)

    def test_key_must_be_32_bytes(self):
        with pytest.raises(ValueError):
            PseudonymKey(secret=b"short", epoch=0)


class TestAggregateThreshold:
    def test_below_threshold_suppressed(self):
        groups = {"g": [EnergyQuantity(1000)] * 99}
        out = aggregate_threshold(groups, AggregationPolicy(min_count=100))
        assert isinstance(out["g"], Suppressed)

    def test_at_threshold_aggregated(self):
        groups = {"g": [EnergyQuantity(1000)] * 100}
        out = aggregate_threshold(groups, AggregationPolicy(min_count=100))
        assert out["g"] == Aggregate(count=100, total=EnergyQuantity(100_000), mean_kwh=1.0)

    def test_mixed_map(self):
        groups = {
            "A": [EnergyQuantity(500)] * 3,
            "B": [EnergyQuantity(2000)] * 150,
        }
        out = aggregate_threshold(groups, AggregationPolicy(min_count=100))
        assert isinstance(out["A"], Suppressed)
        assert out["B"].count == 150

    def test_suppressed_marker_has_no_numeric_fields(self):
        assert dataclasses.fields(Suppressed()) == ()

    def test_min_count_validated(self):
        with pytest.raises(ValueError):
            AggregationPolicy(min_count=0)


def _records(sizes):
    recs = []
    for i, size in enumerate(sizes):
        recs.extend(QuasiIdentifierRecord(attributes=(f"z{i}", "res")) for _ in range(size))
    return recs


class TestKAnonymity:
    def test_sizes_334_pass_at_3(self):
        assert check_k_anonymity(_records([3, 3, 4]), 3).passed

    def test_sizes_334_fail_at_4(self):
        report = check_k_anonymity(_records([3, 3, 4]), 4)
        assert not report.passed
        assert len(report.violating_classes) == 2
        assert all(size == 3 for _, size in report.violating_classes)

    def test_empty_passes_vacuously(self):
        assert check_k_anonymity([], 7) == KAnonymityReport(passed=True, violating_classes=())

    def test_k_one_always_passes(self):
        assert check_k_anonymity(_records([1, 1, 2]), 1).passed

    def test_pass_is_monotone_in_k(self):
        sizes = [2, 5, 9, 3]
        for k in range(1, 12):
            if check_k_anonymity(_records(sizes), k).passed:
                for smaller in range(1, k):
                    assert check_k_anonymity(_records(sizes), smaller).passed

    def test_k_validated(self):
        with pytest.raises(ValueError):
            check_k_anonymity([], 0)

    def test_mixed_arity_rejected(self):
        recs = [
            QuasiIdentifierRecord(attributes=("a",)),
            QuasiIdentifierRecord(attributes=("a", "b")),
        ]
        with pytest.raises(ValueError):
            check_k_anonymity(recs, 2)
