import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from amiprivacy import dp, gateway
from amiprivacy.gateway import (
    AggregateReport,
    AuditLog,
    AuditWriteFailure,
    ChainReport,
    Decision,
    DenialReason,
    DpQuery,
    DuplicateRequest,
    FedTrain,
    Gateway,
    GENESIS_HASH,
    HeBill,
    PolicyConfig,
    Purpose,
    RawExport,
    RequestEnvelope,
    SmpcSum,
    SynthGenerate,
    spend_report,
    verify_chain,
)
from amiprivacy import fedlearn
from amiprivacy.gateway import KINDS, OPERATIONS, RequestFailed
from conftest import StubRng, make_two_cluster_dataset, make_uniform_dataset


def _gateway(policy=None, cap=10.0, dataset=None, rng=None):
    dataset = dataset or make_uniform_dataset(8, 1500, 24)
    policy = policy or PolicyConfig(
        epsilon_cap=cap, min_aggregation_count=3, k_anonymity_k=2,
        allow_raw_primary=True, memorization_threshold=0.01,
    )
    ledger = dp.BudgetLedger(epsilon_cap=cap)
    return Gateway(dataset, policy, ledger, AuditLog(), rng=rng or random.Random(0))


def _req(request_id, operation, purpose=Purpose.PRIMARY, consent=False, requester="ops"):
    return RequestEnvelope(
        request_id=request_id, requester=requester, purpose=purpose,
        consent=consent, operation=operation,
    )


class TestDecisionMatrix:
    def test_secondary_raw_export_without_consent_denied(self):
        g = _gateway()
        decision = g.route(_req("r1", RawExport(), Purpose.SECONDARY, consent=False))
        assert decision == Decision(allowed=False, reason=DenialReason.CONSENT_REQUIRED)

    def test_secondary_raw_export_with_consent_allowed(self):
        g = _gateway()
        decision = g.route(_req("r1", RawExport(), Purpose.SECONDARY, consent=True))
        assert decision.allowed
        assert decision.result.startswith("meter_id,timestamp,kwh")

    def test_primary_raw_export_follows_policy_flag(self):
        g = _gateway()
        assert g.route(_req("r1", RawExport(), Purpose.PRIMARY)).allowed

        strict = PolicyConfig(
            epsilon_cap=1.0, min_aggregation_count=3, k_anonymity_k=2,
            allow_raw_primary=False,
        )
        g2 = _gateway(policy=strict)
        decision = g2.route(_req("r1", RawExport(), Purpose.PRIMARY))
        assert decision.reason is DenialReason.POLICY_VIOLATION

    def test_dp_query_allowed_then_budget_exhausted(self):
        g = _gateway(cap=1.0, rng=StubRng(uniforms=[0.5, 0.5]))
        ok = g.route(_req("r1", DpQuery(op="count", epsilon=1.0), Purpose.SECONDARY))
        assert ok.allowed
        assert ok.result.value == 8 * 24
        denied = g.route(_req("r2", DpQuery(op="count", epsilon=0.5), Purpose.SECONDARY))
        assert denied.reason is DenialReason.BUDGET_EXHAUSTED
        # Both requests are in the audit log, only the first spent budget.
        assert len(g.audit_log.records) == 2
        assert g.ledger.epsilon_spent() == 1.0

    def test_dp_sum_dispatch(self):
        g = _gateway(rng=StubRng(uniforms=[0.5]))
        decision = g.route(_req("r1", DpQuery(op="sum", epsilon=0.5, timestamp=0)))
        assert decision.result.value == 8 * 1.5

    def test_synth_generate_allowed_after_privacy_check(self):
        real = make_two_cluster_dataset(n_meters=24, n_days=2, seed=4)
        g = _gateway(dataset=real)
        decision = g.route(
            _req("r1", SynthGenerate(n_clusters=2, n_households=10, n_days=2, seed=3),
                 Purpose.SECONDARY)
        )
        assert decision.allowed
        synth, report = decision.result
        assert len(synth.series) == 10
        assert not report.memorization_flag

    def test_aggregate_report_threshold(self):
        g = _gateway()
        meters = [s.meter_id for s in g.dataset.series]
        ok = g.route(
            _req("r1", AggregateReport(groups=(("all", tuple(meters)),)), Purpose.SECONDARY)
        )
        assert ok.allowed
        assert ok.result["all"].count == len(meters)

        small = g.route(
            _req("r2", AggregateReport(groups=(("tiny", tuple(meters[:2])),)),
                 Purpose.SECONDARY)
        )
        assert small.reason is DenialReason.BELOW_AGGREGATION_THRESHOLD

    def test_smpc_dispatch(self):
        g = _gateway()
        decision = g.route(
            _req("r1", SmpcSum(values=(("a", 3000), ("b", 5000), ("c", 9000)),
                               min_participants=3), Purpose.SECONDARY)
        )
        assert decision.allowed
        assert decision.result.total == 17_000

    def test_smpc_abort_still_allowed_decision(self):
        g = _gateway()
        decision = g.route(
            _req("r1", SmpcSum(values=(("a", 1), ("b", 2)), min_participants=3))
        )
        assert decision.allowed
        assert decision.result.aborted

    def test_he_bill_dispatch(self):
        g = _gateway()
        decision = g.route(
            _req("r1", HeBill(usage_milli=(2, 3), rates=(10, 20)), Purpose.SECONDARY)
        )
        assert decision.allowed
        assert decision.result == 80

    def test_fed_train_dispatch(self):
        dataset = make_uniform_dataset(4, 1500, 200, interval_s=900)
        g = _gateway(dataset=dataset)
        decision = g.route(
            _req("r1", FedTrain(n_clients=2, rounds=2, local_steps=1, learning_rate=0.01),
                 Purpose.SECONDARY)
        )
        assert decision.allowed
        assert len(decision.result.history) == 2

    def test_no_raw_series_reaches_secondary_without_consent(self):
        operations = [
            RawExport(),
            DpQuery(op="count", epsilon=0.1),
            AggregateReport(groups=(("g", ("m0000", "m0001", "m0002", "m0003")),)),
            SmpcSum(values=(("a", 1), ("b", 2)), min_participants=2),
            HeBill(usage_milli=(1,), rates=(1,)),
        ]
        g = _gateway(rng=random.Random(1))
        raw = g.route(_req("raw", RawExport(), Purpose.PRIMARY)).result
        for i, op in enumerate(operations):
            decision = g.route(_req(f"r{i}", op, Purpose.SECONDARY, consent=False))
            if decision.allowed:
                assert decision.result != raw


class TestAuditLog:
    def test_genesis_prev_hash_is_zero(self):
        log = AuditLog()
        rec = log.append_audit("r1", "alice", "allowed", "raw", 0.0)
        assert rec.prev_hash == GENESIS_HASH
        assert rec.seq == 0

    def test_chain_valid_after_appends(self):
        log = AuditLog()
        for i in range(50):
            log.append_audit(f"r{i}", "alice", "allowed", "laplace", 0.1)
        assert verify_chain(log.records).valid

    def test_tampered_field_detected_at_record(self):
        import dataclasses

        log = AuditLog()
        for i in range(10):
            log.append_audit(f"r{i}", "alice", "allowed", "laplace", 0.1)
        records = list(log.records)
        records[4] = dataclasses.replace(records[4], requester="mallory")
        report = verify_chain(records)
        assert not report.valid
        assert report.first_bad_seq == 4

    def test_tampered_hash_detected(self):
        import dataclasses

        log = AuditLog()
        for i in range(10):
            log.append_audit(f"r{i}", "a", "allowed", "raw", 0.0)
        records = list(log.records)
        bad = bytearray(records[7].hash)
        bad[0] ^= 0x01
        records[7] = dataclasses.replace(records[7], hash=bytes(bad))
        report = verify_chain(records)
        assert not report.valid
        assert report.first_bad_seq == 7

    def test_empty_chain_valid(self):
        assert verify_chain(()).valid

    def test_every_route_appends_exactly_one_record(self):
        g = _gateway(cap=100.0)
        rng = random.Random(3)
        ops = [
            lambda: RawExport(),
            lambda: DpQuery(op="count", epsilon=0.1),
            lambda: SmpcSum(values=(("a", 1), ("b", 2)), min_participants=2),
        ]
        n = 30
        for i in range(n):
            op = rng.choice(ops)()
            purpose = rng.choice([Purpose.PRIMARY, Purpose.SECONDARY])
            consent = rng.choice([True, False])
            g.route(_req(f"r{i}", op, purpose, consent))
        assert len(g.audit_log.records) == n
        assert verify_chain(g.audit_log.records).valid

    def test_fail_closed_on_audit_failure(self):
        def broken_writer(record):
            raise IOError("disk full")

        dataset = make_uniform_dataset(4, 1500, 4)
        ledger = dp.BudgetLedger(epsilon_cap=10.0)
        g = Gateway(dataset, PolicyConfig(min_aggregation_count=2), ledger,
                    AuditLog(writer=broken_writer), rng=random.Random(0))
        with pytest.raises(AuditWriteFailure):
            g.route(_req("r1", RawExport(), Purpose.PRIMARY))
        assert len(g.audit_log.records) == 0
        # The request id was not consumed either: a repaired log accepts it.
        g.audit_log._writer = None
        assert g.route(_req("r1", RawExport(), Purpose.PRIMARY)).allowed

    def test_duplicate_request_id_rejected(self):
        g = _gateway()
        g.route(_req("r1", RawExport(), Purpose.PRIMARY))
        with pytest.raises(DuplicateRequest):
            g.route(_req("r1", RawExport(), Purpose.PRIMARY))


class TestSpendReport:
    def test_no_queries_zero_total(self):
        g = _gateway()
        report = spend_report(g.ledger, g.audit_log)
        assert report.epsilon_total == 0.0
        assert report.per_requester == {}

    def test_budget_totals_over_repeated_queries(self):
        g = _gateway(cap=100.0, rng=StubRng(uniforms=[0.5] * 24))
        for i in range(24):
            g.route(_req(f"r{i}", DpQuery(op="count", epsilon=0.5), requester="researcher"))
        report = spend_report(g.ledger, g.audit_log)
        assert report.epsilon_total == 12.0
        assert report.per_requester == {"researcher": 12.0}

    def test_per_requester_partition(self):
        g = _gateway(cap=100.0, rng=StubRng(uniforms=[0.5] * 2))
        g.route(_req("r1", DpQuery(op="count", epsilon=0.3), requester="a"))
        g.route(_req("r2", DpQuery(op="count", epsilon=0.7), requester="b"))
        report = spend_report(g.ledger, g.audit_log)
        assert report.per_requester["a"] == pytest.approx(0.3)
        assert report.per_requester["b"] == pytest.approx(0.7)
        assert report.epsilon_total == pytest.approx(1.0)
        assert report.epsilon_total == pytest.approx(
            sum(report.per_requester.values())
        )

    def test_denied_counts(self):
        g = _gateway()
        g.route(_req("r1", RawExport(), Purpose.SECONDARY, consent=False))
        g.route(_req("r2", RawExport(), Purpose.SECONDARY, consent=False))
        report = spend_report(g.ledger, g.audit_log)
        assert report.denied_counts == {"ConsentRequired": 2}


def _log(prefix, n):
    log = AuditLog()
    for i in range(n):
        log.append_audit(f"{prefix}{i}", "alice", "allowed", "laplace", 0.1)
    return log


def test_verify_chain_reports_index_where_second_chain_starts():
    # Two runs appending to one file each start a chain at seq 0.
    report = verify_chain(_log("a", 5).records + _log("b", 3).records)
    assert not report.valid
    assert report.first_bad_seq == 5


def test_verify_chain_reports_index_of_dropped_record():
    records = list(_log("r", 10).records)
    del records[6]
    report = verify_chain(records)
    assert not report.valid
    assert report.first_bad_seq == 6


def test_aggregate_report_uses_cached_meter_totals():
    d = make_two_cluster_dataset(n_meters=6, n_days=1, seed=3)
    g = _gateway(dataset=d)
    meters = tuple(s.meter_id for s in d.series)
    decision = g.route(_req("r1", AggregateReport(groups=(("all", meters + ("nobody",)),))))
    assert decision.allowed
    total = sum(r.energy.milli_kwh for r in d.all_readings())
    assert decision.result["all"].count == 6
    assert decision.result["all"].total.milli_kwh == total


class FaultyRng(random.Random):
    """A seeded generator whose next uniform draw raises once `fail` is set."""

    fail = False

    def random(self):
        if self.fail:
            self.fail = False
            raise RuntimeError("injected fault after the charge")
        return super().random()


class TestOperationTable:
    def test_one_entry_per_operation_class(self):
        assert set(OPERATIONS) == {
            RawExport, DpQuery, SynthGenerate, FedTrain, SmpcSum, HeBill, AggregateReport,
        }
        assert len(KINDS) == len(OPERATIONS)
        assert len({e.mechanism for e in OPERATIONS.values()}) == len(OPERATIONS)


class TestRouteFailures:
    def test_nonzero_delta_audited_as_error_before_any_charge(self):
        g = _gateway(cap=1.0)
        op = DpQuery(op="count", epsilon=0.5, delta=1e-6)
        with pytest.raises(RequestFailed) as err:
            g.route(_req("r1", op, Purpose.SECONDARY))
        assert isinstance(err.value.__cause__, dp.DeltaNotZero)
        assert g.ledger.epsilon_spent() == 0.0 and g.ledger.entries == ()
        [rec] = g.audit_log.records
        assert (rec.decision, rec.mechanism, rec.epsilon_spent) == (
            "error:DeltaNotZero", "laplace", 0.0)
        assert verify_chain(g.audit_log.records).valid

    def test_fault_after_charge_leaves_one_record_with_its_epsilon(self):
        rng = FaultyRng(0)
        g = _gateway(cap=1.0, rng=rng)
        rng.fail = True
        with pytest.raises(RequestFailed) as err:
            g.route(_req("r1", DpQuery(op="count", epsilon=0.75), requester="a"))
        assert isinstance(err.value.__cause__, RuntimeError)
        [rec] = g.audit_log.records
        assert (rec.decision, rec.epsilon_spent) == ("error:RuntimeError", 0.75)
        assert g.ledger.epsilon_spent() == 0.75
        assert spend_report(g.ledger, g.audit_log).per_requester == {"a": 0.75}
        # The id counts as used, and the cap still holds for what follows.
        with pytest.raises(DuplicateRequest):
            g.route(_req("r1", RawExport()))
        denied = g.route(_req("r2", DpQuery(op="count", epsilon=0.5)))
        assert denied.reason is DenialReason.BUDGET_EXHAUSTED
        assert len(g.audit_log.records) == 2
        assert verify_chain(g.audit_log.records).valid

    @pytest.mark.parametrize("op, cause", [
        (DpQuery(op="histogram", epsilon=0.5, edges=(1.0, 0.0)), ValueError),
        (DpQuery(op="histogram", epsilon=0.5), ValueError),
        (DpQuery(op="sum", epsilon=0.5), ValueError),
        (DpQuery(op="median", epsilon=0.5), ValueError),
        (FedTrain(n_clients=0, rounds=1, local_steps=1, learning_rate=0.1),
         fedlearn.FedLearnError),
    ])
    def test_malformed_operation_audited_as_error(self, op, cause):
        g = _gateway()
        with pytest.raises(RequestFailed) as err:
            g.route(_req("r1", op))
        assert type(err.value.__cause__) is cause
        [rec] = g.audit_log.records
        assert rec.decision == f"error:{cause.__name__}" and rec.epsilon_spent == 0.0

    def test_audit_log_raises_audit_write_failure_itself(self):
        def broken_writer(record):
            raise OSError("disk full")

        log = AuditLog(writer=broken_writer)
        with pytest.raises(AuditWriteFailure) as err:
            log.append_audit("r1", "ops", "allowed", "raw", 0.0)
        assert isinstance(err.value.__cause__, OSError)
        assert log.records == ()

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(
        st.sampled_from(["raw", "count", "bad_edges", "delta", "fault", "duplicate"]),
        st.floats(min_value=0.01, max_value=0.6),
    ), max_size=25))
    def test_invariants_hold_under_faults(self, steps):
        rng = FaultyRng(1)
        cap = 2.0
        g = _gateway(cap=cap, dataset=make_uniform_dataset(3, 1500, 4), rng=rng)
        routed = 0
        for i, (step, eps) in enumerate(steps):
            rid = "r0" if step == "duplicate" and routed else f"r{i}"
            op = {
                "raw": RawExport(),
                "bad_edges": DpQuery(op="histogram", epsilon=eps, edges=(1.0, 0.0)),
                "delta": DpQuery(op="count", epsilon=eps, delta=1e-6),
            }.get(step, DpQuery(op="count", epsilon=eps))
            rng.fail = step == "fault"
            try:
                g.route(_req(rid, op, Purpose.SECONDARY))
            except DuplicateRequest:
                assert rid == "r0"
                continue
            except RequestFailed:
                pass
            routed += 1
        records = g.audit_log.records
        assert len(records) == routed
        audited = sum(r.epsilon_spent for r in records)
        assert audited <= cap + 1e-9
        assert audited == pytest.approx(g.ledger.epsilon_spent())
        assert verify_chain(records).valid


class TestAuditPayloadSeparator:
    @pytest.mark.parametrize("field", ["request_id", "requester"])
    def test_envelope_refuses_separator_in_text_fields(self, field):
        fields = {"request_id": "r1", "requester": "ops", field: "a|b"}
        with pytest.raises(ValueError):
            RequestEnvelope(purpose=Purpose.PRIMARY, consent=False, operation=RawExport(),
                            **fields)

    def test_moving_a_separator_between_fields_is_detected(self):
        import dataclasses

        log = AuditLog()
        rec = log.append_audit("r1|ops", "x", "allowed", "raw", 0.0)
        edited = dataclasses.replace(rec, request_id="r1", requester="ops|x")
        # The edit keeps the digest, so only the separator check can catch it.
        assert gateway._record_payload(
            edited.seq, edited.request_id, edited.requester, edited.decision,
            edited.mechanism, edited.epsilon_spent, edited.timestamp,
        ) == gateway._record_payload(
            rec.seq, rec.request_id, rec.requester, rec.decision,
            rec.mechanism, rec.epsilon_spent, rec.timestamp,
        )
        assert verify_chain([edited]) == verify_chain([rec]) == ChainReport(False, 0)

    def test_digest_of_a_record_is_unchanged(self):
        rec = AuditLog().append_audit("r1", "ops", "allowed", "laplace", 0.5)
        payload = f"0|r1|ops|allowed|laplace|0.5|{rec.timestamp!r}".encode()
        assert rec.hash == hashlib.sha256(GENESIS_HASH + payload).digest()


def test_audited_epsilon_is_the_ledger_entry():
    g = _gateway(cap=1.0)
    g.route(_req("r1", DpQuery(op="count", epsilon=0.7)))
    g.route(_req("r2", DpQuery(op="count", epsilon=0.1)))
    assert g.ledger.epsilon_spent() - 0.7 != 0.1  # the running totals' difference
    assert [r.epsilon_spent for r in g.audit_log.records] == [0.7, 0.1]
    assert [e.epsilon for e in g.ledger.entries] == [0.7, 0.1]


def test_he_bill_encrypts_with_the_gateway_keypair(monkeypatch):
    from amiprivacy import he

    keys = []
    real_encrypt = he.encrypt

    def encrypt(key, m, r):
        keys.append(key)
        return real_encrypt(key, m, r)

    monkeypatch.setattr(he, "encrypt", encrypt)
    g = _gateway()
    assert g.route(_req("r1", HeBill(usage_milli=(2, 3, 4), rates=(10, 20, 30)))).result == 200
    assert len(keys) == 3 and all(isinstance(k, he.PaillierKeypair) for k in keys)
