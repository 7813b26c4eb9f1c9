import dataclasses
import hashlib
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from amiprivacy import dp, gateway, he
from amiprivacy.audit import (GENESIS_HASH, AuditRecord, ChainReport, audit_record_to_json,
                              read_log)
from amiprivacy.gateway import (
    AggregateReport,
    AuditLog,
    AuditWriteFailure,
    Decision,
    DenialReason,
    DpQuery,
    DuplicateRequest,
    FedTrain,
    Gateway,
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
from amiprivacy.anonymize import AggregationPolicy, Suppressed, aggregate_threshold
from amiprivacy.meterdata import EnergyQuantity, FeederDataset
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


def _fails_once_then_appends(lines):
    """An audit writer whose disk is full on its first call and has recovered after."""
    calls = []

    def write(line):
        calls.append(line)
        if len(calls) == 1:
            raise OSError("disk full")
        lines.append(line)

    return write


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

    def test_synth_generate_denied_when_the_sample_is_too_close(self):
        # Distances are RMS over the per-reading cap, below 1 here: every sample is flagged.
        real = make_two_cluster_dataset(n_meters=24, n_days=2, seed=4)
        policy = PolicyConfig(epsilon_cap=10.0, min_aggregation_count=3,
                              memorization_threshold=1.0)
        g = _gateway(policy=policy, dataset=real)
        decision = g.route(
            _req("r1", SynthGenerate(n_clusters=2, n_households=10, n_days=2, seed=3),
                 Purpose.SECONDARY)
        )
        assert decision == Decision(allowed=False, reason=DenialReason.MEMORIZATION_DETECTED)
        assert g.audit_log.records[-1].decision == "denied:MemorizationDetected"

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
        lines = []
        dataset = make_uniform_dataset(4, 1500, 4)
        ledger = dp.BudgetLedger(epsilon_cap=10.0)
        g = Gateway(dataset, PolicyConfig(min_aggregation_count=2), ledger,
                    AuditLog(writer=_fails_once_then_appends(lines)), rng=random.Random(0))
        with pytest.raises(AuditWriteFailure):
            g.route(_req("r1", RawExport(), Purpose.PRIMARY))
        assert len(g.audit_log.records) == 0
        # Neither the head nor the request id moved: once the disk recovers,
        # r1 is accepted and its record is the chain's first.
        assert g.route(_req("r1", RawExport(), Purpose.PRIMARY)).allowed
        [rec] = read_log("".join(lines))
        assert rec[0] == 0 and rec[7] == GENESIS_HASH

    def test_duplicate_request_id_rejected(self):
        g = _gateway()
        g.route(_req("r1", RawExport(), Purpose.PRIMARY))
        with pytest.raises(DuplicateRequest):
            g.route(_req("r1", RawExport(), Purpose.PRIMARY))


class TestSpendReport:
    def test_no_queries_zero_total(self):
        g = _gateway()
        report = spend_report(g.ledger, g.audit_log.records)
        assert report.epsilon_total == 0.0
        assert report.per_requester == {}

    def test_budget_totals_over_repeated_queries(self):
        g = _gateway(cap=100.0, rng=StubRng(uniforms=[0.5] * 24))
        for i in range(24):
            g.route(_req(f"r{i}", DpQuery(op="count", epsilon=0.5), requester="researcher"))
        report = spend_report(g.ledger, g.audit_log.records)
        assert report.epsilon_total == 12.0
        assert report.per_requester == {"researcher": 12.0}

    def test_per_requester_partition(self):
        g = _gateway(cap=100.0, rng=StubRng(uniforms=[0.5] * 2))
        g.route(_req("r1", DpQuery(op="count", epsilon=0.3), requester="a"))
        g.route(_req("r2", DpQuery(op="count", epsilon=0.7), requester="b"))
        report = spend_report(g.ledger, g.audit_log.records)
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
        report = spend_report(g.ledger, g.audit_log.records)
        assert report.denied_counts == {"ConsentRequired": 2}


def test_spend_report_reads_a_persisted_log_as_it_reads_records():
    lines = []
    persisted = _gateway(cap=1.0, rng=StubRng(uniforms=[0.5] * 4))
    persisted.audit_log = AuditLog(writer=lines.append)
    in_memory = _gateway(cap=1.0, rng=StubRng(uniforms=[0.5] * 4))
    for g in (persisted, in_memory):
        g.route(_req("r1", DpQuery(op="count", epsilon=0.5), requester="a"))
        g.route(_req("r2", RawExport(), Purpose.SECONDARY, consent=False, requester="b"))
        g.route(_req("r3", DpQuery(op="count", epsilon=0.75), requester="a"))
    report = spend_report(persisted.ledger, read_log("".join(lines)))
    assert report == spend_report(in_memory.ledger, in_memory.audit_log.records)
    assert report.per_requester == {"a": 0.5}
    assert report.denied_counts == {"ConsentRequired": 1, "BudgetExhausted": 1}


def test_a_gateway_on_a_persisted_log_keeps_no_record_per_request():
    import gc
    import os
    import tracemalloc

    from amiprivacy.cli import envelope_from_json

    n = 5000
    lines = [json.dumps({"request_id": f"q{i:05d}", "requester": "analyst",
                         "purpose": "secondary", "consent": False,
                         "operation": {"kind": "raw_export"}}) for i in range(n + 1)]
    with open(os.devnull, "a", buffering=1) as sink:
        g = _gateway()
        g.audit_log = AuditLog(writer=sink.write)
        g.route(envelope_from_json(lines.pop()))  # first-use allocations stay out of the count
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for line in lines:
                assert g.route(envelope_from_json(line)).reason is DenialReason.CONSENT_REQUIRED
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
    # What stays is the seen request_id: its set slot and its string.
    assert retained / n < 256


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
    total = int(d.milli_kwh.sum())
    assert decision.result["all"].count == 6
    assert decision.result["all"].total.milli_kwh == total


def test_aggregate_report_counts_each_meter_once():
    d = make_two_cluster_dataset(n_meters=6, n_days=1, seed=3)
    g = _gateway(dataset=d)  # groups need 3 members
    meters = tuple(s.meter_id for s in d.series)
    denied = g.route(_req("r1", AggregateReport(groups=(("one", (meters[0],) * 100),))))
    assert denied == Decision(allowed=False, reason=DenialReason.BELOW_AGGREGATION_THRESHOLD)
    decision = g.route(_req("r2", AggregateReport(groups=(("g", meters[:3] + meters[1:2]),))))
    assert decision.allowed
    assert decision.result["g"].count == 3
    assert decision.result["g"].total.milli_kwh == sum(d.meter_milli[m] for m in meters[:3])


def test_aggregate_report_keeps_each_member_once_in_first_seen_order():
    op = AggregateReport(groups=(("g", ["m2", "m1", "m2", "m1"]), ("h", ())))
    assert op.groups == (("g", ("m2", "m1")), ("h", ()))


def test_aggregate_report_needs_k_members_when_k_exceeds_the_minimum():
    policy = PolicyConfig(epsilon_cap=10.0, min_aggregation_count=3, k_anonymity_k=4)
    g = _gateway(policy=policy)
    meters = tuple(s.meter_id for s in g.dataset.series)
    denied = g.route(_req("r1", AggregateReport(groups=(("g", meters[:3]),))))
    assert denied == Decision(allowed=False, reason=DenialReason.BELOW_AGGREGATION_THRESHOLD)
    assert g.route(_req("r2", AggregateReport(groups=(("g", meters[:4]),)))).allowed


_AGG_DATASET = make_two_cluster_dataset(n_meters=8, n_days=1, seed=3)  # distinct totals
_AGG_IDS = _AGG_DATASET.meter_ids + ("nobody", "m9999")  # the last two are not in it


@given(groups=st.dictionaries(st.text(max_size=3), st.lists(st.sampled_from(_AGG_IDS),
                                                            max_size=14), max_size=4),
       min_count=st.integers(1, 9), k=st.integers(1, 9))
@settings(max_examples=200, deadline=None)
def test_aggregate_report_matches_aggregate_threshold_over_energy_quantities(
    groups, min_count, k
):
    policy = PolicyConfig(epsilon_cap=10.0, min_aggregation_count=min_count, k_anonymity_k=k)
    g = _gateway(policy=policy, dataset=_AGG_DATASET)
    decision = g.route(_req("r1", AggregateReport(
        groups=tuple((key, tuple(meters)) for key, meters in groups.items()))))
    totals = _AGG_DATASET.meter_milli
    expected = aggregate_threshold(
        {key: [EnergyQuantity(totals[m]) for m in dict.fromkeys(meters) if m in totals]
         for key, meters in groups.items()},
        AggregationPolicy(min_count=max(min_count, k)))
    if any(isinstance(v, Suppressed) for v in expected.values()):
        assert decision == Decision(allowed=False,
                                    reason=DenialReason.BELOW_AGGREGATION_THRESHOLD)
    else:
        assert decision == Decision(allowed=True, result=expected)


@pytest.mark.parametrize("value", ["no", 1, None])
def test_policy_refuses_allow_raw_primary_that_is_not_a_bool(value):
    with pytest.raises(TypeError):
        PolicyConfig(allow_raw_primary=value)


@pytest.mark.parametrize("field, value", [
    ("epsilon_cap", True), ("memorization_threshold", False), ("min_aggregation_count", True),
    ("min_aggregation_count", 2.5), ("k_anonymity_k", 3.0), ("epsilon_cap", "0.5"),
])
def test_policy_refuses_a_value_of_the_wrong_type(field, value):
    with pytest.raises(TypeError, match=field):
        PolicyConfig(**{field: value})


@pytest.mark.parametrize("field", ["epsilon_cap", "memorization_threshold"])
def test_policy_refuses_nan(field):
    # nan compares false with everything: as a threshold it would flag no sample.
    with pytest.raises(ValueError):
        PolicyConfig(**{field: float("nan")})


def test_policy_takes_an_int_where_a_float_is_declared():
    policy = PolicyConfig(epsilon_cap=2, memorization_threshold=0)
    assert (policy.epsilon_cap, policy.memorization_threshold) == (2, 0)


class FaultyRng(random.Random):
    """A seeded generator whose next uniform draw raises once `fail` is set."""

    fail = False

    def random(self):
        if self.fail:
            self.fail = False
            raise RuntimeError("injected fault after the charge")
        return super().random()


_SMPC = {"kind": "smpc_sum", "values": [["p0", 1], ["p1", 2]], "min_participants": 2}
_SYNTH = {"kind": "synth_generate", "n_clusters": 2, "n_households": 3, "n_days": 1, "seed": 0}
_SYNTH_INTS = ("n_clusters", "n_households", "n_days", "seed")
_FED = {"kind": "fed_train", "n_clients": 2, "rounds": 1, "local_steps": 1,
        "learning_rate": 0.1, "seed": 0}
_FED_INTS = ("n_clients", "rounds", "local_steps")
_ONE_OF_EACH = {type(op): op for op in (
    RawExport(), DpQuery(op="count", epsilon=0.5), SynthGenerate(2, 3, 1),
    FedTrain(n_clients=2, rounds=1, local_steps=1, learning_rate=0.1),
    SmpcSum(values=(("p0", 1),), min_participants=1), HeBill(usage_milli=(1,), rates=(2,)),
    AggregateReport(groups=(("g", ("m0",)),)))}


_floats = st.floats(allow_nan=False)
_ints = st.lists(st.integers()).map(tuple)
# One strategy per operation class, each field drawn from what its JSON can carry.
_OPERATION_VALUES = {
    RawExport: st.just(RawExport()),
    DpQuery: st.builds(DpQuery, st.text(), _floats, _floats, st.none() | st.integers(),
                       st.none() | st.lists(_floats).map(tuple)),
    SynthGenerate: st.builds(SynthGenerate, st.integers(), st.integers(), st.integers(),
                             st.integers()),
    FedTrain: st.builds(FedTrain, st.integers(), st.integers(), st.integers(), _floats),
    SmpcSum: st.builds(SmpcSum, st.lists(st.tuples(st.text(), st.integers())).map(tuple),
                       st.integers()),
    HeBill: st.builds(HeBill, _ints, _ints),
    AggregateReport: st.builds(AggregateReport, st.dictionaries(
        st.text(), st.lists(st.text()).map(tuple)).map(lambda d: tuple(d.items()))),
}


def _to_wire(op):
    """op as the JSON object the protocol sends: tuples as arrays, groups as an object."""
    def encode(value):
        return [encode(v) for v in value] if isinstance(value, tuple) else value
    wire = {f.name: encode(getattr(op, f.name)) for f in dataclasses.fields(op)}
    if isinstance(op, AggregateReport):
        wire["groups"] = {key: list(ids) for key, ids in op.groups}
    return {"kind": OPERATIONS[type(op)].kind, **wire}


class TestOperationTable:
    def test_one_entry_per_operation_class(self):
        assert set(OPERATIONS) == {
            RawExport, DpQuery, SynthGenerate, FedTrain, SmpcSum, HeBill, AggregateReport,
        }
        assert len(KINDS) == len(OPERATIONS)
        assert len({e.mechanism for e in OPERATIONS.values()}) == len(OPERATIONS)

    # Each protocol number field: a wire operation around the value, a good value, bad values.
    @pytest.mark.parametrize("build, good, bad_values", [
        (lambda v: {"kind": "smpc_sum", "values": [["p0", 1], ["p1", v]], "min_participants": 2},
         3, [True, 1.9, 2.0, "2"]),
        (lambda v: {"kind": "he_bill", "usage_milli": [2, v], "rates": [1, 1]},
         3, [True, 1.9, 2.0, "2"]),
        (lambda v: {"kind": "he_bill", "usage_milli": [2, 3], "rates": [v, 1]},
         3, [False, 1.5, 1.0, "1"]),
        (lambda v: {"kind": "dp_query", "op": "count", "epsilon": v}, 1, [True, "0.5"]),
        (lambda v: {"kind": "dp_query", "op": "count", "epsilon": 0.5, "delta": v},
         0, [False, "0"]),
        (lambda v: {"kind": "fed_train", "n_clients": 2, "rounds": 1, "local_steps": 1,
                    "learning_rate": v}, 0.1, [True, "0.1"]),
        (lambda v: {"kind": "dp_query", "op": "sum", "epsilon": 0.1, "timestamp": v},
         0, [True, 0.0, "0"]),
        (lambda v: {"kind": "dp_query", "op": "histogram", "epsilon": 0.1, "edges": v},
         [0, 1.5], ["0123", [0, True], [0, "1"]]),
        (lambda v: {**_SMPC, "min_participants": v}, 2, [True, 2.0, "2"]),
        *[(lambda v, key=key: {**_SYNTH, key: v}, 1, [True, 1.0, "1"]) for key in _SYNTH_INTS],
        *[(lambda v, key=key: {**_FED, key: v}, 1, [True, 1.0, "1"]) for key in _FED_INTS],
        (lambda v: {"kind": "aggregate_report", "groups": {"g": v}}, ["m0001"], ["m0001"]),
        (lambda v: {"kind": "aggregate_report", "groups": v}, {"g": ["m0001"]},
         [[["g", ["m0001"]]]]),
        (lambda v: {**_SMPC, "values": [["p0", 1], [v, 2]]}, "p1", [1]),
        (lambda v: {"kind": "dp_query", "op": v, "epsilon": 0.5}, "count", [5]),
        (lambda v: {"kind": "aggregate_report", "groups": {"g": [v]}}, "m0001",
         [["m0001"], {"m0001": 1}]),
        (lambda v: {"kind": "he_bill", "usage_milli": v, "rates": [1, 1]}, [2, 3], ["", {}]),
        (lambda v: {"kind": "he_bill", "usage_milli": [2, 3], "rates": v}, [1, 1], ["", {}]),
        (lambda v: {**_SMPC, "values": v}, [["p0", 1], ["p1", 2]], ["", {}]),
        (lambda v: {"kind": "dp_query", "op": "histogram", "epsilon": 0.1, "edges": v},
         [0, 1.5], ["", {}, 0]),
        (lambda v: {**_SMPC, "values": [v]}, ["p0", 1], [["p0", 1, 2], ["p0"], []]),
    ], ids=["smpc_sum.values", "he_bill.usage_milli", "he_bill.rates", "dp_query.epsilon",
            "dp_query.delta", "fed_train.learning_rate", "dp_query.timestamp", "dp_query.edges",
            "smpc_sum.min_participants", *(f"synth_generate.{key}" for key in _SYNTH_INTS),
            *(f"fed_train.{key}" for key in _FED_INTS), "aggregate_report.members",
            "aggregate_report.groups", "smpc_sum.party_id", "dp_query.op",
            "aggregate_report.unhashable_member", "he_bill.usage_milli.array",
            "he_bill.rates.array", "smpc_sum.values.array", "dp_query.edges.array",
            "smpc_sum.values.pair"])
    def test_protocol_numbers_are_checked_not_coerced(self, build, good, bad_values):
        KINDS[build(good)["kind"]].parse(build(good))
        for value in bad_values:
            op = build(value)
            with pytest.raises(TypeError):
                KINDS[op["kind"]].parse(op)

    @pytest.mark.parametrize("pair", [["p0", 1, 2], ["p0"], []],
                             ids=["three-items", "one-item", "empty"])
    def test_a_pair_of_the_wrong_length_is_refused_by_name(self, pair):
        op = {**_SMPC, "values": [["p1", 2], pair]}
        with pytest.raises(TypeError, match=r"^expected a two-item list, not \["):
            KINDS["smpc_sum"].parse(op)

    def test_an_int_float_field_parses_as_a_float(self):
        op = KINDS["dp_query"].parse({"kind": "dp_query", "op": "count", "epsilon": 1})
        assert op.epsilon == 1.0 and type(op.epsilon) is float

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(*_OPERATION_VALUES.values()))
    def test_every_operation_round_trips_through_its_json_object(self, op):
        assert set(_OPERATION_VALUES) == set(OPERATIONS)
        wire = json.loads(json.dumps(_to_wire(op)))
        assert KINDS[wire["kind"]].parse(wire) == op

    def test_absent_optional_keys_take_their_defaults(self):
        synth = KINDS["synth_generate"].parse({k: v for k, v in _SYNTH.items() if k != "seed"})
        query = KINDS["dp_query"].parse({"kind": "dp_query", "op": "count", "epsilon": 0.5})
        assert synth.seed == 0
        assert (query.delta, query.timestamp, query.edges) == (0.0, None, None)
        assert type(query.delta) is float


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
        assert spend_report(g.ledger, g.audit_log.records).per_requester == {"a": 0.75}
        # The id counts as used, and the cap still holds for what follows.
        with pytest.raises(DuplicateRequest):
            g.route(_req("r1", RawExport()))
        denied = g.route(_req("r2", DpQuery(op="count", epsilon=0.5)))
        assert denied.reason is DenialReason.BUDGET_EXHAUSTED
        assert len(g.audit_log.records) == 2
        assert verify_chain(g.audit_log.records).valid

    # route's charge is the only one: a cost past the cap is refused before any run.
    @pytest.mark.parametrize("cls", list(OPERATIONS), ids=lambda cls: OPERATIONS[cls].kind)
    def test_a_charge_past_the_cap_by_any_operation_is_a_budget_denial(self, monkeypatch, cls):
        g, runs = _gateway(cap=1.0), []
        kind = dataclasses.replace(
            OPERATIONS[cls], cost=lambda gw, op: dp.prepare(gw.dataset, "count", 1.5, 0.0),
            run=lambda gw, req, query: runs.append(req))
        monkeypatch.setitem(OPERATIONS, cls, kind)
        decision = g.route(_req("r1", _ONE_OF_EACH[cls]))
        assert decision == Decision(allowed=False, reason=DenialReason.BUDGET_EXHAUSTED)
        [rec] = g.audit_log.records
        assert (rec.decision, rec.mechanism, rec.epsilon_spent) == (
            "denied:BudgetExhausted", kind.mechanism, 0.0)
        assert g.ledger.entries == () and runs == []
        assert verify_chain(g.audit_log.records).valid

    @pytest.mark.parametrize("op, cause, dataset", [
        (DpQuery(op="histogram", epsilon=0.5, edges=(1.0, 0.0)), ValueError, None),
        (DpQuery(op="histogram", epsilon=0.5), ValueError, None),
        (DpQuery(op="sum", epsilon=0.5), ValueError, None),
        (DpQuery(op="median", epsilon=0.5), ValueError, None),
        (FedTrain(n_clients=0, rounds=1, local_steps=1, learning_rate=0.1),
         fedlearn.FedLearnError, None),
        (DpQuery(op="mean", epsilon=0.5), dp.EmptyDataset,
         FeederDataset(series=(), interval_s=3600, delta_max=EnergyQuantity(5000))),
        (DpQuery(op="count", epsilon=1e-320), ValueError, None),  # the noise scale overflows
    ])
    def test_malformed_operation_audited_as_error(self, op, cause, dataset):
        g = _gateway(dataset=dataset)
        with pytest.raises(RequestFailed) as err:
            g.route(_req("r1", op))
        assert type(err.value.__cause__) is cause
        [rec] = g.audit_log.records
        assert rec.decision == f"error:{cause.__name__}" and rec.epsilon_spent == 0.0
        assert g.ledger.entries == ()

    def test_audit_log_raises_audit_write_failure_itself(self):
        lines = []
        log = AuditLog(writer=_fails_once_then_appends(lines))
        with pytest.raises(AuditWriteFailure) as err:
            log.append_audit("r1", "ops", "allowed", "raw", 0.0)
        assert isinstance(err.value.__cause__, OSError)
        assert log.records == ()
        # The head is unchanged: the next record is the chain's first.
        rec = log.append_audit("r1", "ops", "allowed", "raw", 0.0)
        assert (rec.seq, rec.prev_hash) == (0, GENESIS_HASH)
        assert lines == [audit_record_to_json(rec) + "\n"]

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

        # append_audit refuses such a record, so it is built here over its joined fields.
        payload = b"0|r1|ops|x|allowed|raw|0.0|0.0"
        rec = AuditRecord(0, "r1|ops", "x", "allowed", "raw", 0.0, 0.0, GENESIS_HASH,
                          hashlib.sha256(GENESIS_HASH + payload).digest())
        edited = dataclasses.replace(rec, request_id="r1", requester="ops|x")
        # The edit keeps the joined fields and so the digest: only the separator check catches it.
        for r in (rec, edited):
            assert "|".join(map(str, dataclasses.astuple(r)[:7])).encode() == payload
        assert verify_chain([edited]) == verify_chain([rec]) == ChainReport(False, 0)

    @pytest.mark.parametrize("field", range(4))
    def test_append_audit_refuses_a_separator_before_the_writer(self, field):
        lines = []
        log = AuditLog(writer=lines.append)
        first = log.append_audit("r0", "ops", "allowed", "raw", 0.0)
        text = ["r1", "ops", "allowed", "raw"]
        text[field] = "a|b"
        with pytest.raises(ValueError, match="must not contain '\\|'"):
            log.append_audit(*text, 0.0)
        assert len(lines) == 1
        # The head did not move: the next record follows the first.
        rec = log.append_audit("r1", "ops", "allowed", "raw", 0.0)
        assert (rec.seq, rec.prev_hash) == (1, first.hash)
        assert verify_chain([first, rec]).valid

    @pytest.mark.parametrize("field", ["epsilon_spent", "timestamp"])
    def test_a_float_field_edited_to_its_text_is_detected(self, field):
        import dataclasses

        rec = AuditLog().append_audit("r1", "ops", "allowed", "laplace", 0.1)
        edited = dataclasses.replace(rec, **{field: str(getattr(rec, field))})
        assert verify_chain([rec]).valid
        assert verify_chain([edited]) == ChainReport(False, 0)

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


def test_he_bill_encrypts_with_the_gateway_public_key(monkeypatch):
    keys = []
    real_encrypt = he.encrypt

    def encrypt(key, m, r):
        keys.append(key)
        return real_encrypt(key, m, r)

    monkeypatch.setattr(he, "encrypt", encrypt)
    g = _gateway()
    assert g.route(_req("r1", HeBill(usage_milli=(2, 3, 4), rates=(10, 20, 30)))).result == 200
    [key] = keys  # one encryption per bill, not one per interval
    assert key == g._keypair().public


def test_he_bill_draws_one_randomizer_per_interval_from_the_gateway_rng():
    g = _gateway(rng=random.Random(5))
    assert g.route(_req("r1", HeBill(usage_milli=(2, 3, 4), rates=(10, 20, 30)))).result == 200
    reference = random.Random(5)
    pub = he.keygen(512, reference).public  # the billing key, made on first use
    assert pub == g._keypair().public
    for _ in range(3):
        he.draw_randomizer(pub, reference)
    assert g.rng.getstate() == reference.getstate()


# The gateway's 512-bit n lies in (2^510, 2^512), so 4 * 2^510 >= n.
@pytest.mark.parametrize("usage, rates, error", [
    ((1,) * 2000, (1,) * 2001, "LengthMismatch"),
    ((1,) * 1999 + (2**510,), (4,) * 2000, "BillingOverflow"),
])
def test_he_bill_is_refused_before_anything_is_encrypted(monkeypatch, usage, rates, error):
    calls = []
    monkeypatch.setattr(he, "encrypt", lambda *args: calls.append(args))
    g = _gateway()
    with pytest.raises(RequestFailed, match=error):
        g.route(_req("r1", HeBill(usage_milli=usage, rates=rates)))
    assert calls == []
    [rec] = g.audit_log.records
    assert (rec.decision, rec.mechanism, rec.epsilon_spent) == (f"error:{error}", "paillier", 0.0)


def test_he_bill_that_could_wrap_the_modulus_is_an_audited_error():
    g = _gateway()
    n = g._keypair().public.n
    with pytest.raises(RequestFailed, match="BillingOverflow"):
        g.route(_req("r1", HeBill(usage_milli=(n - 1,), rates=(2,))))
    assert g.route(_req("r2", HeBill(usage_milli=(2, 3), rates=(10, 20)))).result == 80
    assert g.route(_req("r3", HeBill(usage_milli=(), rates=()))).result == 0
    assert [(r.request_id, r.decision, r.mechanism, r.epsilon_spent)
            for r in g.audit_log.records] == [
        ("r1", "error:BillingOverflow", "paillier", 0.0),
        ("r2", "allowed", "paillier", 0.0),
        ("r3", "allowed", "paillier", 0.0),
    ]
    assert verify_chain(g.audit_log.records).valid


def test_a_noise_scale_that_overflows_is_audited_once_as_an_error_at_zero_epsilon():
    g = _gateway(cap=1.0, dataset=make_uniform_dataset(2, 1500, 1))
    with pytest.raises(RequestFailed) as err:
        g.route(_req("r1", DpQuery(op="count", epsilon=1e-320)))
    assert type(err.value.__cause__) is ValueError
    assert g.ledger.entries == ()
    [rec] = g.audit_log.records
    assert (rec.request_id, rec.decision, rec.mechanism, rec.epsilon_spent) == (
        "r1", "error:ValueError", "laplace", 0.0)
    assert verify_chain(g.audit_log.records).valid


@pytest.mark.parametrize("field", ["request_id", "requester"])
@pytest.mark.parametrize("text", ["x\ud800", "r\udcff"])  # a JSON escape; a raw 0xFF byte
def test_envelope_refuses_text_that_utf8_cannot_encode(field, text):
    fields = {"request_id": "r1", "requester": "ops", field: text}
    with pytest.raises(UnicodeEncodeError):
        RequestEnvelope(purpose=Purpose.PRIMARY, consent=False,
                        operation=DpQuery(op="count", epsilon=0.5), **fields)
