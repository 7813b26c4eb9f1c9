"""Known holes in what the gateway guarantees, one test per hole.

Each test asserts the safe outcome and is a strict xfail naming the ROADMAP
item that closes the hole: it fails today for the stated reason, and the
change that closes the hole sees it pass and removes the marker.
"""

import io
import json
import random

import pytest

from amiprivacy import cli, dp, fedlearn, smpc
from amiprivacy.gateway import (
    KINDS, AggregateReport, AuditLog, FedTrain, Gateway, PolicyConfig, Purpose, RawExport,
    RequestEnvelope, SmpcSum, SynthGenerate,
)
from amiprivacy.meterdata import serialize_csv
from conftest import build_series, make_two_cluster_dataset, make_uniform_dataset


@pytest.mark.xfail(strict=True, raises=pytest.fail.Exception,
                   reason="ROADMAP item 18: unknown keys are ignored while protocol_mix "
                          "sends fed_train's seed")
def test_a_misspelled_optional_key_is_refused_at_parse():
    op = {"kind": "dp_query", "op": "count", "epsilon": 0.5, "delat": 0.5}
    with pytest.raises((TypeError, ValueError), match="delat"):
        KINDS["dp_query"].parse(op)  # today: answered at delta 0, the default


def _gateway():
    """Six meters; a group of two is reportable."""
    dataset = make_two_cluster_dataset(n_meters=6, n_days=5, seed=7)
    policy = PolicyConfig(epsilon_cap=1.0, min_aggregation_count=2, k_anonymity_k=2)
    return Gateway(dataset, policy, dp.BudgetLedger(epsilon_cap=1.0), AuditLog(),
                   rng=random.Random(0))


def _route(g, request_id, operation):
    return g.route(RequestEnvelope(request_id=request_id, requester="ops",
                                   purpose=Purpose.SECONDARY, consent=False, operation=operation))


def _group(g, request_id, meters):
    return _route(g, request_id, AggregateReport(groups=(("g", tuple(meters)),)))


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 14: two overlapping allowed aggregates differ by "
                          "exactly one meter's total")
def test_two_overlapping_aggregates_do_not_difference_to_one_meter():
    g = _gateway()
    meters = [s.meter_id for s in g.dataset.series]
    five, four = _group(g, "q1", meters[:5]), _group(g, "q2", meters[:4])
    assert five.allowed and four.allowed
    difference = five.result["g"].total.milli_kwh - four.result["g"].total.milli_kwh
    assert difference != g.dataset.meter_milli[meters[4]]  # today: equal, 125,726 milli-kWh


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 14: a group's decision says whether a meter id exists")
def test_an_aggregate_decision_does_not_say_whether_a_meter_exists():
    g = _gateway()
    m0, m1 = (s.meter_id for s in g.dataset.series[:2])
    absent, present = _group(g, "q1", [m0, "absent"]), _group(g, "q2", [m0, m1])
    assert absent.allowed == present.allowed  # today: BelowAggregationThreshold, then allowed


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 8: fed_train releases a model at epsilon 0")
def test_fed_train_is_charged():
    g = _gateway()
    for rid in ("f1", "f2"):
        assert _route(g, rid, FedTrain(2, 2, 1, 0.01)).allowed
    assert [(r.mechanism, r.epsilon_spent > 0) for r in g.audit_log.records] == [
        ("fedavg", True), ("fedavg", True)]  # today: both audited at epsilon 0.0


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 12: synth_generate releases its floats at epsilon 0")
def test_synth_generate_is_charged():
    g = _gateway()
    decision = _route(g, "s1", SynthGenerate(2, 5, 2, 3))
    assert decision.allowed  # it releases min_nn_distance, 0.0333 here
    [record] = g.audit_log.records
    assert record.epsilon_spent > 0  # today: 0.0


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 1: a restarted serve starts an empty ledger and "
                          "forgets the request ids it routed")
def test_a_restarted_gateway_refuses_a_replayed_request(tmp_path, monkeypatch, capsys):
    (tmp_path / "data").mkdir()
    readings = serialize_csv(make_uniform_dataset(5, 1000, 24))  # 5 meters x 24 hours
    (tmp_path / "data" / "readings.csv").write_text(readings)
    (tmp_path / "policy.conf").write_text("epsilon_cap = 1.0\n")
    q1 = json.dumps({"request_id": "q1", "requester": "ops", "purpose": "primary",
                     "consent": False,
                     "operation": {"kind": "dp_query", "op": "count", "epsilon": 0.6}})
    replies = []
    for _ in range(2):  # two sessions, one audit log
        monkeypatch.setattr("sys.stdin", io.StringIO(q1 + "\n"))
        assert cli.gateway_main(["serve", "--policy", str(tmp_path / "policy.conf"),
                                 "--data", str(tmp_path / "data"),
                                 "--audit-log", str(tmp_path / "audit.jsonl"),
                                 "--seed", "5"]) == 0
        replies.append(json.loads(capsys.readouterr().out))
    assert replies[0]["allowed"] is True
    assert not replies[1].get("allowed")  # today: allowed again, 120.47017031450741 twice


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 15: a requester who writes primary purpose gets "
                          "every meter's raw readings")
def test_a_self_asserted_primary_purpose_gets_no_raw_readings():
    g = _gateway()
    decision = g.route(RequestEnvelope(request_id="r1", requester="anyone",
                                       purpose=Purpose.PRIMARY, consent=False,
                                       operation=RawExport()))
    assert not decision.allowed  # today: allowed


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 19: an smpc_sum of any number of parties runs")
def test_an_over_large_smpc_sum_is_refused_before_it_runs(monkeypatch):
    calls = []
    monkeypatch.setattr(smpc, "secure_sum", lambda inputs, *args: calls.append(len(inputs)))
    _route(_gateway(), "s1", SmpcSum(values=tuple((f"p{i}", 1) for i in range(100_000)),
                                     min_participants=3))
    assert calls == []  # today: [100000]; the real sum would hold 10^10 shares


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 4: whoever knows the run seed recomputes and strips "
                          "every pair mask")
def test_pair_masks_cannot_be_recomputed_from_the_run_seed(monkeypatch):
    seen, masked_uploads = [], fedlearn.masked_uploads

    def spy(vectors, pair_seeds):
        uploads = masked_uploads(vectors, pair_seeds)
        seen.append((vectors, uploads))
        return uploads

    def series(meter_id, seed):  # criterion 08's fixture
        local = random.Random(seed)
        return build_series(meter_id, [local.randrange(200, 3000) for _ in range(192)], 900)

    monkeypatch.setattr(fedlearn, "masked_uploads", spy)
    shards = [[series(f"m{c}-0", 100 + c), series(f"m{c}-1", 200 + c)] for c in range(4)]
    cfg = fedlearn.RoundConfig(rounds=1, local_steps=1, learning_rate=0.01)
    fedlearn.run_federation(shards, cfg, seed=412, secure_agg=True)
    [(vectors, uploads)] = seen
    ids = [f"client-{i:03d}" for i in range(len(vectors))]
    row = uploads[0].copy()
    for other in ids[1:]:  # row 0 is the first of each of its pairs, so it adds each mask
        seed = fedlearn._derived_seed(412, 0, *sorted((ids[0], other)))
        row -= fedlearn._pair_mask_stream(seed, row.size)
    assert tuple(row.tolist()) != fedlearn.encode_fixed(vectors[0])  # today: equal
