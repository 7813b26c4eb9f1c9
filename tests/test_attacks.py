"""Known holes in what the gateway guarantees, one test per hole.

Each test asserts the safe outcome and is a strict xfail naming the ROADMAP
item that closes the hole: it fails today for the stated reason, and the
change that closes the hole sees it pass and removes the marker.
"""

import dataclasses
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from amiprivacy import audit, cli, dp, fedlearn, smpc
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


def _serve_files(tmp_path):
    """`gateway serve` arguments over 5 meters x 24 hours under cap 1.0, one audit log."""
    (tmp_path / "data").mkdir()
    readings = serialize_csv(make_uniform_dataset(5, 1000, 24))
    (tmp_path / "data" / "readings.csv").write_text(readings)
    (tmp_path / "policy.conf").write_text("epsilon_cap = 1.0\n")
    return ["serve", "--policy", str(tmp_path / "policy.conf"), "--data", str(tmp_path / "data"),
            "--audit-log", str(tmp_path / "audit.jsonl"), "--seed", "5"]


def _count_at_0_6(request_id):
    return json.dumps({"request_id": request_id, "requester": "ops", "purpose": "primary",
                       "consent": False,
                       "operation": {"kind": "dp_query", "op": "count", "epsilon": 0.6}})


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 1: a restarted serve starts an empty ledger and "
                          "forgets the request ids it routed")
def test_a_restarted_gateway_refuses_a_replayed_request(tmp_path, monkeypatch, capsys):
    args, q1 = _serve_files(tmp_path), _count_at_0_6("q1")
    replies = []
    for _ in range(2):  # two sessions, one audit log
        monkeypatch.setattr("sys.stdin", io.StringIO(q1 + "\n"))
        assert cli.gateway_main(args) == 0
        replies.append(json.loads(capsys.readouterr().out))
    assert replies[0]["allowed"] is True
    assert not replies[1].get("allowed")  # today: allowed again, 120.47017031450741 twice


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 1: two live serve sessions on one audit log each "
                          "keep a ledger of their own")
def test_a_second_live_session_on_one_audit_log_cannot_spend_the_cap_again(tmp_path):
    main = "import sys; from amiprivacy.cli import gateway_main; sys.exit(gateway_main())"
    command = [sys.executable, "-c", main, *_serve_files(tmp_path)]
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    first, second = (subprocess.Popen(command, env=env, text=True, stdin=subprocess.PIPE,
                                      stdout=subprocess.PIPE, stderr=subprocess.PIPE)
                     for _ in range(2))
    try:
        first.stdin.write(_count_at_0_6("a1") + "\n")
        first.stdin.flush()
        if json.loads(first.stdout.readline())["allowed"] is not True:
            pytest.fail("the first session refused its count")
        # The first session is still live: its stdin stays open until both have answered.
        out, _ = second.communicate(_count_at_0_6("b1") + "\n", timeout=60)
    finally:
        first.communicate(timeout=60)
        second.kill()
        second.wait()
    assert not any(json.loads(line).get("allowed") for line in out.splitlines()), (
        f"the second live session allowed b1 too, 1.2 ε under cap 1.0: {out!r}")


def _audit_log_of_50():
    log = AuditLog()
    log.append_audit("r0", "ops", "allowed", "laplace", 0.01)
    for i in range(1, 50):
        log.append_audit(f"r{i}", "ops", "denied:BudgetExhausted", "laplace", 0.0)
    return list(log.records)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 20: no published head says where the audit log ends")
def test_a_truncated_audit_log_does_not_verify():
    assert not audit.verify_chain(_audit_log_of_50()[:20]).valid, (
        "verify_chain accepts the first 20 of 50 records")


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 20: the chain is unkeyed, so whoever rewrites a record "
                          "recomputes every later hash")
def test_a_rewritten_audit_log_does_not_verify():
    forged, prev_hash = [], audit.GENESIS_HASH
    for i, rec in enumerate(_audit_log_of_50()):
        if i == 0:  # the one allowed charge becomes a denial that spent nothing
            rec = dataclasses.replace(rec, decision="denied:BudgetExhausted", epsilon_spent=0.0)
        digest = audit._record_hash(prev_hash, audit._record_payload(tuple(rec)[:7]))
        forged.append(dataclasses.replace(rec, prev_hash=prev_hash, hash=digest))
        prev_hash = digest
    assert not audit.verify_chain(forged).valid, (
        "verify_chain accepts record 0 rewritten to a denial at ε 0, later hashes recomputed")


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
