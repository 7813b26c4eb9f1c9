"""Known holes in what the gateway guarantees, one test per hole.

Each test asserts the safe outcome and is a strict xfail naming the ROADMAP
item that closes the hole: it fails today for the stated reason, and the
change that closes the hole sees it pass and removes the marker.
"""

import random

import pytest

from amiprivacy import dp
from amiprivacy.gateway import (
    KINDS, AggregateReport, AuditLog, FedTrain, Gateway, PolicyConfig, Purpose, RequestEnvelope,
    SynthGenerate,
)
from conftest import make_two_cluster_dataset


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
