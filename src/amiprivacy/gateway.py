"""Policy-and-audit gateway: routes requests by purpose, enforces consent
and budget policy, dispatches to the technique modules, and records every
decision in a hash-chained audit log.

Decision matrix
    RawExport        Primary: allowed iff allow_raw_primary.
                     Secondary: allowed iff consent, else ConsentRequired.
    DpQuery          allowed iff the budget ledger has headroom.
    SynthGenerate    allowed once the memorization check passes.
    AggregateReport  allowed iff every group meets min_aggregation_count.
    FedTrain / SmpcSum / HeBill
                     allowed for both purposes: only protected outputs
                     (model parameters, protocol sums, a total bill) leave.

Each operation class has one OPERATIONS entry: wire name, audit mechanism,
parse, run and summarize. Every route call appends exactly one audit
record, "allowed", "denied:<Reason>" or, when the run raised,
"error:<ExceptionType>" (route then raises RequestFailed), carrying the
epsilon of the ledger entries the request appended. The gateway fails
closed: if the record cannot be persisted, route raises AuditWriteFailure
and releases nothing (a DP charge may already have landed, erring safe).
"""

from __future__ import annotations

import hashlib
import threading
import time
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence

from . import anonymize, dp, fedlearn, he, smpc, synthetic
from .meterdata import EnergyQuantity, FeederDataset, serialize_csv

GENESIS_HASH = bytes(32)


class GatewayError(Exception):
    pass


class DuplicateRequest(GatewayError):
    pass


class AuditWriteFailure(GatewayError):
    """The audit record could not be persisted; the request was dropped."""


class RequestFailed(GatewayError):
    """The operation raised; the request was audited as error:<ExceptionType>."""


class Purpose(Enum):
    PRIMARY = "primary"
    SECONDARY = "secondary"


class DenialReason(Enum):
    CONSENT_REQUIRED = "ConsentRequired"
    BUDGET_EXHAUSTED = "BudgetExhausted"
    BELOW_AGGREGATION_THRESHOLD = "BelowAggregationThreshold"
    MEMORIZATION_DETECTED = "MemorizationDetected"
    POLICY_VIOLATION = "PolicyViolation"


@dataclass(frozen=True)
class RawExport:
    pass


@dataclass(frozen=True)
class DpQuery:
    op: str  # sum | count | mean | histogram
    epsilon: float
    delta: float = 0.0
    timestamp: int | None = None  # for sum
    edges: tuple[float, ...] | None = None  # for histogram


@dataclass(frozen=True)
class SynthGenerate:
    n_clusters: int
    n_households: int
    n_days: int
    seed: int


@dataclass(frozen=True)
class FedTrain:
    n_clients: int
    rounds: int
    local_steps: int
    learning_rate: float
    seed: int = 0


@dataclass(frozen=True)
class SmpcSum:
    values: tuple[tuple[str, int], ...]  # (party_id, milli-kWh)
    min_participants: int


@dataclass(frozen=True)
class HeBill:
    usage_milli: tuple[int, ...]
    rates: tuple[int, ...]


@dataclass(frozen=True)
class AggregateReport:
    groups: tuple[tuple[str, tuple[str, ...]], ...]  # (group key, meter ids)


Operation = (
    RawExport | DpQuery | SynthGenerate | FedTrain | SmpcSum | HeBill | AggregateReport
)


@dataclass(frozen=True)
class RequestEnvelope:
    request_id: str
    requester: str
    purpose: Purpose
    consent: bool
    operation: Operation

    def __post_init__(self):
        if _FIELD_SEP in self.request_id or _FIELD_SEP in self.requester:
            raise ValueError(f"request_id and requester must not contain {_FIELD_SEP!r}")


@dataclass(frozen=True)
class PolicyConfig:
    epsilon_cap: float = 1.0
    min_aggregation_count: int = 100
    k_anonymity_k: int = 5
    allow_raw_primary: bool = True
    memorization_threshold: float = 0.01

    def __post_init__(self):
        if self.epsilon_cap <= 0 or self.min_aggregation_count < 1 or self.k_anonymity_k < 1:
            raise ValueError("policy thresholds must be positive")
        if self.memorization_threshold < 0:
            raise ValueError("memorization_threshold must be non-negative")


@dataclass(frozen=True)
class Decision:
    allowed: bool
    reason: DenialReason | None = None
    result: object | None = None


@dataclass(frozen=True)
class AuditRecord:
    seq: int
    request_id: str
    requester: str
    decision: str  # "allowed" or "denied:<Reason>"
    mechanism: str
    epsilon_spent: float
    timestamp: float
    prev_hash: bytes
    hash: bytes


_FIELD_SEP = "|"  # joins the audit payload's fields; no text field may contain it


def _record_payload(
    seq: int,
    request_id: str,
    requester: str,
    decision: str,
    mechanism: str,
    epsilon_spent: float,
    timestamp: float,
) -> bytes:
    fields = (str(seq), request_id, requester, decision, mechanism,
              repr(epsilon_spent), repr(timestamp))
    return _FIELD_SEP.join(fields).encode("utf-8")


def _record_hash(prev_hash: bytes, payload: bytes) -> bytes:
    return hashlib.sha256(prev_hash + payload).digest()


class AuditLog:
    """Append-only, hash-chained decision log.

    An optional writer callback persists each record before it is
    committed in memory; a writer exception surfaces as AuditWriteFailure
    and leaves the log unchanged (the fault-injection point for the
    fail-closed tests).
    """

    def __init__(self, writer: Callable[[AuditRecord], None] | None = None):
        self._records: list[AuditRecord] = []
        self._writer = writer

    @property
    def records(self) -> tuple[AuditRecord, ...]:
        return tuple(self._records)

    def append_audit(
        self,
        request_id: str,
        requester: str,
        decision: str,
        mechanism: str,
        epsilon_spent: float,
    ) -> AuditRecord:
        seq = len(self._records)
        prev_hash = self._records[-1].hash if self._records else GENESIS_HASH
        timestamp = time.time()
        payload = _record_payload(
            seq, request_id, requester, decision, mechanism, epsilon_spent, timestamp
        )
        record = AuditRecord(
            seq=seq,
            request_id=request_id,
            requester=requester,
            decision=decision,
            mechanism=mechanism,
            epsilon_spent=epsilon_spent,
            timestamp=timestamp,
            prev_hash=prev_hash,
            hash=_record_hash(prev_hash, payload),
        )
        if self._writer is not None:
            try:
                self._writer(record)
            except Exception as exc:
                raise AuditWriteFailure(f"audit storage failed: {exc}") from exc
        self._records.append(record)
        return record


@dataclass(frozen=True)
class ChainReport:
    valid: bool
    first_bad_seq: int | None = None  # list index of the first bad record


def verify_chain(records: Sequence[AuditRecord]) -> ChainReport:
    """Recompute every digest and link; report the first mismatch.

    A record whose text fields contain the payload separator is bad too:
    moving a separator between adjacent fields would keep its digest.
    """
    sep = _FIELD_SEP.encode("utf-8")
    prev_hash = GENESIS_HASH
    for i, rec in enumerate(records):
        payload = _record_payload(
            rec.seq, rec.request_id, rec.requester, rec.decision,
            rec.mechanism, rec.epsilon_spent, rec.timestamp,
        )
        if (
            rec.seq != i
            or payload.count(sep) != 6  # seven fields; more means one held a separator
            or rec.prev_hash != prev_hash
            or rec.hash != _record_hash(prev_hash, payload)
        ):
            return ChainReport(valid=False, first_bad_seq=i)
        prev_hash = rec.hash
    return ChainReport(valid=True)


class Gateway:
    """Single chokepoint through which every data request must pass."""

    def __init__(
        self,
        dataset: FeederDataset,
        policy: PolicyConfig,
        ledger: dp.BudgetLedger,
        audit_log: AuditLog,
        rng=None,
        he_bits: int = 512,
    ):
        self.dataset = dataset
        self.policy = policy
        self.ledger = ledger
        self.audit_log = audit_log
        self.rng = rng if rng is not None else dp.default_rng()
        self._he_bits = he_bits
        self._he_keypair: he.PaillierKeypair | None = None
        self._seen_ids: set[str] = set()
        self._lock = threading.Lock()

    def route(self, req: RequestEnvelope) -> Decision:
        """Run and audit one request, in one serialized critical section."""
        entry = OPERATIONS[type(req.operation)]
        with self._lock:
            if req.request_id in self._seen_ids:
                raise DuplicateRequest(f"request_id {req.request_id!r} already routed")
            entries_before = self.ledger.entry_count()
            failure = None
            try:
                decision = entry.run(self, req)
                outcome = "allowed" if decision.allowed else f"denied:{decision.reason.value}"
            except Exception as exc:
                failure, outcome = exc, f"error:{type(exc).__name__}"
            self.audit_log.append_audit(
                req.request_id, req.requester, outcome, entry.mechanism,
                self.ledger.epsilon_since(entries_before),
            )
            self._seen_ids.add(req.request_id)
            if failure is not None:
                raise RequestFailed(f"{type(failure).__name__}: {failure}") from failure
            return decision

    def _raw_export(self, req: RequestEnvelope) -> Decision:
        if req.purpose is Purpose.PRIMARY and not self.policy.allow_raw_primary:
            return Decision(allowed=False, reason=DenialReason.POLICY_VIOLATION)
        if req.purpose is Purpose.SECONDARY and not req.consent:
            return Decision(allowed=False, reason=DenialReason.CONSENT_REQUIRED)
        return Decision(allowed=True, result=serialize_csv(self.dataset))

    def _dp_query(self, req: RequestEnvelope) -> Decision:
        q = req.operation
        if q.op not in DP_OPS:
            raise ValueError(f"unknown dp op {q.op!r}")
        params = dp.PrivacyParams(epsilon=q.epsilon, delta=q.delta)
        try:
            result = DP_OPS[q.op].release(self.dataset, q, params, self.ledger, self.rng)
        except dp.BudgetExhausted:
            return Decision(allowed=False, reason=DenialReason.BUDGET_EXHAUSTED)
        return Decision(allowed=True, result=result)

    def _synth_generate(self, req: RequestEnvelope) -> Decision:
        op = req.operation
        model = synthetic.fit(self.dataset, op.n_clusters, op.seed)
        synth = synthetic.generate(model, op.n_households, op.n_days, op.seed)
        report = synthetic.privacy_check(self.dataset, synth, self.policy.memorization_threshold)
        if report.memorization_flag:
            return Decision(allowed=False, reason=DenialReason.MEMORIZATION_DETECTED)
        return Decision(allowed=True, result=(synth, report))

    def _fed_train(self, req: RequestEnvelope) -> Decision:
        op = req.operation
        shards = fedlearn.round_robin_shards(self.dataset, op.n_clients)
        cfg = fedlearn.RoundConfig(
            rounds=op.rounds, local_steps=op.local_steps, learning_rate=op.learning_rate
        )
        return Decision(allowed=True, result=fedlearn.run_federation(shards, cfg, seed=op.seed))

    def _smpc_sum(self, req: RequestEnvelope) -> Decision:
        op = req.operation
        inputs = [smpc.PartyInput(party_id=p, secret=v) for p, v in op.values]
        result = smpc.secure_sum(inputs, op.min_participants, self.rng)
        return Decision(allowed=True, result=result)

    def _he_bill(self, req: RequestEnvelope) -> Decision:
        op, keypair = req.operation, self._keypair()
        pub = keypair.public
        cts = [he.encrypt(keypair, m, he.draw_randomizer(pub, self.rng)) for m in op.usage_milli]
        bill_ct = he.encrypted_bill(cts, he.RateSchedule(op.rates), pub)
        return Decision(allowed=True, result=he.decrypt(keypair, bill_ct))

    def _aggregate_report(self, req: RequestEnvelope) -> Decision:
        totals = self.dataset.meter_milli
        groups = {
            key: [EnergyQuantity(totals[m]) for m in meters if m in totals]
            for key, meters in req.operation.groups
        }
        policy = anonymize.AggregationPolicy(min_count=self.policy.min_aggregation_count)
        report = anonymize.aggregate_threshold(groups, policy)
        if any(isinstance(v, anonymize.Suppressed) for v in report.values()):
            return Decision(allowed=False, reason=DenialReason.BELOW_AGGREGATION_THRESHOLD)
        return Decision(allowed=True, result=report)

    def _keypair(self) -> he.PaillierKeypair:
        if self._he_keypair is None:
            self._he_keypair = he.keygen(self._he_bits, self.rng)
        return self._he_keypair


def _given(value, message: str):
    if value is None:
        raise ValueError(message)
    return value


def _answer_json(a: dp.DpAnswer) -> dict:
    return {"value": a.value, "mechanism": a.mechanism,
            "epsilon": a.params.epsilon, "query_id": a.query_id}


@dataclass(frozen=True)
class DpOp:
    release: Callable  # (dataset, DpQuery, PrivacyParams, ledger, rng) -> answer(s)
    summarize: Callable[[object], object]  # the answer(s), to JSON


DP_OPS: dict[str, DpOp] = {
    "sum": DpOp(lambda d, q, p, ledger, rng: dp.dp_sum(
        d, _given(q.timestamp, "sum query needs a timestamp"), p, ledger, rng), _answer_json),
    "count": DpOp(lambda d, q, p, ledger, rng: dp.dp_count(d, p, ledger, rng), _answer_json),
    "mean": DpOp(lambda d, q, p, ledger, rng: dp.dp_mean(d, p, ledger, rng), _answer_json),
    "histogram": DpOp(lambda d, q, p, ledger, rng: dp.dp_histogram(
        d, _given(q.edges, "histogram query needs bin edges"), p, ledger, rng),
        lambda answers: [a.value for a in answers]),
}


@dataclass(frozen=True)
class OperationKind:
    kind: str  # the "kind" field of the JSON protocol
    mechanism: str  # the audit record's mechanism
    parse: Callable[[dict], Operation]  # from the JSON "operation" object
    run: Callable[[Gateway, RequestEnvelope], Decision]
    summarize: Callable[[Operation, object], object]  # an allowed result, to JSON


# One entry per operation class; a new kind is one more entry.
OPERATIONS: dict[type, OperationKind] = {
    RawExport: OperationKind(
        "raw_export", "raw", lambda d: RawExport(), Gateway._raw_export, lambda op, csv: csv),
    DpQuery: OperationKind(
        "dp_query", "laplace",
        lambda d: DpQuery(d["op"], float(d["epsilon"]), float(d.get("delta", 0.0)),
                          d.get("timestamp"), tuple(d["edges"]) if d.get("edges") else None),
        Gateway._dp_query, lambda op, answer: DP_OPS[op.op].summarize(answer)),
    SynthGenerate: OperationKind(
        "synth_generate", "synthetic",
        lambda d: SynthGenerate(d["n_clusters"], d["n_households"], d["n_days"],
                                d.get("seed", 0)),
        Gateway._synth_generate,
        lambda op, r: {"n_households": len(r[0].meter_ids),
                       "min_nn_distance": r[1].min_nn_distance,
                       "distinguisher_auc": r[1].distinguisher_auc}),
    FedTrain: OperationKind(
        "fed_train", "fedavg",
        lambda d: FedTrain(d["n_clients"], d["rounds"], d["local_steps"],
                           float(d["learning_rate"]), d.get("seed", 0)),
        Gateway._fed_train,
        lambda op, r: {"final_weights": [float(w) for w in r.final.weights],
                       "rounds": len(r.history)}),
    SmpcSum: OperationKind(
        "smpc_sum", "smpc-sum",
        lambda d: SmpcSum(tuple((p, int(v)) for p, v in d["values"]), d["min_participants"]),
        Gateway._smpc_sum,
        lambda op, r: {"total_milli": r.total, "aborted": r.aborted,
                       "messages": len(r.transcript.messages)}),
    HeBill: OperationKind(
        "he_bill", "paillier",
        lambda d: HeBill(tuple(d["usage_milli"]), tuple(d["rates"])),
        Gateway._he_bill, lambda op, bill: bill),
    AggregateReport: OperationKind(
        "aggregate_report", "aggregate-threshold",
        lambda d: AggregateReport(tuple((k, tuple(v)) for k, v in d["groups"].items())),
        Gateway._aggregate_report,
        lambda op, report: {str(k): {"count": v.count, "sum_kwh": v.total.kwh,
                                     "mean_kwh": v.mean_kwh} for k, v in report.items()}),
}
KINDS: dict[str, OperationKind] = {e.kind: e for e in OPERATIONS.values()}


@dataclass(frozen=True)
class SpendReport:
    epsilon_total: float
    per_requester: dict[str, float]
    denied_counts: dict[str, int]


def spend_report(ledger: dp.BudgetLedger, log: AuditLog) -> SpendReport:
    """Budget summary: ledger total, per-requester partition, denial tallies."""
    per_requester: dict[str, float] = {}
    denied: dict[str, int] = {}
    for rec in log.records:
        if rec.epsilon_spent > 0:  # allowed, or an error after the charge landed
            per_requester[rec.requester] = (
                per_requester.get(rec.requester, 0.0) + rec.epsilon_spent
            )
        elif rec.decision.startswith("denied:"):
            reason = rec.decision.split(":", 1)[1]
            denied[reason] = denied.get(reason, 0) + 1
    return SpendReport(
        epsilon_total=dp.compose(ledger).epsilon_total,
        per_requester=per_requester,
        denied_counts=denied,
    )
