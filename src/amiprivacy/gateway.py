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

Every route call appends exactly one audit record before returning, and
the gateway fails closed: if the audit append cannot be persisted, the
request raises and no result is released (for DP queries the budget
charge may already have landed, which errs on the safe side).
"""

from __future__ import annotations

import hashlib
import threading
import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Sequence

from . import anonymize, dp, fedlearn, he, smpc, synthetic
from .meterdata import EnergyQuantity, FeederDataset, serialize_csv

GENESIS_HASH = bytes(32)


class GatewayError(Exception):
    pass


class DuplicateRequest(GatewayError):
    pass


class StorageFailure(GatewayError):
    pass


class AuditWriteFailure(GatewayError):
    """The audit record could not be persisted; the request was dropped."""


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
    return "|".join(fields).encode("utf-8")


def _record_hash(prev_hash: bytes, payload: bytes) -> bytes:
    return hashlib.sha256(prev_hash + payload).digest()


class AuditLog:
    """Append-only, hash-chained decision log.

    An optional writer callback persists each record before it is
    committed in memory; a writer exception surfaces as StorageFailure
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
                raise StorageFailure(f"audit storage failed: {exc}") from exc
        self._records.append(record)
        return record


@dataclass(frozen=True)
class ChainReport:
    valid: bool
    first_bad_seq: int | None = None  # list index of the first bad record


def verify_chain(records: Sequence[AuditRecord]) -> ChainReport:
    """Recompute every digest and link; report the first mismatch."""
    prev_hash = GENESIS_HASH
    for i, rec in enumerate(records):
        payload = _record_payload(
            rec.seq, rec.request_id, rec.requester, rec.decision,
            rec.mechanism, rec.epsilon_spent, rec.timestamp,
        )
        if (
            rec.seq != i
            or rec.prev_hash != prev_hash
            or rec.hash != _record_hash(prev_hash, payload)
        ):
            return ChainReport(valid=False, first_bad_seq=i)
        prev_hash = rec.hash
    return ChainReport(valid=True)


_MECHANISM = {
    RawExport: "raw",
    DpQuery: "laplace",
    SynthGenerate: "synthetic",
    FedTrain: "fedavg",
    SmpcSum: "smpc-sum",
    HeBill: "paillier",
    AggregateReport: "aggregate-threshold",
}


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
        """Decide, dispatch, audit — in one serialized critical section."""
        with self._lock:
            if req.request_id in self._seen_ids:
                raise DuplicateRequest(f"request_id {req.request_id!r} already routed")
            decision, epsilon_spent = self._decide(req)
            try:
                self.audit_log.append_audit(
                    request_id=req.request_id,
                    requester=req.requester,
                    decision=(
                        "allowed" if decision.allowed else f"denied:{decision.reason.value}"
                    ),
                    mechanism=_MECHANISM[type(req.operation)],
                    epsilon_spent=epsilon_spent,
                )
            except StorageFailure as exc:
                raise AuditWriteFailure(str(exc)) from exc
            self._seen_ids.add(req.request_id)
            return decision

    def _decide(self, req: RequestEnvelope) -> tuple[Decision, float]:
        op = req.operation
        if isinstance(op, RawExport):
            if req.purpose is Purpose.PRIMARY:
                if self.policy.allow_raw_primary:
                    return Decision(allowed=True, result=serialize_csv(self.dataset)), 0.0
                return Decision(allowed=False, reason=DenialReason.POLICY_VIOLATION), 0.0
            if not req.consent:
                return Decision(allowed=False, reason=DenialReason.CONSENT_REQUIRED), 0.0
            return Decision(allowed=True, result=serialize_csv(self.dataset)), 0.0

        if isinstance(op, DpQuery):
            try:
                result = self._run_dp_query(op)
            except dp.BudgetExhausted:
                return Decision(allowed=False, reason=DenialReason.BUDGET_EXHAUSTED), 0.0
            return Decision(allowed=True, result=result), op.epsilon

        if isinstance(op, SynthGenerate):
            model = synthetic.fit(self.dataset, op.n_clusters, op.seed)
            synth = synthetic.generate(model, op.n_households, op.n_days, op.seed)
            report = synthetic.privacy_check(
                self.dataset, synth, self.policy.memorization_threshold
            )
            if report.memorization_flag:
                return Decision(allowed=False, reason=DenialReason.MEMORIZATION_DETECTED), 0.0
            return Decision(allowed=True, result=(synth, report)), 0.0

        if isinstance(op, FedTrain):
            series = self.dataset.series
            shards = [series[i::op.n_clients] for i in range(op.n_clients)]
            cfg = fedlearn.RoundConfig(
                rounds=op.rounds,
                local_steps=op.local_steps,
                learning_rate=op.learning_rate,
            )
            result = fedlearn.run_federation(shards, cfg, seed=op.seed)
            return Decision(allowed=True, result=result), 0.0

        if isinstance(op, SmpcSum):
            inputs = [smpc.PartyInput(party_id=p, secret=v) for p, v in op.values]
            result = smpc.secure_sum(inputs, op.min_participants, self.rng)
            return Decision(allowed=True, result=result), 0.0

        if isinstance(op, HeBill):
            keypair = self._keypair()
            pub = keypair.public
            cts = [
                he.encrypt(pub, m, he.draw_randomizer(pub, self.rng))
                for m in op.usage_milli
            ]
            bill_ct = he.encrypted_bill(cts, he.RateSchedule(op.rates), pub)
            return Decision(allowed=True, result=he.decrypt(keypair, bill_ct)), 0.0

        if isinstance(op, AggregateReport):
            totals = self.dataset.meter_milli
            groups = {
                key: [EnergyQuantity(totals[m]) for m in meters if m in totals]
                for key, meters in op.groups
            }
            policy = anonymize.AggregationPolicy(min_count=self.policy.min_aggregation_count)
            report = anonymize.aggregate_threshold(groups, policy)
            if any(isinstance(v, anonymize.Suppressed) for v in report.values()):
                return (
                    Decision(allowed=False, reason=DenialReason.BELOW_AGGREGATION_THRESHOLD),
                    0.0,
                )
            return Decision(allowed=True, result=report), 0.0

        raise GatewayError(f"unknown operation {op!r}")

    def _run_dp_query(self, op: DpQuery):
        params = dp.PrivacyParams(epsilon=op.epsilon, delta=op.delta)
        if op.op == "sum":
            if op.timestamp is None:
                raise GatewayError("sum query needs a timestamp")
            return dp.dp_sum(self.dataset, op.timestamp, params, self.ledger, self.rng)
        if op.op == "count":
            return dp.dp_count(self.dataset, params, self.ledger, self.rng)
        if op.op == "mean":
            return dp.dp_mean(self.dataset, params, self.ledger, self.rng)
        if op.op == "histogram":
            if not op.edges:
                raise GatewayError("histogram query needs bin edges")
            return dp.dp_histogram(self.dataset, op.edges, params, self.ledger, self.rng)
        raise GatewayError(f"unknown dp op {op.op!r}")

    def _keypair(self) -> he.PaillierKeypair:
        if self._he_keypair is None:
            self._he_keypair = he.keygen(self._he_bits, self.rng)
        return self._he_keypair


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
        if rec.decision == "allowed" and rec.epsilon_spent > 0:
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
