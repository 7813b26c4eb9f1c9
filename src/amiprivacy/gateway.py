"""Policy-and-audit gateway: routes requests by purpose, enforces consent
and budget policy, dispatches to the technique modules, and records every
decision in a hash-chained audit log.

Decision matrix
    RawExport        Primary: allowed iff allow_raw_primary.
                     Secondary: allowed iff consent, else ConsentRequired.
    DpQuery (and any operation that charges the budget ledger)
                     denied BudgetExhausted iff its charge would pass the cap.
    SynthGenerate    allowed once the memorization check passes.
    AggregateReport  allowed iff every group has at least
                     max(min_aggregation_count, k_anonymity_k) members.
    FedTrain / SmpcSum / HeBill
                     allowed for both purposes: only protected outputs
                     (model parameters, protocol sums, a total bill) leave.

Each operation class has one OPERATIONS entry: wire name, audit mechanism,
run and summarize. Its JSON keys are the class's fields, read as their
annotations say (OperationKind.parse). dp_query runs dp.release and
he_bill runs he.bill, as the dp-query and he-bill commands do. Every route
call appends exactly one audit record, "allowed", "denied:<Reason>" or,
when the run raised anything but dp.BudgetExhausted,
"error:<ExceptionType>" (route then raises RequestFailed), carrying the
epsilon of the ledger entries the request appended. The gateway fails
closed: if the record cannot be persisted, route raises AuditWriteFailure
and releases nothing (a DP charge may already have landed, erring safe).
The gateway only calls `append_audit`; `audit` owns the record and its chain.
"""

from __future__ import annotations

import threading
from dataclasses import MISSING, dataclass, field, fields
from enum import Enum
from typing import Annotated, Callable, get_args, get_origin, get_type_hints

from . import anonymize, dp, fedlearn, he, smpc, synthetic
# AuditWriteFailure and verify_chain are not used here: they stay importable from gateway.
from .audit import _FIELD_SEP, AuditLog, AuditWriteFailure, verify_chain
from .meterdata import FeederDataset, serialize_csv


class DuplicateRequest(Exception):
    pass


class RequestFailed(Exception):
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
    seed: int = 0


@dataclass(frozen=True)
class FedTrain:
    n_clients: int
    rounds: int
    local_steps: int
    learning_rate: float


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
    # (group key, meter ids); on the wire, a JSON object of arrays whose members go
    # unchecked, as a non-string one matches no meter id.
    groups: Annotated[tuple[tuple[str, tuple[str, ...]], ...], _groups_from_json]

    def __post_init__(self):  # each id once; an unhashable id raises TypeError at parse
        object.__setattr__(self, "groups", tuple(
            (key, tuple(dict.fromkeys(ids))) for key, ids in self.groups))


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
        (self.request_id + self.requester).encode("utf-8")  # fails here, not after a charge


@dataclass(frozen=True)
class PolicyConfig:
    epsilon_cap: float = 1.0
    min_aggregation_count: int = 100
    k_anonymity_k: int = 5
    allow_raw_primary: bool = True
    memorization_threshold: float = 0.01

    def __post_init__(self):
        for name, kind in get_type_hints(PolicyConfig).items():
            _field(getattr(self, name), kind, name)
        if not (self.epsilon_cap > 0 and self.min_aggregation_count >= 1
                and self.k_anonymity_k >= 1):
            raise ValueError("policy thresholds must be positive")
        if not self.memorization_threshold >= 0:  # also refuses nan
            raise ValueError("memorization_threshold must be non-negative")


@dataclass(frozen=True)
class Decision:
    allowed: bool
    reason: DenialReason | None = None
    result: object | None = None


class Gateway:
    """Single chokepoint through which every data request must pass."""

    def __init__(self, dataset: FeederDataset, policy: PolicyConfig, ledger: dp.BudgetLedger,
                 audit_log: AuditLog, rng=None):
        self.dataset = dataset
        self.policy = policy
        self.ledger = ledger
        self.audit_log = audit_log
        self.rng = rng if rng is not None else dp.default_rng()
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
            except dp.BudgetExhausted:  # whichever operation's ledger charge would pass the cap
                decision = Decision(allowed=False, reason=DenialReason.BUDGET_EXHAUSTED)
            except Exception as exc:
                failure, outcome = exc, f"error:{type(exc).__name__}"
            if failure is None:
                outcome = "allowed" if decision.allowed else f"denied:{decision.reason.value}"
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
        return Decision(allowed=True, result=dp.release(
            self.dataset, q.op, q.epsilon, q.delta, self.ledger, self.rng, q.timestamp, q.edges))

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
        return Decision(allowed=True, result=fedlearn.run_federation(shards, cfg, seed=0))

    def _smpc_sum(self, req: RequestEnvelope) -> Decision:
        op = req.operation
        inputs = [smpc.PartyInput(party_id=p, secret=v) for p, v in op.values]
        result = smpc.secure_sum(inputs, op.min_participants, self.rng)
        return Decision(allowed=True, result=result)

    def _he_bill(self, req: RequestEnvelope) -> Decision:
        op, keypair = req.operation, self._keypair()
        bill = he.bill(keypair.public, op.usage_milli, he.RateSchedule(op.rates), self.rng)
        return Decision(allowed=True, result=he.decrypt(keypair, bill))

    def _aggregate_report(self, req: RequestEnvelope) -> Decision:
        totals = self.dataset.meter_milli
        min_count = max(self.policy.min_aggregation_count, self.policy.k_anonymity_k)
        report = {}
        for key, meters in req.operation.groups:  # each id once: see AggregateReport
            members = [t for t in map(totals.get, meters) if t is not None]
            report[key] = anonymize._aggregate(len(members), sum(members), min_count)
        if any(isinstance(v, anonymize.Suppressed) for v in report.values()):
            return Decision(allowed=False, reason=DenialReason.BELOW_AGGREGATION_THRESHOLD)
        return Decision(allowed=True, result=report)

    def _keypair(self) -> he.PaillierKeypair:
        if self._he_keypair is None:
            self._he_keypair = he.keygen(512, self.rng)  # billing key, made on first use
        return self._he_keypair


def _field(value, kind: type, name: str = ""):
    """value, if it is JSON of kind; an int also passes as a float, and is returned as one.

    bool is an int subclass, but only a JSON true or false is a bool, and neither
    is a number. A name, when given, prefixes the TypeError's message.
    """
    if type(value) is kind:  # the common case, returned at once
        return value
    if isinstance(value, bool) != (kind is bool) or not isinstance(
            value, (int, float) if kind is float else kind):
        prefix = f"{name}: " if name else ""
        raise TypeError(f"{prefix}expected {kind.__name__}, not {value!r}")
    return float(value) if kind is float else value


def _reader(hint) -> Callable[[object], object]:
    """The function that reads a JSON value as the field annotation hint says.

    A scalar goes through _field; T | None takes null as None; tuple[T, ...]
    takes a JSON array, tuple[A, B] a two-item one; Annotated carries its reader.
    """
    origin, args = get_origin(hint), get_args(hint)
    if origin is Annotated:
        return hint.__metadata__[0]
    if type(None) in args:
        (inner,) = (_reader(a) for a in args if a is not type(None))
        return lambda v: None if v is None else inner(v)
    if origin is tuple and args[-1] is Ellipsis:
        item = _reader(args[0])
        return lambda v: tuple([item(x) for x in _field(v, list)])
    if origin is tuple:
        first, second = map(_reader, args)

        def pair(v):
            if len(_field(v, list)) != 2:
                raise TypeError(f"expected a two-item list, not {v!r}")
            return first(v[0]), second(v[1])
        return pair
    return lambda v: _field(v, hint)


def _groups_from_json(groups) -> tuple:  # AggregateReport.groups' one wire rule
    return tuple((key, _field(ids, list)) for key, ids in _field(groups, dict).items())


@dataclass(frozen=True)
class OperationKind:
    kind: str  # the "kind" field of the JSON protocol
    mechanism: str  # the audit record's mechanism
    cls: type  # the operation class, whose fields are the JSON object's other keys
    run: Callable[[Gateway, RequestEnvelope], Decision]
    summarize: Callable[[object], object]  # an allowed result, to JSON
    _readers: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):  # once per class, at import
        hints = get_type_hints(self.cls, include_extras=True)
        object.__setattr__(self, "_readers", tuple(
            (f.name, _reader(hints[f.name]), f.default) for f in fields(self.cls)))

    def parse(self, op: dict) -> Operation:
        """The operation from its JSON object; an absent key takes the field's default."""
        return self.cls(*[read(op[name]) if name in op or default is MISSING else default
                          for name, read, default in self._readers])


# One entry per operation class; a new kind is one more entry.
OPERATIONS: dict[type, OperationKind] = {e.cls: e for e in (
    OperationKind("raw_export", "raw", RawExport, Gateway._raw_export, lambda csv: csv),
    OperationKind(
        "dp_query", "laplace", DpQuery, Gateway._dp_query,
        lambda a: [b.value for b in a] if isinstance(a, list) else {
            "value": a.value, "mechanism": a.mechanism, "epsilon": a.params.epsilon,
            "query_id": a.query_id}),
    OperationKind(
        "synth_generate", "synthetic", SynthGenerate, Gateway._synth_generate,
        lambda r: {"n_households": len(r[0].meter_ids),
                   "min_nn_distance": r[1].min_nn_distance,
                   "distinguisher_auc": r[1].distinguisher_auc}),
    OperationKind(
        "fed_train", "fedavg", FedTrain, Gateway._fed_train,
        lambda r: {"final_weights": [float(w) for w in r.final.weights],
                   "rounds": len(r.history)}),
    OperationKind(
        "smpc_sum", "smpc-sum", SmpcSum, Gateway._smpc_sum,
        lambda r: {"total_milli": r.total, "aborted": r.aborted,
                   "messages": len(r.transcript.messages)}),
    OperationKind("he_bill", "paillier", HeBill, Gateway._he_bill, lambda bill: bill),
    OperationKind(
        "aggregate_report", "aggregate-threshold", AggregateReport, Gateway._aggregate_report,
        lambda report: {str(k): {"count": v.count, "sum_kwh": v.total.kwh,
                                 "mean_kwh": v.mean_kwh} for k, v in report.items()}),
)}
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
            per_requester[rec.requester] = per_requester.get(rec.requester, 0.0) + rec.epsilon_spent
        elif rec.decision.startswith("denied:"):
            reason = rec.decision.split(":", 1)[1]
            denied[reason] = denied.get(reason, 0) + 1
    return SpendReport(dp.compose(ledger).epsilon_total, per_requester, denied)
