"""Seeded inputs for the `gateway serve` benchmark.

Everything here is built with numpy from the workload seed alone, never
with `amiprivacy.synthetic`, so the input bytes stay fixed when the
program's own generator changes. A workload is a feeder CSV, a policy
file, a warm-up list and a timed list of request lines; every request
carries the reply its check expects.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from datetime import datetime, timezone

import numpy as np

BASE_TS = 1_704_067_200  # 2024-01-01T00:00:00Z
INTERVAL_S = 3600
DELTA_MAX_MILLI = 5000  # policy delta_max_kwh = 5.0
LAPLACE_SCALES = 50  # a DP value further than this from the truth fails its check

# One day of household load shape, relative to the meter's mean (hour 0..23).
_DAY_SHAPE = np.array([
    0.55, 0.50, 0.48, 0.47, 0.48, 0.55, 0.80, 1.20, 1.25, 1.00, 0.90, 0.90,
    0.95, 0.90, 0.85, 0.90, 1.05, 1.40, 1.75, 1.85, 1.70, 1.40, 1.00, 0.70,
])

# Sizes of each workload. `selftest.py` passes smaller ones.
SIZES = {
    "feeder_analytics": {"meters": 1000, "days": 7, "timed": 100},
    "protocol_mix": {"meters": 50, "days": 7, "timed": 49, "parties": 100,
                     "he_intervals": 168, "fed_clients": 4, "fed_rounds": 5,
                     "synth_households": 50},
    "audit_stream": {"meters": 50, "days": 7, "timed": 9000, "budget_charges": 2048},
}
WORKLOADS = tuple(SIZES)


@dataclass
class Request:
    """One request line plus what its reply must show."""

    request_id: str
    kind: str
    line: bytes
    allowed: bool
    reason: str | None = None
    expect: dict = field(default_factory=dict)


@dataclass
class Workload:
    name: str
    seed: int
    meters: int
    days: int
    csv_text: str
    policy_text: str
    epsilon_cap: float
    warmup: list[Request]
    timed: list[Request]

    @property
    def readings(self) -> int:
        return self.meters * self.days * 24

    def sizes(self) -> dict:
        """Input sizes and per-kind request counts, for the results record."""
        def by_kind(reqs):
            counts: dict[str, int] = {}
            for r in reqs:
                counts[r.kind] = counts.get(r.kind, 0) + 1
            return dict(sorted(counts.items()))
        return {
            "meters": self.meters, "days": self.days, "readings": self.readings,
            "csv_bytes": len(self.csv_text),
            "warmup_requests": by_kind(self.warmup),
            "timed_requests": by_kind(self.timed),
            "request_line_bytes": sum(len(r.line) for r in self.warmup + self.timed),
        }


def _readings(rng: np.random.Generator, meters: int, days: int) -> np.ndarray:
    """(meters, hours) int64 milli-kWh, clipped below the per-reading cap."""
    hours = days * 24
    mean_kwh = rng.lognormal(mean=math.log(0.6), sigma=0.45, size=(meters, 1))
    shape = np.tile(_DAY_SHAPE, days)[None, :]
    noise = rng.gamma(shape=4.0, scale=0.25, size=(meters, hours))
    milli = np.rint(mean_kwh * shape * noise * 1000).astype(np.int64)
    return np.clip(milli, 0, DELTA_MAX_MILLI - 1)


def _meter_ids(meters: int) -> list[str]:
    return [f"m{i:04d}" for i in range(meters)]


def _csv(ids: list[str], milli: np.ndarray) -> str:
    """The canonical `serialize_csv` form: sorted ids, ISO Z timestamps, 3 decimals."""
    stamps = [
        datetime.fromtimestamp(BASE_TS + h * INTERVAL_S, tz=timezone.utc)
        .strftime("%Y-%m-%dT%H:%M:%SZ")
        for h in range(milli.shape[1])
    ]
    rows = ["meter_id,timestamp,kwh\n"]
    for meter_id, values in zip(ids, milli.tolist()):
        rows.extend(
            f"{meter_id},{ts},{v // 1000}.{v % 1000:03d}\n" for ts, v in zip(stamps, values)
        )
    return "".join(rows)


def _policy(epsilon_cap: float, min_aggregation_count: int) -> str:
    return (
        f"epsilon_cap = {epsilon_cap!r}\n"
        f"min_aggregation_count = {min_aggregation_count}\n"
        "allow_raw_primary = true\n"
        "memorization_threshold = 0.01\n"
        f"interval_s = {INTERVAL_S}\n"
        f"delta_max_kwh = {DELTA_MAX_MILLI / 1000!r}\n"
    )


class _RequestMaker:
    """Numbers request ids and serializes request lines for one workload."""

    def __init__(self, prefix: str):
        self.prefix = prefix
        self.n = 0

    def make(self, kind, operation, *, purpose="secondary", consent=False,
             allowed=True, reason=None, expect=None) -> Request:
        rid = f"{self.prefix}{self.n:06d}"
        self.n += 1
        line = json.dumps({
            "request_id": rid, "requester": "bench", "purpose": purpose,
            "consent": consent, "operation": operation,
        }).encode() + b"\n"
        return Request(rid, kind, line, allowed, reason, expect or {})


class _Data:
    """A seeded feeder and the exact statistics the checks compare against."""

    def __init__(self, rng: np.random.Generator, meters: int, days: int):
        self.ids = _meter_ids(meters)
        self.milli = _readings(rng, meters, days)
        self.csv = _csv(self.ids, self.milli)
        self.interval_totals = self.milli.sum(axis=0)
        self.meter_totals = self.milli.sum(axis=1)
        self.count = self.milli.size
        self.kwh_sum = float(self.milli.sum()) / 1000.0

    def dp_sum(self, b: _RequestMaker, hour: int, eps: float) -> Request:
        ts = BASE_TS + hour * INTERVAL_S
        return b.make("dp_sum", {"kind": "dp_query", "op": "sum", "epsilon": eps,
                                 "timestamp": ts},
                      expect={"truth": self.interval_totals[hour] / 1000.0,
                              "scale": DELTA_MAX_MILLI / 1000.0 / eps})

    def dp_mean(self, b: _RequestMaker, eps: float) -> Request:
        return b.make("dp_mean", {"kind": "dp_query", "op": "mean", "epsilon": eps},
                      expect={"truth": self.kwh_sum / self.count,
                              "scale": DELTA_MAX_MILLI / 1000.0 / eps / self.count})

    def dp_count(self, b: _RequestMaker, eps: float, allowed=True) -> Request:
        return b.make("dp_count", {"kind": "dp_query", "op": "count", "epsilon": eps},
                      allowed=allowed, reason=None if allowed else "BudgetExhausted",
                      expect={"truth": float(self.count), "scale": 1.0 / eps})

    def dp_histogram(self, b: _RequestMaker, edges: list[float], eps: float) -> Request:
        kwh = self.milli.ravel() / 1000.0
        truth = [int(np.count_nonzero((kwh >= lo) & (kwh < hi)))
                 for lo, hi in zip(edges, edges[1:])]
        return b.make("dp_histogram", {"kind": "dp_query", "op": "histogram",
                                       "epsilon": eps, "edges": edges},
                      expect={"truths": truth, "scale": 1.0 / eps})

    def aggregate(self, b: _RequestMaker, groups: dict[str, list[int]], allowed: bool) -> Request:
        op = {"kind": "aggregate_report",
              "groups": {g: [self.ids[i] for i in members] for g, members in groups.items()}}
        expect = {"groups": {g: {"count": len(members),
                                 "sum_milli": int(self.meter_totals[members].sum())}
                             for g, members in groups.items()}}
        return b.make("aggregate_report", op, allowed=allowed,
                      reason=None if allowed else "BelowAggregationThreshold",
                      expect=expect)

    def raw_export(self, b: _RequestMaker, primary: bool) -> Request:
        if primary:
            return b.make("raw_export", {"kind": "raw_export"}, purpose="primary",
                          expect={"csv": self.csv})
        return b.make("raw_export", {"kind": "raw_export"}, allowed=False,
                      reason="ConsentRequired")


def _feeder_analytics(seed: int, size: dict) -> Workload:
    rng = np.random.default_rng([seed, 1])
    data = _Data(rng, size["meters"], size["days"])
    hours = size["days"] * 24
    eps = 1.0
    edges = [i * 0.5 for i in range(11)]  # 10 bins over [0, 5) kWh
    perm = rng.permutation(size["meters"])
    groups = {f"g{k}": sorted(perm[k::4].tolist()) for k in range(4)}
    min_count = max(1, min(len(m) for m in groups.values()) * 2 // 5)

    cycle = (lambda b: data.dp_sum(b, int(rng.integers(hours)), eps),
             lambda b: data.dp_mean(b, eps),
             lambda b: data.dp_count(b, eps),
             lambda b: data.dp_histogram(b, edges, eps),
             lambda b: data.aggregate(b, groups, allowed=True))
    w = _RequestMaker("w")
    warmup = ([data.raw_export(w, primary=False)] + [make(w) for make in cycle]
              + [data.raw_export(w, primary=True)])
    t = _RequestMaker("t")
    # Every 50th request is a primary raw export; the others cycle.
    timed = [data.raw_export(t, primary=True) if i % 50 == 49 else cycle[(i - i // 50) % 5](t)
             for i in range(size["timed"])]
    cap = float(2 ** math.ceil(math.log2(len(warmup) + len(timed))))
    return Workload("feeder_analytics", seed, size["meters"], size["days"], data.csv,
                    _policy(cap, min_count), cap, warmup, timed)


def _protocol_mix(seed: int, size: dict) -> Workload:
    rng = np.random.default_rng([seed, 2])
    data = _Data(rng, size["meters"], size["days"])
    hours = size["days"] * 24
    eps = 1.0

    def he_bill(b: _RequestMaker) -> Request:
        n = size["he_intervals"]
        usage = rng.integers(0, DELTA_MAX_MILLI, size=n).tolist()
        rates = rng.integers(1, 300, size=n).tolist()
        return b.make("he_bill", {"kind": "he_bill", "usage_milli": usage, "rates": rates},
                      expect={"bill": sum(u * r for u, r in zip(usage, rates))})

    def smpc_sum(b: _RequestMaker) -> Request:
        n = size["parties"]
        values = rng.integers(0, 50_000_000, size=n).tolist()
        return b.make("smpc_sum", {"kind": "smpc_sum",
                                   "values": [[f"p{i:03d}", v] for i, v in enumerate(values)],
                                   "min_participants": n},
                      expect={"total": sum(values), "messages": n * n + n * (n - 1)})

    def fed_train(b: _RequestMaker) -> Request:
        rounds = size["fed_rounds"]
        return b.make("fed_train", {"kind": "fed_train", "n_clients": size["fed_clients"],
                                    "rounds": rounds, "local_steps": 1,
                                    "learning_rate": 0.01, "seed": int(rng.integers(2**31))},
                      expect={"rounds": rounds})

    def synth(b: _RequestMaker) -> Request:
        n = size["synth_households"]
        return b.make("synth_generate", {"kind": "synth_generate", "n_clusters": 2,
                                         "n_households": n, "n_days": size["days"],
                                         "seed": int(rng.integers(2**31))},
                      expect={"households": n})

    def dp_sum(b: _RequestMaker) -> Request:
        return data.dp_sum(b, int(rng.integers(hours)), eps)

    # Three cheap dp sums per cycle put the median in the fed_train band
    # (ranks 43-57 %): synth_generate and smpc_sum take about as long as
    # each other, so a median among them would hop between the two.
    cycle = (he_bill, dp_sum, smpc_sum, dp_sum, fed_train, dp_sum, synth)
    w = _RequestMaker("w")
    warmup = [data.raw_export(w, primary=False)] + [make(w) for make in dict.fromkeys(cycle)]
    t = _RequestMaker("t")
    timed = [cycle[i % len(cycle)](t) for i in range(size["timed"])]
    cap = float(2 ** math.ceil(math.log2(len(warmup) + len(timed))))
    return Workload("protocol_mix", seed, size["meters"], size["days"], data.csv,
                    _policy(cap, 1), cap, warmup, timed)


def _audit_stream(seed: int, size: dict) -> Workload:
    rng = np.random.default_rng([seed, 3])
    data = _Data(rng, size["meters"], size["days"])
    # eps is a power of two, so the ledger's float sums are exact and the
    # request that crosses the cap is known in advance.
    eps = 2.0 ** -8
    allowed_charges = size["budget_charges"]
    cap = allowed_charges * eps
    small = max(1, size["meters"] // 10)
    charges = 0

    def dp_count(b: _RequestMaker) -> Request:
        nonlocal charges
        charges += 1
        return data.dp_count(b, eps, allowed=charges <= allowed_charges)

    def aggregate(b: _RequestMaker) -> Request:
        members = rng.choice(size["meters"], size=2 * small, replace=False).tolist()
        groups = {"a": sorted(members[:small]), "b": sorted(members[small:])}
        return data.aggregate(b, groups, allowed=False)

    def raw(b: _RequestMaker) -> Request:
        return data.raw_export(b, primary=False)

    cycle = (raw, aggregate, dp_count)
    w = _RequestMaker("w")
    warmup = [raw(w), aggregate(w), dp_count(w)]
    t = _RequestMaker("t")
    timed = [cycle[i % len(cycle)](t) for i in range(size["timed"])]
    return Workload("audit_stream", seed, size["meters"], size["days"], data.csv,
                    _policy(cap, size["meters"] + 1), cap, warmup, timed)


_WORKLOAD_FUNCS = {
    "feeder_analytics": _feeder_analytics,
    "protocol_mix": _protocol_mix,
    "audit_stream": _audit_stream,
}


def build(name: str, seed: int, size: dict | None = None) -> Workload:
    """The workload's inputs for this seed; `size` overrides entries of SIZES."""
    return _WORKLOAD_FUNCS[name](seed, {**SIZES[name], **(size or {})})


def check_reply(req: Request, reply: dict) -> str | None:
    """None when the reply is what `req` expects, else why it is not."""
    if reply.get("request_id") != req.request_id:
        return f"request_id {reply.get('request_id')!r} != {req.request_id!r}"
    if "error" in reply:
        return f"error reply: {reply['error']}"
    if reply.get("allowed") is not req.allowed:
        return f"allowed={reply.get('allowed')!r}, expected {req.allowed}"
    if reply.get("reason") != req.reason:
        return f"reason={reply.get('reason')!r}, expected {req.reason!r}"
    if not req.allowed:
        return None
    result, exp = reply.get("result"), req.expect
    try:
        return _check_result(req.kind, result, exp)
    except (KeyError, TypeError, ValueError) as exc:
        return f"malformed result: {exc!r}"


def _near(value, truth: float, scale: float) -> bool:
    return (isinstance(value, (int, float)) and math.isfinite(value)
            and abs(value - truth) <= LAPLACE_SCALES * scale)


def _check_result(kind: str, result, exp: dict) -> str | None:
    if kind in ("dp_sum", "dp_mean", "dp_count"):
        if not _near(result["value"], exp["truth"], exp["scale"]):
            return f"{kind} value {result['value']!r} too far from {exp['truth']!r}"
    elif kind == "dp_histogram":
        if len(result) != len(exp["truths"]) or not all(
            _near(v, t, exp["scale"]) for v, t in zip(result, exp["truths"])
        ):
            return f"histogram {result!r} too far from {exp['truths']!r}"
    elif kind == "aggregate_report":
        for group, want in exp["groups"].items():
            got = result[group]
            if got["count"] != want["count"] or got["sum_kwh"] != want["sum_milli"] / 1000:
                return f"group {group}: {got!r} != {want!r}"
        if set(result) != set(exp["groups"]):
            return f"groups {sorted(result)!r} != {sorted(exp['groups'])!r}"
    elif kind == "raw_export":
        if result != exp["csv"]:
            return "raw export differs from the input CSV"
    elif kind == "he_bill":
        if result != exp["bill"]:
            return f"bill {result!r} != {exp['bill']!r}"
    elif kind == "smpc_sum":
        if (result["aborted"] or result["total_milli"] != exp["total"]
                or result["messages"] != exp["messages"]):
            return f"secure sum {result!r} != total {exp['total']}, messages {exp['messages']}"
    elif kind == "fed_train":
        weights = result["final_weights"]
        if (result["rounds"] != exp["rounds"] or not weights
                or not all(math.isfinite(w) for w in weights)):
            return f"fed_train {result!r} lacks {exp['rounds']} rounds of finite weights"
    elif kind == "synth_generate":
        if result["n_households"] != exp["households"]:
            return f"synth_generate {result!r} != {exp['households']} households"
    else:
        return f"unknown kind {kind!r}"
    return None
