"""Per-layer metrics from the spans a traced `gateway serve` run wrote.

A span's self time is its duration minus the durations of its direct
children. Durations are speed-scaled like the end-to-end times (see
`run.Speed`). Times are means per call over every traced round (set-up,
warm-up and timed requests alike); counts are per round, and every round
replays the same request list, so a count repeats exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

KINDS = ("dp_sum", "dp_mean", "dp_count", "dp_histogram", "aggregate_report",
         "raw_export", "he_bill", "smpc_sum", "fed_train", "synth_generate")
OUTCOMES = ("allowed", "ConsentRequired", "BelowAggregationThreshold", "BudgetExhausted")

# name -> unit. Times are per call; `count` metrics are per round.
UNITS = {
    "cli.parse_csv.s": "s",
    "cli.parse_csv.rows_per_s": "1/s",
    "cli.envelope_from_json.us": "us",
    "cli.decision_to_json.us": "us",
    "cli.protocol.self_us": "us",
    "meterdata.interval_totals.ms": "ms",
    "meterdata.interval_totals.calls": "count",
    "meterdata.serialize_csv.ms": "ms",
    "dp.dp_sum.self_ms": "ms",
    "dp.dp_mean.self_ms": "ms",
    "dp.dp_histogram.self_ms": "ms",
    "dp.charge.us": "us",
    "dp.charge.p90_us": "us",
    "dp.ledger_entries": "count",
    "dp.budget_exhausted": "count",
    "dp.laplace_mechanism.calls": "count",
    "anonymize.aggregate_threshold.ms": "ms",
    "synthetic.fit.ms": "ms",
    "synthetic.generate.ms": "ms",
    "synthetic.privacy_check.ms": "ms",
    "fedlearn.run_federation.ms": "ms",
    "fedlearn.local_train.ms": "ms",
    "fedlearn.extract_examples.ms": "ms",
    "fedlearn.extract_examples.calls_per_federation": "count",
    "smpc.secure_sum.ms": "ms",
    "smpc.share.calls": "count",
    "smpc.transcript_messages": "count",
    "he.keygen.ms": "ms",
    "he.encrypt.ms": "ms",
    "he.encrypt.calls": "count",
    "he.draw_randomizer.ms": "ms",
    "he.encrypted_bill.ms": "ms",
    "he.decrypt.ms": "ms",
    **{f"gateway.route.ms.{k}": "ms" for k in KINDS},
    **{f"gateway.route.self_ms.{k}": "ms" for k in KINDS},
    "gateway.append_audit.us": "us",
    "gateway.audit_records": "count",
    **{f"gateway.decisions.{o}": "count" for o in OUTCOMES},
    "trace.throughput_ratio": "ratio",
}


@dataclass
class Spans:
    """One traced round's spans as parallel arrays."""

    names: list[str]
    name_idx: np.ndarray
    dur_ns: np.ndarray
    self_ns: np.ndarray
    parent: np.ndarray
    rids: list[str | None]

    @classmethod
    def load(cls, path, scale) -> "Spans":
        """Spans with durations multiplied by `scale(start_ns, end_ns)`, the speed scale."""
        with open(path) as fh:
            data = json.load(fh)
        rows = data["spans"]
        name_idx = np.array([r[0] for r in rows], dtype=np.int64)
        start = np.array([r[1] for r in rows], dtype=np.int64)
        end = np.array([r[2] for r in rows], dtype=np.int64)
        dur = end - start
        parent = np.array([r[3] for r in rows], dtype=np.int64)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(rows))
        # Self time comes from unscaled durations, then takes its span's scale,
        # so it stays non-negative when parent and children scale differently.
        factor = scale(start, end)
        return cls(data["names"], name_idx, dur * factor, (dur - child) * factor, parent,
                   [r[4] for r in rows])

    def mask(self, name: str) -> np.ndarray:
        if name not in self.names:
            return np.zeros(len(self.dur_ns), dtype=bool)
        return self.name_idx == self.names.index(name)


def per_layer(rounds: list[dict], kind_of: dict[str, str], readings: int) -> dict[str, float]:
    """Per-layer metrics over traced rounds.

    Each round is a dict with `spans` (Spans), `rtt_ns` (request_id -> client
    round trip of timed requests, speed-scaled like the spans), `audit` (the
    audit records) and `replies` (request_id -> parsed reply).
    """
    n_rounds = len(rounds)

    def pooled(name: str, field: str = "dur_ns", kind: str | None = None) -> np.ndarray:
        parts = []
        for r in rounds:
            sp: Spans = r["spans"]
            m = sp.mask(name)
            if kind is not None:
                if "kinds" not in r:
                    r["kinds"] = np.array([kind_of.get(rid, "") for rid in sp.rids])
                m &= r["kinds"] == kind
            parts.append(getattr(sp, field)[m])
        return np.concatenate(parts) if parts else np.zeros(0)

    def mean(name, unit_ns, field="dur_ns", kind=None) -> float:
        vals = pooled(name, field, kind)
        return float(vals.mean()) / unit_ns if len(vals) else 0.0

    def per_round(name) -> float:
        return len(pooled(name)) / n_rounds

    ms, us = 1e6, 1e3
    parse_s = mean("meterdata.parse_csv", 1e9)
    charges = pooled("dp.charge")
    out = {
        "cli.parse_csv.s": parse_s,
        "cli.parse_csv.rows_per_s": readings / parse_s if parse_s else 0.0,
        "cli.envelope_from_json.us": mean("cli.envelope_from_json", us),
        "cli.decision_to_json.us": mean("cli.decision_to_json", us),
        "cli.protocol.self_us": _protocol_self_us(rounds),
        "meterdata.interval_totals.ms": mean("meterdata.interval_totals", ms),
        "meterdata.interval_totals.calls": per_round("meterdata.interval_totals"),
        "meterdata.serialize_csv.ms": mean("meterdata.serialize_csv", ms),
        "dp.dp_sum.self_ms": mean("dp.dp_sum", ms, "self_ns"),
        "dp.dp_mean.self_ms": mean("dp.dp_mean", ms, "self_ns"),
        "dp.dp_histogram.self_ms": mean("dp.dp_histogram", ms, "self_ns"),
        "dp.charge.us": mean("dp.charge", us),
        "dp.charge.p90_us": float(np.percentile(charges, 90)) / us if len(charges) else 0.0,
        "dp.laplace_mechanism.calls": per_round("dp.laplace_mechanism"),
        "anonymize.aggregate_threshold.ms": mean("anonymize.aggregate_threshold", ms),
        "synthetic.fit.ms": mean("synthetic.fit", ms),
        "synthetic.generate.ms": mean("synthetic.generate", ms),
        "synthetic.privacy_check.ms": mean("synthetic.privacy_check", ms),
        "fedlearn.run_federation.ms": mean("fedlearn.run_federation", ms),
        "fedlearn.local_train.ms": mean("fedlearn.local_train", ms),
        "fedlearn.extract_examples.ms": mean("fedlearn.extract_examples", ms),
        "fedlearn.extract_examples.calls_per_federation": (
            per_round("fedlearn.extract_examples") / per_round("fedlearn.run_federation")
            if per_round("fedlearn.run_federation") else 0.0),
        "smpc.secure_sum.ms": mean("smpc.secure_sum", ms),
        "smpc.share.calls": per_round("smpc.share"),
        "smpc.transcript_messages": _mean_reply_field(rounds, kind_of, "smpc_sum", "messages"),
        "he.keygen.ms": mean("he.keygen", ms),
        "he.encrypt.ms": mean("he.encrypt", ms),
        "he.encrypt.calls": per_round("he.encrypt"),
        "he.draw_randomizer.ms": mean("he.draw_randomizer", ms),
        "he.encrypted_bill.ms": mean("he.encrypted_bill", ms),
        "he.decrypt.ms": mean("he.decrypt", ms),
        "gateway.append_audit.us": mean("gateway.append_audit", us),
    }
    for k in KINDS:
        out[f"gateway.route.ms.{k}"] = mean("gateway.route", ms, kind=k)
        out[f"gateway.route.self_ms.{k}"] = mean("gateway.route", ms, "self_ns", kind=k)

    decisions = {o: 0 for o in OUTCOMES}
    ledger_entries = 0
    for r in rounds:
        for rec in r["audit"]:
            outcome = rec["decision"].removeprefix("denied:")
            decisions[outcome] = decisions.get(outcome, 0) + 1
            if rec["decision"] == "allowed" and rec["mechanism"] == "laplace":
                ledger_entries += 1
    out["gateway.audit_records"] = sum(len(r["audit"]) for r in rounds) / n_rounds
    for o in OUTCOMES:
        out[f"gateway.decisions.{o}"] = decisions[o] / n_rounds
    out["dp.ledger_entries"] = ledger_entries / n_rounds
    out["dp.budget_exhausted"] = decisions["BudgetExhausted"] / n_rounds
    return out


def _protocol_self_us(rounds: list[dict]) -> float:
    """Mean client round trip minus the Gateway.route span, over timed requests."""
    diffs = []
    for r in rounds:
        sp: Spans = r["spans"]
        route = sp.mask("gateway.route")
        route_ns = {sp.rids[i]: sp.dur_ns[i] for i in np.flatnonzero(route)}
        diffs.extend(rtt - route_ns[rid] for rid, rtt in r["rtt_ns"].items() if rid in route_ns)
    return float(np.mean(diffs)) / 1e3 if diffs else 0.0


def _mean_reply_field(rounds, kind_of, kind: str, key: str) -> float:
    vals = [rep["result"][key] for r in rounds for rid, rep in r["replies"].items()
            if kind_of.get(rid) == kind and rep.get("allowed")]
    return float(np.mean(vals)) if vals else 0.0


def route_breakdown(rounds: list[dict], timed_rids: set[str]) -> dict[str, float]:
    """Share of timed Gateway.route time spent in each direct child, and in route itself."""
    totals: dict[str, float] = {}
    route_total = 0
    for r in rounds:
        sp: Spans = r["spans"]
        route = np.flatnonzero(sp.mask("gateway.route"))
        timed = {int(i) for i in route if sp.rids[i] in timed_rids}
        route_total += sum(sp.dur_ns[i] for i in timed)
        totals["gateway.route (self)"] = totals.get("gateway.route (self)", 0) + sum(
            sp.self_ns[i] for i in timed)
        for i in np.flatnonzero(np.isin(sp.parent, list(timed))):
            name = sp.names[sp.name_idx[i]]
            totals[name] = totals.get(name, 0) + sp.dur_ns[i]
    if not route_total:
        return {}
    return {k: round(float(v / route_total), 4)
            for k, v in sorted(totals.items(), key=lambda kv: -kv[1])}
