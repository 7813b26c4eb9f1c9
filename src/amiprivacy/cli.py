"""Command-line entry points.

Each console script maps to one subsystem: `anonymize`, `dp-query`,
`synth-gen`, `synth-check`, `fed-train`, `smpc-sum`, `he-keygen`,
`he-bill`, `he-decrypt`, `gateway serve`, and `audit-show`. The gateway
speaks a line-delimited JSON protocol on stdin/stdout so end-to-end runs
need no network stack.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import dp, fedlearn, gateway as gw, he, smpc, synthetic
from .anonymize import PseudonymKey, pseudonymize
from .meterdata import (
    EnergyQuantity,
    FeederDataset,
    iso_to_epoch,
    parse_csv,
    serialize_csv,
)


def _read_dataset(path: str, interval_s: int, delta_max_kwh: str) -> FeederDataset:
    text = Path(path).read_text()
    return parse_csv(text, interval_s, EnergyQuantity.from_kwh_text(delta_max_kwh))


def _add_dataset_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--interval", type=int, default=3600,
                        help="interval length in seconds (default 3600)")
    parser.add_argument("--delta-max", default="5.0",
                        help="per-reading cap in kWh (default 5.0)")


def anonymize_main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="anonymize", description="Replace the meter_id column with keyed pseudonyms."
    )
    parser.add_argument("--epoch", type=int, required=True)
    parser.add_argument("--key-file", required=True, help="file holding 32 raw key bytes")
    parser.add_argument("infile")
    parser.add_argument("outfile")
    args = parser.parse_args(argv)

    secret = Path(args.key_file).read_bytes()
    key = PseudonymKey(secret=secret, epoch=args.epoch)
    lines = Path(args.infile).read_text().splitlines()
    out = []
    for i, line in enumerate(lines):
        if i == 0 or not line.strip():
            out.append(line)
            continue
        meter_id, rest = line.split(",", 1)
        out.append(f"{pseudonymize(meter_id.strip(), key)},{rest}")
    Path(args.outfile).write_text("\n".join(out) + "\n")
    return 0


def dp_query_main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="dp-query", description="Answer one query under differential privacy."
    )
    parser.add_argument("--op", required=True, choices=list(gw.DP_OPS))
    parser.add_argument("--epsilon", type=float, required=True)
    parser.add_argument("--delta", type=float, default=0.0)
    parser.add_argument("--ledger", required=True, help="append-only budget ledger file")
    parser.add_argument("--epsilon-cap", type=float, default=1.0)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--timestamp", default=None, help="ISO-8601 Z timestamp for sum")
    parser.add_argument("--edges", default=None, help="comma-separated kWh bin edges")
    _add_dataset_args(parser)
    parser.add_argument("infile")
    args = parser.parse_args(argv)

    dataset = _read_dataset(args.infile, args.interval, args.delta_max)
    ledger_path = Path(args.ledger)
    ledger = dp.BudgetLedger.from_lines(
        ledger_path.read_text() if ledger_path.exists() else "", args.epsilon_cap
    )
    rng = dp.seeded_rng(args.seed) if args.seed is not None else dp.default_rng()
    dp_op = gw.DP_OPS[args.op]
    try:
        params = dp.PrivacyParams(epsilon=args.epsilon, delta=args.delta)
        query = gw.DpQuery(
            op=args.op, epsilon=args.epsilon, delta=args.delta,
            timestamp=None if args.timestamp is None else iso_to_epoch(args.timestamp),
            edges=None if args.edges is None else tuple(float(e) for e in args.edges.split(",")),
        )
        summary = dp_op.summarize(dp_op.release(dataset, query, params, ledger, rng))
    except (dp.DpError, ValueError) as exc:
        print(f"error={type(exc).__name__} detail={exc}", file=sys.stderr)
        return 1
    lines = ([f"bin{i}={v!r}" for i, v in enumerate(summary)] if isinstance(summary, list)
             else [f"value={summary['value']!r}"])
    print("\n".join(lines))
    ledger_path.write_text(ledger.to_lines())
    return 0


def synth_gen_main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="synth-gen", description="Fit the generator on real data and emit synthetic CSV."
    )
    parser.add_argument("--fit", required=True, metavar="REAL_CSV")
    parser.add_argument("--clusters", type=int, required=True)
    parser.add_argument("--households", type=int, required=True)
    parser.add_argument("--days", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    _add_dataset_args(parser)
    args = parser.parse_args(argv)

    real = _read_dataset(args.fit, args.interval, args.delta_max)
    model = synthetic.fit(real, args.clusters, args.seed)
    synth = synthetic.generate(model, args.households, args.days, args.seed)
    Path(args.out).write_text(serialize_csv(synth))
    return 0


def synth_check_main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="synth-check", description="Fidelity and memorization reports, key=value lines."
    )
    parser.add_argument("real_csv")
    parser.add_argument("synth_csv")
    parser.add_argument("--threshold", type=float, required=True)
    _add_dataset_args(parser)
    args = parser.parse_args(argv)

    real = _read_dataset(args.real_csv, args.interval, args.delta_max)
    synth = _read_dataset(args.synth_csv, args.interval, args.delta_max)
    fid = synthetic.fidelity_report(real, synth)
    priv = synthetic.privacy_check(real, synth, args.threshold)
    for h, err in enumerate(fid.per_hour_mean_rel_err):
        print(f"hour{h:02d}_mean_rel_err={err!r}")
    print(f"hist_l1={fid.hist_l1!r}")
    print(f"peak_dist_rel_err={fid.peak_dist_rel_err!r}")
    print(f"min_nn_distance={priv.min_nn_distance!r}")
    print(f"memorization_flag={str(priv.memorization_flag).lower()}")
    print(f"distinguisher_auc={priv.distinguisher_auc!r}")
    return 0


def fed_train_main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fed-train", description="Federated training over round-robin meter shards."
    )
    parser.add_argument("--clients", type=int, required=True)
    parser.add_argument("--rounds", type=int, required=True)
    parser.add_argument("--local-steps", type=int, required=True)
    parser.add_argument("--lr", type=float, required=True)
    parser.add_argument("--clip", type=float, default=None)
    parser.add_argument("--dp-sigma", type=float, default=0.0)
    parser.add_argument("--secure-agg", action="store_true")
    parser.add_argument("--seed", type=int, required=True)
    _add_dataset_args(parser)
    parser.add_argument("infile")
    args = parser.parse_args(argv)

    dataset = _read_dataset(args.infile, args.interval, args.delta_max)
    shards = fedlearn.round_robin_shards(dataset, args.clients)
    cfg = fedlearn.RoundConfig(
        rounds=args.rounds,
        local_steps=args.local_steps,
        learning_rate=args.lr,
        clip_norm=args.clip,
        dp_sigma=args.dp_sigma,
    )
    result = fedlearn.run_federation(shards, cfg, seed=args.seed, secure_agg=args.secure_agg)
    print("round,mse")
    for m in result.history:
        print(f"{m.round_index},{m.mse!r}")
    return 0


def smpc_sum_main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="smpc-sum", description="n-party secure sum over party_id,kwh rows."
    )
    parser.add_argument("--min-participants", type=int, required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--transcript", default="transcript.csv")
    parser.add_argument("infile")
    args = parser.parse_args(argv)

    inputs = []
    for line in Path(args.infile).read_text().splitlines():
        if not line.strip():
            continue
        party_id, kwh = line.split(",")
        inputs.append(
            smpc.PartyInput(
                party_id=party_id.strip(),
                secret=EnergyQuantity.from_kwh_text(kwh).milli_kwh,
            )
        )
    rng = dp.seeded_rng(args.seed) if args.seed is not None else dp.default_rng()
    result = smpc.secure_sum(inputs, args.min_participants, rng)
    lines = [f"{m.sender},{m.recipient},{m.value}" for m in result.transcript.messages]
    Path(args.transcript).write_text("\n".join(lines) + ("\n" if lines else ""))
    if result.aborted:
        print(f"abort={result.transcript.abort_reason}")
        return 1
    print(f"sum_kwh={EnergyQuantity(result.total).to_kwh_text()}")
    return 0


def he_keygen_main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="he-keygen", description="Generate a Paillier keypair.")
    parser.add_argument("--bits", type=int, default=2048)
    parser.add_argument("--out", required=True, help="public key JSON path")
    parser.add_argument("--secret-out", default=None,
                        help="secret key path (default: OUT + '.secret')")
    args = parser.parse_args(argv)

    keypair = he.keygen(args.bits)
    pub_path = Path(args.out)
    secret_path = Path(args.secret_out or args.out + ".secret")
    pub_path.write_text(json.dumps(
        {"n": str(keypair.public.n), "g": str(keypair.public.g),
         "key_id": keypair.public.key_id}, indent=2))
    secret_path.write_text(json.dumps(
        {"n": str(keypair.public.n), "lambda": str(keypair.lam),
         "mu": str(keypair.mu), "key_id": keypair.public.key_id}, indent=2))
    os.chmod(secret_path, 0o600)
    return 0


def _load_public(path: str) -> he.PaillierPublicKey:
    data = json.loads(Path(path).read_text())
    return he.PaillierPublicKey(n=int(data["n"]), g=int(data["g"]), key_id=data["key_id"])


def he_bill_main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="he-bill", description="Compute an encrypted bill from usage and rates."
    )
    parser.add_argument("--pub", required=True)
    parser.add_argument("--rates", required=True, help="CSV of per-interval integer rates")
    parser.add_argument("usage_csv", help="CSV of per-interval kWh decimals")
    args = parser.parse_args(argv)

    pub = _load_public(args.pub)
    rates = he.RateSchedule(tuple(
        int(line) for line in Path(args.rates).read_text().split() if line.strip()
    ))
    usage_milli = [
        EnergyQuantity.from_kwh_text(line).milli_kwh
        for line in Path(args.usage_csv).read_text().split() if line.strip()
    ]
    rng = dp.default_rng()
    cts = [he.encrypt(pub, m, he.draw_randomizer(pub, rng)) for m in usage_milli]
    bill = he.encrypted_bill(cts, rates, pub)
    print(format(bill.value, "x"))
    return 0


def he_decrypt_main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="he-decrypt", description="Decrypt a ciphertext.")
    parser.add_argument("--key", required=True, help="secret key JSON path")
    parser.add_argument("ct_hex", help="hex ciphertext, or a path to a file holding it")
    args = parser.parse_args(argv)

    data = json.loads(Path(args.key).read_text())
    text = args.ct_hex
    if Path(text).exists():
        text = Path(text).read_text().strip()
    try:
        keypair = he.keypair_from_secret(
            int(data["n"]), int(data["lambda"]), int(data["mu"]), data["key_id"]
        )
        ct = he.Ciphertext(value=int(text, 16), key_id=data["key_id"])
    except (he.HeError, KeyError, ValueError) as exc:
        print(f"error={type(exc).__name__} detail={exc}", file=sys.stderr)
        return 1
    print(he.decrypt(keypair, ct))
    return 0


def _parse_policy_file(path: str) -> dict:
    """Minimal `key = value` config parser (toml-like, flat)."""
    values: dict[str, object] = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip().strip('"')
        if value.lower() in ("true", "false"):
            values[key] = value.lower() == "true"
        else:
            try:
                values[key] = int(value)
            except ValueError:
                try:
                    values[key] = float(value)
                except ValueError:
                    values[key] = value
    return values


def envelope_from_json(line: str) -> gw.RequestEnvelope:
    data = json.loads(line)
    if not all(isinstance(data[key], str) for key in ("request_id", "requester")):
        raise TypeError("request_id and requester must be strings")
    op = data["operation"]
    kind = gw.KINDS.get(op["kind"])
    if kind is None:
        raise ValueError(f"unknown operation kind {op['kind']!r}")
    return gw.RequestEnvelope(
        request_id=data["request_id"],
        requester=data["requester"],
        purpose=gw.Purpose(data["purpose"]),
        consent=bool(data["consent"]),
        operation=kind.parse(op),
    )


def decision_to_json(req: gw.RequestEnvelope, decision: gw.Decision) -> str:
    result = decision.result
    if result is not None:
        result = gw.OPERATIONS[type(req.operation)].summarize(req.operation, result)
    return json.dumps({
        "request_id": req.request_id,
        "allowed": decision.allowed,
        "reason": decision.reason.value if decision.reason else None,
        "result": result,
    })


def _request_id(line: str) -> object:
    """The request_id of a line that failed, or None if it has none."""
    try:
        return json.loads(line).get("request_id")
    except (ValueError, AttributeError):
        return None


def audit_record_to_dict(rec: gw.AuditRecord) -> dict:
    return {
        "seq": rec.seq, "request_id": rec.request_id, "requester": rec.requester,
        "decision": rec.decision, "mechanism": rec.mechanism,
        "epsilon_spent": rec.epsilon_spent, "timestamp": rec.timestamp,
        "prev_hash": rec.prev_hash.hex(), "hash": rec.hash.hex(),
    }


def audit_record_from_dict(data: dict) -> gw.AuditRecord:
    return gw.AuditRecord(
        seq=data["seq"], request_id=data["request_id"], requester=data["requester"],
        decision=data["decision"], mechanism=data["mechanism"],
        epsilon_spent=data["epsilon_spent"], timestamp=data["timestamp"],
        prev_hash=bytes.fromhex(data["prev_hash"]), hash=bytes.fromhex(data["hash"]),
    )


def gateway_main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="gateway", description="Policy-and-audit gateway.")
    sub = parser.add_subparsers(dest="command", required=True)
    serve = sub.add_parser("serve", help="line-delimited JSON request protocol on stdio")
    serve.add_argument("--policy", required=True, help="key = value policy config")
    serve.add_argument("--data", required=True, help="directory containing readings.csv")
    serve.add_argument("--audit-log", default=None, help="persist audit records here")
    serve.add_argument("--seed", type=int, default=None)
    args = parser.parse_args(argv)

    config = _parse_policy_file(args.policy)
    dataset = _read_dataset(
        str(Path(args.data) / "readings.csv"),
        int(config.get("interval_s", 3600)),
        str(config.get("delta_max_kwh", "5.0")),
    )
    policy = gw.PolicyConfig(
        epsilon_cap=float(config.get("epsilon_cap", 1.0)),
        min_aggregation_count=int(config.get("min_aggregation_count", 100)),
        k_anonymity_k=int(config.get("k", 5)),
        allow_raw_primary=bool(config.get("allow_raw_primary", True)),
        memorization_threshold=float(config.get("memorization_threshold", 0.01)),
    )
    ledger = dp.BudgetLedger(epsilon_cap=policy.epsilon_cap)

    # One line-buffered handle per session: each record reaches the file
    # before its reply is printed.
    log_file = open(args.audit_log, "a", buffering=1) if args.audit_log else None
    writer = None
    if log_file is not None:
        def writer(rec: gw.AuditRecord) -> None:
            log_file.write(json.dumps(audit_record_to_dict(rec)) + "\n")

    audit_log = gw.AuditLog(writer=writer)
    rng = dp.seeded_rng(args.seed) if args.seed is not None else dp.default_rng()
    engine = gw.Gateway(dataset, policy, ledger, audit_log, rng=rng)

    try:
        for line in sys.stdin:
            if not line.strip():
                continue
            try:
                req = envelope_from_json(line)
                reply = decision_to_json(req, engine.route(req))
            except Exception as exc:  # a bad line gets an error reply, not a dead server
                import traceback  # imported here: at the top it adds ~7 ms to every start
                traceback.print_exc()
                reply = json.dumps({"request_id": _request_id(line),
                                    "error": f"{type(exc).__name__}: {exc}"})
            print(reply, flush=True)
    finally:
        if log_file is not None:
            log_file.close()
    return 0


def audit_show_main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="audit-show", description="Inspect an audit log.")
    parser.add_argument("--log", required=True)
    parser.add_argument("--verify", action="store_true")
    args = parser.parse_args(argv)

    records = [
        audit_record_from_dict(json.loads(line))
        for line in Path(args.log).read_text().splitlines()
        if line.strip()
    ]
    for rec in records:
        print(f"{rec.seq},{rec.request_id},{rec.requester},{rec.decision},"
              f"{rec.mechanism},{rec.epsilon_spent},{rec.hash.hex()[:16]}")
    if args.verify:
        report = gw.verify_chain(records)
        if report.valid:
            print("chain=valid")
        else:
            print(f"chain=invalid first_bad_seq={report.first_bad_seq}")
            return 1
    return 0
