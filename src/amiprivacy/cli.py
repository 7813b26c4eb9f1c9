"""Command-line entry points.

Each console script maps to one subsystem: `anonymize`, `dp-query`,
`synth-gen`, `synth-check`, `fed-train`, `smpc-sum`, `he-keygen`,
`he-bill`, `he-decrypt`, `gateway serve`, and `audit-show`. The gateway
speaks a line-delimited JSON protocol on stdin/stdout so end-to-end runs
need no network stack. Its replies (`decision_to_json`) are written directly, as
the bytes of `json.dumps`. This module opens files and parses arguments only.
"""

from __future__ import annotations

import argparse
import fcntl
import functools
import json
import math
import os
import sys
from json.encoder import encode_basestring_ascii as _json_str
from pathlib import Path
from typing import TYPE_CHECKING

from .audit import csv_rows, read_log, verify_chain

if TYPE_CHECKING:  # annotations only; each command imports what it runs
    from . import gateway as gw
    from .meterdata import FeederDataset

# The package, whose subsystems import on first attribute access. The per-request
# helpers read `gateway` through it: serve runs no import statement per request.
_package = sys.modules[__package__]

# What bad input files and arguments raise, besides any error class this package
# defines: one error= line and exit 1, no traceback.
_INPUT_ERRORS = (OSError, ValueError, TypeError, KeyError)


def _console_script(main):
    """Wrap an entry point: an input error prints `error=<Type> detail=...` and exits 1."""
    @functools.wraps(main)
    def run(argv=None) -> int:
        try:
            return main(argv)
        except Exception as exc:
            if not (isinstance(exc, _INPUT_ERRORS)
                    or f"{type(exc).__module__}.".startswith(f"{__package__}.")):
                raise  # a fault of the program keeps its traceback
            print(f"error={type(exc).__name__} detail={exc}", file=sys.stderr)
            return 1
    return run


def _read_dataset(path: str, interval_s: int, delta_max_kwh: str) -> FeederDataset:
    from .meterdata import EnergyQuantity, parse_csv
    text = Path(path).read_text(encoding="utf-8")
    return parse_csv(text, interval_s, EnergyQuantity.from_kwh_text(delta_max_kwh))


def _add_dataset_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--interval", type=int, default=3600,
                        help="interval length in seconds (default 3600)")
    parser.add_argument("--delta-max", default="5.0",
                        help="per-reading cap in kWh (default 5.0)")


@_console_script
def anonymize_main(argv=None) -> int:
    from .anonymize import PseudonymKey, pseudonymize
    from .meterdata import MalformedRow, _HEADER, _check_header
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
    lines = Path(args.infile).read_text(encoding="utf-8").splitlines()
    _check_header(lines[0] if lines else _HEADER)  # parse_csv's rule: an empty file has no rows
    out = lines[:1]
    for lineno, line in enumerate(lines[1:], start=2):
        meter_id, comma, rest = line.partition(",")
        if line.strip() and not comma:
            raise MalformedRow(lineno, "no comma after the meter_id")
        out.append(f"{pseudonymize(meter_id.strip(), key)},{rest}" if comma else line)
    Path(args.outfile).write_text("".join(f"{line}\n" for line in out), encoding="utf-8")
    return 0


@_console_script
def dp_query_main(argv=None) -> int:
    from . import dp
    from .meterdata import iso_to_epoch
    parser = argparse.ArgumentParser(
        prog="dp-query", description="Answer one query under differential privacy."
    )
    parser.add_argument("--op", required=True, choices=dp.OPS)
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

    ledger_path = Path(args.ledger)
    rng = dp.seeded_rng(args.seed) if args.seed is not None else dp.default_rng()
    dataset = _read_dataset(args.infile, args.interval, args.delta_max)
    timestamp = None if args.timestamp is None else iso_to_epoch(args.timestamp)
    edges = None if args.edges is None else tuple(float(e) for e in args.edges.split(","))
    # One run at a time from the read to the replace, so concurrent runs cannot both
    # pass the cap; the ledger is replaced whole, so a crash leaves the old one.
    with open(f"{ledger_path}.lock", "a") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        ledger = dp.BudgetLedger.from_lines(
            ledger_path.read_text() if ledger_path.exists() else "", args.epsilon_cap
        )
        answer = dp.release(dataset, args.op, args.epsilon, args.delta, ledger, rng,
                            timestamp, edges)
        # The spend is recorded before the answer leaves: a failed write releases nothing.
        tmp = f"{ledger_path}.tmp"
        with open(tmp, "w") as fh:
            fh.write(ledger.to_lines())
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, ledger_path)
    lines = ([f"bin{i}={a.value!r}" for i, a in enumerate(answer)] if isinstance(answer, list)
             else [f"value={answer.value!r}"])
    print("\n".join(lines))
    return 0


@_console_script
def synth_gen_main(argv=None) -> int:
    from . import synthetic
    from .meterdata import serialize_csv
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
    Path(args.out).write_text(serialize_csv(synth), encoding="utf-8")
    return 0


@_console_script
def synth_check_main(argv=None) -> int:
    from . import synthetic
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


@_console_script
def fed_train_main(argv=None) -> int:
    from . import fedlearn
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
    if all(math.isnan(m.mse) for m in result.history):
        raise fedlearn.FedLearnError("no meter is held out, so no round has an MSE: a client "
                                     "holds one out only when it holds two or more meters")
    print("round,mse")
    for m in result.history:
        print(f"{m.round_index},{m.mse!r}")
    return 0


@_console_script
def smpc_sum_main(argv=None) -> int:
    from . import dp, smpc
    from .meterdata import EnergyQuantity, MalformedRow
    parser = argparse.ArgumentParser(
        prog="smpc-sum", description="n-party secure sum over party_id,kwh rows."
    )
    parser.add_argument("--min-participants", type=int, required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--transcript", default="transcript.csv")
    parser.add_argument("infile")
    args = parser.parse_args(argv)

    rng = dp.seeded_rng(args.seed) if args.seed is not None else dp.default_rng()
    inputs = []
    text = Path(args.infile).read_text(encoding="utf-8")
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        row = line.split(",")
        if len(row) != 2:
            raise MalformedRow(lineno, f"expected party_id,kwh, got {len(row)} fields")
        party_id, kwh = row
        try:
            secret = EnergyQuantity.from_kwh_text(kwh).milli_kwh
            inputs.append(smpc.PartyInput(party_id=party_id.strip(), secret=secret))
        except ValueError as exc:  # not a kWh decimal, or negative
            raise MalformedRow(lineno, str(exc)) from None
    result = smpc.secure_sum(inputs, args.min_participants, rng)
    lines = [f"{m.sender},{m.recipient},{m.value}" for m in result.transcript.messages]
    Path(args.transcript).write_text("\n".join(lines) + ("\n" if lines else ""),
                                     encoding="utf-8")
    if result.aborted:
        print(f"abort={result.transcript.abort_reason}")
        return 1
    print(f"sum_kwh={EnergyQuantity(result.total).to_kwh_text()}")
    return 0


@_console_script
def he_keygen_main(argv=None) -> int:
    from . import he
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
    # Owner-only before the first secret byte lands, also for a file that exists.
    fd = os.open(secret_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o600)
    os.fchmod(fd, 0o600)
    with os.fdopen(fd, "w") as fh:
        fh.write(json.dumps(
            {"n": str(keypair.public.n), "lambda": str(keypair.lam),
             "mu": str(keypair.mu), "key_id": keypair.public.key_id}, indent=2))
    return 0


@_console_script
def he_bill_main(argv=None) -> int:
    from . import dp, he
    from .meterdata import EnergyQuantity, MalformedRow
    parser = argparse.ArgumentParser(
        prog="he-bill", description="Compute an encrypted bill from usage and rates."
    )
    parser.add_argument("--pub", required=True)
    parser.add_argument("--rates", required=True,
                        help="file of per-interval integer rates, one per line")
    parser.add_argument("usage_csv", help="file of per-interval kWh decimals, one per line")
    args = parser.parse_args(argv)

    def values(path: str, parse) -> list:  # one per non-blank line; a bad one is MalformedRow
        parsed = []
        for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
            if line.strip():
                try:
                    parsed.append(parse(line))
                except ValueError as exc:
                    raise MalformedRow(lineno, str(exc)) from None
        return parsed

    def rate(line: str) -> int:  # int() alone would take "١٠" and "2_0"
        if not (line.strip().isascii() and line.strip().isdigit()):
            raise ValueError(f"not a rate of ASCII digits: {line!r}")
        return int(line)

    data = json.loads(Path(args.pub).read_text())
    pub = he.PaillierPublicKey(n=int(data["n"]), g=int(data["g"]), key_id=data["key_id"])
    rates = he.RateSchedule(tuple(values(args.rates, rate)))
    usage_milli = [q.milli_kwh for q in values(args.usage_csv, EnergyQuantity.from_kwh_text)]
    print(format(he.bill(pub, usage_milli, rates, dp.default_rng()).value, "x"))
    return 0


@_console_script
def he_decrypt_main(argv=None) -> int:
    from . import he
    parser = argparse.ArgumentParser(prog="he-decrypt", description="Decrypt a ciphertext.")
    parser.add_argument("--key", required=True, help="secret key JSON path")
    parser.add_argument("ct_hex", help="hex ciphertext, or a path to a file holding it")
    args = parser.parse_args(argv)

    data = json.loads(Path(args.key).read_text())
    text = args.ct_hex
    if Path(text).exists():
        text = Path(text).read_text().strip()
    keypair = he.keypair_from_secret(
        int(data["n"]), int(data["lambda"]), int(data["mu"]), data["key_id"]
    )
    ct = he.Ciphertext(value=int(text, 16), key_id=data["key_id"])
    print(he.decrypt(keypair, ct))
    return 0


def _parse_policy_file(path: str) -> dict:
    """Minimal `key = value` config parser (toml-like, flat); a repeated key is refused."""
    values: dict[str, object] = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip().strip('"')
        if key in values:
            raise ValueError(f"policy key {key!r} repeated at line {lineno}")
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
    gw = _package.gateway
    data = json.loads(line)
    request_id = gw._field(data["request_id"], str, "request_id")
    requester = gw._field(data["requester"], str, "requester")
    consent = gw._field(data["consent"], bool, "consent")  # "false" would count as consent
    purpose = data["purpose"]
    # Found by value; anything else goes on to raise Purpose's own ValueError.
    purpose = (type(purpose) is str and gw.Purpose._value2member_map_.get(purpose)
               or gw.Purpose(purpose))
    op = data["operation"]
    kind = gw.KINDS.get(op["kind"])
    if kind is None:
        raise ValueError(f"unknown operation kind {op['kind']!r}")
    return gw.RequestEnvelope(request_id, requester, purpose, consent, kind.parse(op))


def decision_to_json(req: gw.RequestEnvelope, decision: gw.Decision,
                     dataset: FeederDataset) -> list[bytes]:
    """The reply line as bytes pieces, to be written in order.

    The line is json.dumps of {"request_id", "allowed", "reason", "result"}
    plus a newline, written directly: one head, then the result's JSON. An
    allowed raw export's result is `dataset`'s CSV, whose JSON encoding the
    dataset keeps: the reply carries that memo as a piece of its own.
    """
    gw = _package.gateway
    reason = "null" if decision.reason is None else _json_str(decision.reason.value)
    head = (f'{{"request_id": {_json_str(req.request_id)}, '
            f'"allowed": {"true" if decision.allowed else "false"}, '
            f'"reason": {reason}, "result": ')
    if decision.allowed and isinstance(req.operation, gw.RawExport):
        return [head.encode(), _package.meterdata.serialize_csv_json(dataset), b"}\n"]
    result = decision.result
    body = "null" if result is None else json.dumps(
        gw.OPERATIONS[type(req.operation)].summarize(result))
    return [f"{head}{body}}}\n".encode()]


def _request_id(line: str) -> object:
    """The request_id of a line that failed, or None if it has none."""
    try:
        return json.loads(line).get("request_id")
    except (ValueError, AttributeError):
        return None


@_console_script
def gateway_main(argv=None) -> int:
    from . import dp, gateway as gw  # gateway imports every subsystem before the first reply
    parser = argparse.ArgumentParser(prog="gateway", description="Policy-and-audit gateway.")
    sub = parser.add_subparsers(dest="command", required=True)
    serve = sub.add_parser("serve", help="line-delimited JSON request protocol on stdio")
    serve.add_argument("--policy", required=True, help="key = value policy config")
    serve.add_argument("--data", required=True, help="directory containing readings.csv")
    serve.add_argument("--audit-log", default=None, help="persist audit records here")
    serve.add_argument("--seed", type=int, default=None)
    args = parser.parse_args(argv)

    config = _parse_policy_file(args.policy)
    # 3600.5 or true is refused, not truncated to 3600 or read as 1.
    interval_s = gw._field(config.pop("interval_s", 3600), int, "interval_s")
    delta_max = config.pop("delta_max_kwh", 5.0)
    # The other keys are PolicyConfig's fields, k standing for k_anonymity_k;
    # an unknown key or a value of the wrong type raises TypeError.
    k = {"k_anonymity_k": config.pop("k")} if "k" in config else {}
    policy = gw.PolicyConfig(**config, **k)
    dataset = _read_dataset(str(Path(args.data) / "readings.csv"), interval_s, str(delta_max))
    ledger = dp.BudgetLedger(epsilon_cap=policy.epsilon_cap)
    rng = dp.seeded_rng(args.seed) if args.seed is not None else dp.default_rng()

    out = sys.stdout.buffer
    # The loop decodes outside the per-line try, so a strict decoder would end
    # the session on one bad byte; escaped, it fails that line's envelope check.
    if hasattr(sys.stdin, "reconfigure"):
        sys.stdin.reconfigure(encoding="utf-8", errors="surrogateescape")
    # One line-buffered sink per session (devnull without --audit-log): record, then reply.
    with open(args.audit_log or os.devnull, "a", buffering=1) as log_file:
        engine = gw.Gateway(dataset, policy, ledger, gw.AuditLog(log_file.write), rng=rng)
        for line in sys.stdin:
            if not line.strip():
                continue
            try:
                req = envelope_from_json(line)
                reply = decision_to_json(req, engine.route(req), dataset)
            except Exception as exc:  # a bad line gets an error reply, not a dead server
                request_id = _request_id(line)
                print(f"error={type(exc).__name__} request_id={json.dumps(request_id)} "
                      f"detail={exc}", file=sys.stderr)
                reply = [(json.dumps({"request_id": request_id,
                                      "error": f"{type(exc).__name__}: {exc}"}) + "\n").encode()]
            out.writelines(reply)
            out.flush()
    return 0


@_console_script
def audit_show_main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="audit-show", description="Inspect an audit log.")
    parser.add_argument("--log", required=True)
    parser.add_argument("--verify", action="store_true")
    args = parser.parse_args(argv)

    rows = read_log(Path(args.log).read_text(encoding="utf-8"))
    # UTF-8 whatever the locale's encoding, as serve reads stdin; text UTF-8
    # cannot encode (a lone surrogate, which fails the verify) prints escaped.
    if hasattr(sys.stdout, "reconfigure"):
        sys.stdout.reconfigure(encoding="utf-8", errors="backslashreplace")
    sys.stdout.write(csv_rows(rows))
    if args.verify:
        report = verify_chain(rows)
        if report.valid:
            print("chain=valid")
        else:
            print(f"chain=invalid first_bad_seq={report.first_bad_seq}")
            return 1
    return 0
