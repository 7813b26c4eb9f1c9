import io
import json
import random
from pathlib import Path

import pytest

from amiprivacy import cli, he
from amiprivacy.gateway import verify_chain
from amiprivacy.meterdata import EnergyQuantity, parse_csv, serialize_csv
from conftest import make_uniform_dataset, make_two_cluster_dataset

CAP = EnergyQuantity(5000)


@pytest.fixture
def readings_csv(tmp_path):
    path = tmp_path / "readings.csv"
    path.write_text(serialize_csv(make_uniform_dataset(6, 1500, 24)))
    return path


def test_anonymize_replaces_meter_ids(tmp_path, readings_csv):
    key_file = tmp_path / "key.bin"
    key_file.write_bytes(bytes(32))
    out = tmp_path / "anon.csv"
    rc = cli.anonymize_main(
        ["--epoch", "2", "--key-file", str(key_file), str(readings_csv), str(out)]
    )
    assert rc == 0
    d = parse_csv(out.read_text(), 3600, CAP)
    assert len(d.series) == 6
    for s in d.series:
        assert len(s.meter_id) == 32
        int(s.meter_id, 16)
    # Same key and epoch reproduce the same pseudonyms.
    out2 = tmp_path / "anon2.csv"
    cli.anonymize_main(
        ["--epoch", "2", "--key-file", str(key_file), str(readings_csv), str(out2)]
    )
    assert out.read_text() == out2.read_text()


def test_dp_query_sum_appends_ledger(tmp_path, readings_csv, capsys):
    ledger = tmp_path / "ledger.csv"
    args = [
        "--op", "sum", "--epsilon", "0.5", "--ledger", str(ledger),
        "--seed", "7", "--timestamp", "1970-01-01T00:00:00Z", str(readings_csv),
    ]
    assert cli.dp_query_main(args) == 0
    line = capsys.readouterr().out.strip()
    assert line.startswith("value=")
    assert abs(float(line.split("=")[1]) - 9.0) < 60.0
    assert len(ledger.read_text().splitlines()) == 1

    assert cli.dp_query_main(args) == 0
    assert len(ledger.read_text().splitlines()) == 2

    # Third query of 0.5 would exceed the default cap of 1.0.
    assert cli.dp_query_main(args) == 1
    assert len(ledger.read_text().splitlines()) == 2


def test_synth_gen_and_check(tmp_path, capsys):
    real = tmp_path / "real.csv"
    real.write_text(serialize_csv(make_two_cluster_dataset(20, 2, seed=3)))
    out = tmp_path / "synth.csv"
    rc = cli.synth_gen_main([
        "--fit", str(real), "--clusters", "2", "--households", "15",
        "--days", "2", "--seed", "5", "--out", str(out),
    ])
    assert rc == 0
    synth = parse_csv(out.read_text(), 3600, CAP)
    assert len(synth.series) == 15

    rc = cli.synth_check_main([str(real), str(out), "--threshold", "0.001"])
    assert rc == 0
    lines = dict(
        line.split("=", 1) for line in capsys.readouterr().out.strip().splitlines()
    )
    assert lines["memorization_flag"] == "false"
    assert 0.0 <= float(lines["distinguisher_auc"]) <= 1.0
    assert float(lines["hist_l1"]) < 2.0


def test_fed_train_emits_history(tmp_path, capsys):
    data = tmp_path / "data.csv"
    data.write_text(serialize_csv(make_uniform_dataset(4, 1500, 200, interval_s=900)))
    rc = cli.fed_train_main([
        "--clients", "2", "--rounds", "3", "--local-steps", "1", "--lr", "0.01",
        "--seed", "1", "--interval", "900", str(data),
    ])
    assert rc == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0] == "round,mse"
    assert len(out) == 4


def test_smpc_sum_cli(tmp_path, capsys):
    inputs = tmp_path / "inputs.csv"
    inputs.write_text("alice,3.000\nbob,5.000\ncarol,9.000\n")
    transcript = tmp_path / "transcript.csv"
    rc = cli.smpc_sum_main([
        "--min-participants", "3", "--seed", "4",
        "--transcript", str(transcript), str(inputs),
    ])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "sum_kwh=17.000"
    rows = transcript.read_text().strip().splitlines()
    assert len(rows) == 9 + 6
    assert all(len(r.split(",")) == 3 for r in rows)


def test_smpc_sum_abort(tmp_path, capsys):
    inputs = tmp_path / "inputs.csv"
    inputs.write_text("alice,3.000\nbob,5.000\n")
    transcript = tmp_path / "t.csv"
    rc = cli.smpc_sum_main([
        "--min-participants", "3", "--transcript", str(transcript), str(inputs),
    ])
    assert rc == 1
    assert "not enough participants" in capsys.readouterr().out
    assert transcript.read_text() == ""


def test_he_pipeline(tmp_path, capsys):
    pub = tmp_path / "keypair.json"
    assert cli.he_keygen_main(["--bits", "128", "--out", str(pub)]) == 0
    secret = tmp_path / "keypair.json.secret"
    assert secret.exists()
    assert (secret.stat().st_mode & 0o777) == 0o600

    rates = tmp_path / "rates.csv"
    rates.write_text("10\n20\n")
    usage = tmp_path / "usage.csv"
    usage.write_text("0.002\n0.003\n")
    assert cli.he_bill_main(["--pub", str(pub), "--rates", str(rates), str(usage)]) == 0
    ct_hex = capsys.readouterr().out.strip()

    assert cli.he_decrypt_main(["--key", str(secret), ct_hex]) == 0
    assert capsys.readouterr().out.strip() == "80"


def test_gateway_serve_and_audit_show(tmp_path, readings_csv, capsys, monkeypatch):
    data_dir = tmp_path / "data"
    data_dir.mkdir()
    (data_dir / "readings.csv").write_text(readings_csv.read_text())
    policy = tmp_path / "policy.conf"
    policy.write_text(
        "epsilon_cap = 2.0\n"
        "min_aggregation_count = 3\n"
        "k = 2\n"
        "allow_raw_primary = true\n"
        "memorization_threshold = 0.01\n"
        "interval_s = 3600\n"
        "delta_max_kwh = 5.0\n"
    )
    audit_path = tmp_path / "audit.jsonl"

    requests = [
        {"request_id": "q1", "requester": "ops", "purpose": "primary",
         "consent": False, "operation": {"kind": "raw_export"}},
        {"request_id": "q2", "requester": "vendor", "purpose": "secondary",
         "consent": False, "operation": {"kind": "raw_export"}},
        {"request_id": "q3", "requester": "researcher", "purpose": "secondary",
         "consent": False,
         "operation": {"kind": "dp_query", "op": "count", "epsilon": 0.5}},
        {"request_id": "q4", "requester": "parties", "purpose": "secondary",
         "consent": False,
         "operation": {"kind": "smpc_sum", "values": [["a", 1000], ["b", 2000]],
                       "min_participants": 2}},
    ]
    monkeypatch.setattr(
        "sys.stdin", io.StringIO("\n".join(json.dumps(r) for r in requests) + "\n")
    )
    rc = cli.gateway_main([
        "serve", "--policy", str(policy), "--data", str(data_dir),
        "--audit-log", str(audit_path), "--seed", "3",
    ])
    assert rc == 0
    decisions = [json.loads(line) for line in capsys.readouterr().out.strip().splitlines()]
    by_id = {d["request_id"]: d for d in decisions}
    assert by_id["q1"]["allowed"] is True
    assert by_id["q2"]["allowed"] is False
    assert by_id["q2"]["reason"] == "ConsentRequired"
    assert by_id["q3"]["allowed"] is True
    assert by_id["q4"]["result"]["total_milli"] == 3000

    rc = cli.audit_show_main(["--log", str(audit_path), "--verify"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "chain=valid" in out
    assert out.count("\n") == len(requests) + 1

    # Round-trip the persisted records through verify_chain directly too.
    records = [
        cli.audit_record_from_dict(json.loads(line))
        for line in audit_path.read_text().splitlines()
    ]
    assert verify_chain(records).valid


def test_policy_parser_types(tmp_path):
    conf = tmp_path / "p.conf"
    conf.write_text("a = 1\nb = 2.5\nc = true\nd = hello  # comment\n\n# full comment\n")
    values = cli._parse_policy_file(str(conf))
    assert values == {"a": 1, "b": 2.5, "c": True, "d": "hello"}


def test_dp_query_reports_any_dp_error_before_charging(tmp_path, readings_csv, capsys):
    ledger = tmp_path / "ledger.csv"
    rc = cli.dp_query_main([
        "--op", "count", "--epsilon", "0.5", "--delta", "1e-6", "--ledger", str(ledger),
        "--seed", "7", str(readings_csv),
    ])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error=DeltaNotZero detail=")
    assert not ledger.exists()


def test_dp_query_histogram_prints_one_line_per_bin(tmp_path, readings_csv, capsys):
    ledger = tmp_path / "ledger.csv"
    rc = cli.dp_query_main([
        "--op", "histogram", "--epsilon", "0.5", "--edges", "0,1,2", "--ledger", str(ledger),
        "--seed", "7", str(readings_csv),
    ])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split("=")[0] for line in lines] == ["bin0", "bin1"]
    assert abs(float(lines[1].split("=")[1]) - 6 * 24) < 100.0  # every reading is 1.5 kWh
    assert len(ledger.read_text().splitlines()) == 1


def _serve(tmp_path, monkeypatch, policy_text, csv_text, lines, seed="1"):
    """Pipe request lines through `gateway serve`; return the audit log path."""
    data_dir = tmp_path / "data"
    data_dir.mkdir(exist_ok=True)
    (data_dir / "readings.csv").write_text(csv_text)
    policy = tmp_path / "policy.conf"
    policy.write_text(policy_text)
    audit_path = tmp_path / "audit.jsonl"
    audit_path.unlink(missing_ok=True)
    monkeypatch.setattr("sys.stdin", io.StringIO("".join(line + "\n" for line in lines)))
    rc = cli.gateway_main([
        "serve", "--policy", str(policy), "--data", str(data_dir),
        "--audit-log", str(audit_path), "--seed", seed,
    ])
    assert rc == 0
    return audit_path


def test_gateway_serve_answers_bad_lines_and_keeps_serving(
    tmp_path, readings_csv, capsys, monkeypatch
):
    def request(rid, operation, purpose="primary"):
        return json.dumps({"request_id": rid, "requester": "ops", "purpose": purpose,
                           "consent": False, "operation": operation})

    lines = [
        '{"request_id": "b1", "requester": ',  # malformed JSON
        request("b2", {"kind": "teleport"}),  # unknown kind
        request("b3", {"kind": "dp_query", "op": "histogram", "epsilon": 0.5, "edges": [1, 0]}),
        request("b3", {"kind": "raw_export"}),  # duplicate request_id
        request("b4", {"kind": "dp_query", "op": "count"}),  # missing field
        "[1, 2]",  # not a request object
        request(6, {"kind": "dp_query", "op": "count", "epsilon": 1.5}),  # id not a string
        request("b6", {"kind": "dp_query", "op": "count", "epsilon": 1.5}),  # fits the cap
        request("b5", {"kind": "raw_export"}),
    ]
    audit_path = _serve(tmp_path, monkeypatch, "epsilon_cap = 2.0\n",
                        readings_csv.read_text(), lines)
    replies = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert len(replies) == len(lines)
    assert [r["request_id"] for r in replies] == [
        None, "b2", "b3", "b3", "b4", None, 6, "b6", "b5"]
    errors = [r["error"].split(":")[0] for r in replies[:-2]]
    assert errors == ["JSONDecodeError", "ValueError", "RequestFailed", "DuplicateRequest",
                      "KeyError", "TypeError", "TypeError"]
    assert replies[2]["error"].startswith("RequestFailed: ValueError: edges must be")
    assert replies[-2]["allowed"] is True and replies[-1]["allowed"] is True

    # Only the routed lines (b3 once, b6, b5) are audited; b3 and request 6 charged nothing.
    records = [json.loads(line) for line in audit_path.read_text().splitlines()]
    assert [(r["request_id"], r["decision"], r["epsilon_spent"]) for r in records] == [
        ("b3", "error:ValueError", 0.0), ("b6", "allowed", 1.5), ("b5", "allowed", 0.0)]
    assert cli.audit_show_main(["--log", str(audit_path), "--verify"]) == 0
    assert capsys.readouterr().out.endswith("chain=valid\n")


def test_protocol_parity_with_benchmark_workloads(tmp_path, capsys, monkeypatch):
    """All kinds and DP ops of the benchmark workloads, served and checked as it checks them."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import selftest
    import workloads

    kinds = set()
    for name in workloads.WORKLOADS:
        wl = workloads.build(name, seed=1, size=selftest.TINY[name])
        reqs = wl.warmup + wl.timed
        audit_path = _serve(tmp_path, monkeypatch, wl.policy_text, wl.csv_text,
                            [r.line.decode().rstrip("\n") for r in reqs])
        replies = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert len(replies) == len(reqs)
        failures = [(req.request_id, why) for req, reply in zip(reqs, replies)
                    if (why := workloads.check_reply(req, reply)) is not None]
        assert failures == [], name
        records = [cli.audit_record_from_dict(json.loads(line))
                   for line in audit_path.read_text().splitlines()]
        assert [r.request_id for r in records] == [r.request_id for r in reqs]
        assert verify_chain(records).valid
        kinds |= {r.kind for r in reqs}
    assert kinds == {"raw_export", "dp_sum", "dp_count", "dp_mean", "dp_histogram",
                     "aggregate_report", "he_bill", "smpc_sum", "fed_train", "synth_generate"}


def _secret_file(path, keypair, **overrides):
    """A secret key file in the stored {n, lambda, mu, key_id} format."""
    n = keypair.public.n
    mu = pow((pow(n + 1, keypair.lam, n * n) - 1) // n, -1, n)  # as stored before the CRT
    data = {"n": str(n), "lambda": str(keypair.lam), "mu": str(mu),
            "key_id": keypair.public.key_id}
    data.update(overrides)
    path.write_text(json.dumps(data, indent=2))
    return path


def test_he_decrypt_reads_a_stored_secret_file(tmp_path, capsys):
    keypair = he.keygen(128, random.Random(41))
    pub = keypair.public
    secret = _secret_file(tmp_path / "key.secret", keypair)
    m = 123_456_789
    ct = he.encrypt(pub, m, he.draw_randomizer(pub, random.Random(42)))
    ct_file = tmp_path / "bill.hex"
    ct_file.write_text(format(ct.value, "x") + "\n")
    assert cli.he_decrypt_main(["--key", str(secret), str(ct_file)]) == 0
    assert capsys.readouterr().out == f"{m}\n"


@pytest.mark.parametrize("field, corrupt", [
    ("lambda", lambda k: str(k.lam + 2)),
    ("lambda", lambda k: str(2 * k.lam)),
    ("key_id", lambda k: "0" * 16),
])
def test_he_decrypt_rejects_an_inconsistent_secret_file(tmp_path, capsys, field, corrupt):
    keypair = he.keygen(128, random.Random(43))
    secret = _secret_file(tmp_path / "key.secret", keypair, **{field: corrupt(keypair)})
    ct = he.encrypt(keypair.public, 5, 7)
    assert cli.he_decrypt_main(["--key", str(secret), format(ct.value, "x")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error=InvalidSecretKey detail=")


def test_gateway_serve_refuses_separator_in_request_fields(
    tmp_path, readings_csv, capsys, monkeypatch
):
    def request(rid, requester):
        return json.dumps({"request_id": rid, "requester": requester, "purpose": "primary",
                           "consent": False, "operation": {"kind": "raw_export"}})

    lines = [request("r1|ops", "x"), request("r2", "ops|x"), request("r3", "ops")]
    audit_path = _serve(tmp_path, monkeypatch, "epsilon_cap = 1.0\n",
                        readings_csv.read_text(), lines)
    replies = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [r.get("error", "").split(":")[0] for r in replies] == ["ValueError", "ValueError", ""]
    assert replies[2]["allowed"] is True
    records = [json.loads(line) for line in audit_path.read_text().splitlines()]
    assert [r["request_id"] for r in records] == ["r3"]
