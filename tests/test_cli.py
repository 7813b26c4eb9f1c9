import contextlib
import csv
import fcntl
import functools
import io
import json
import os
import random
import stat
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from amiprivacy import cli, dp, he
from amiprivacy.audit import (AuditRecord, audit_record_from_dict, audit_record_to_dict,
                              audit_record_to_json)
from amiprivacy.gateway import (
    OPERATIONS, AggregateReport, AuditLog, AuditWriteFailure, Decision, DenialReason, DpQuery,
    FedTrain, Gateway, HeBill, PolicyConfig, Purpose, RawExport, RequestEnvelope, SmpcSum,
    SynthGenerate, verify_chain,
)
from amiprivacy.meterdata import EnergyQuantity, FeederDataset, parse_csv, serialize_csv
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


def _anonymize(tmp_path, text):
    """Run anonymize on `text`; return its exit status and the output file's text or None."""
    (tmp_path / "key.bin").write_bytes(bytes(32))
    (tmp_path / "in.csv").write_text(text, encoding="utf-8")
    out = tmp_path / "out.csv"
    rc = cli.anonymize_main(["--epoch", "1", "--key-file", str(tmp_path / "key.bin"),
                             str(tmp_path / "in.csv"), str(out)])
    return rc, out.read_text(encoding="utf-8") if out.exists() else None


@pytest.mark.parametrize("text, line, detail", [
    ("Alice-Home,2024-01-01T00:00:00Z,1.500\nBob-Home,2024-01-01T00:00:00Z,0.250\n", 1,
     "missing or wrong header"),
    ("\nmeter_id,timestamp,kwh\n", 1, "missing or wrong header"),
    ("meter_id,timestamp,kwh\nm1,2024-01-01T00:00:00Z,1.500\n\nAlice-Home\n", 4,
     "no comma after the meter_id"),
])
def test_anonymize_refuses_a_missing_header_and_a_line_without_a_comma(
    tmp_path, capsys, text, line, detail
):
    assert _anonymize(tmp_path, text) == (1, None)
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error=MalformedRow detail=malformed row at line {line}: {detail}\n"


def test_anonymize_accepts_an_empty_file_and_copies_blank_lines(tmp_path):
    assert _anonymize(tmp_path, "") == (0, "")  # what parse_csv reads as no rows
    text = "meter_id,timestamp,kwh\n\nm1,2024-01-01T00:00:00Z,1.500\n \t\n"
    rc, out = _anonymize(tmp_path, text)
    assert rc == 0
    header, blank, row, spaces = out.splitlines()
    assert (header, blank, spaces) == ("meter_id,timestamp,kwh", "", " \t")
    assert row.endswith(",2024-01-01T00:00:00Z,1.500") and len(row.split(",")[0]) == 32
    assert parse_csv(out, 3600, CAP).n_readings() == 1


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


def _fed_train_mse(argv, capsys):
    assert cli.fed_train_main(argv) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0] == "round,mse"
    return [float(line.split(",")[1]) for line in out[1:]]


@pytest.mark.parametrize("dp_args", [[], ["--clip", "1.0", "--dp-sigma", "0.01"]])
def test_fed_train_secure_agg_matches_the_plain_run(tmp_path, capsys, dp_args):
    # The README's two fed-train lines; two meters per client, so each holds one out for MSE.
    data = tmp_path / "data.csv"
    data.write_text(serialize_csv(make_uniform_dataset(8, 1500, 200, interval_s=900)))
    argv = ["--clients", "4", "--rounds", "20", "--local-steps", "1", "--lr", "0.01",
            "--seed", "1", *dp_args, "--interval", "900", str(data)]
    plain = _fed_train_mse(argv, capsys)
    secure = _fed_train_mse(["--secure-agg", *argv], capsys)
    assert len(plain) == len(secure) == 20
    # Only fixed-point quantization (1e-6) separates the two.
    np.testing.assert_allclose(secure, plain, rtol=1e-6, atol=0)


def test_fed_train_secure_agg_refuses_a_sum_that_would_wrap(tmp_path, capsys):
    # lr 0.9 diverges: by round 10 the sample-weighted updates pass 2^63 / 3 fixed-point units.
    data = tmp_path / "data.csv"
    data.write_text(serialize_csv(make_uniform_dataset(6, 1500, 192, interval_s=900)))
    argv = ["--clients", "3", "--rounds", "12", "--local-steps", "1", "--lr", "0.9",
            "--seed", "1", "--interval", "900", str(data)]
    assert len(_fed_train_mse(argv, capsys)) == 12  # the plain run prints its huge MSEs
    assert cli.fed_train_main(["--secure-agg", *argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error=FixedPointOverflow ")


def test_fed_train_refuses_a_run_with_no_meter_held_out(tmp_path, capsys):
    # Two meters over two clients: each client holds one, so none is held out and no MSE exists.
    data = tmp_path / "data.csv"
    data.write_text(serialize_csv(make_uniform_dataset(2, 1500, 200, interval_s=900)))
    argv = ["--clients", "2", "--rounds", "3", "--local-steps", "1", "--lr", "0.01",
            "--seed", "1", "--interval", "900", str(data)]
    for extra in ([], ["--secure-agg"]):
        assert cli.fed_train_main([*extra, *argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith("error=FedLearnError detail=no meter is held out")


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


@pytest.mark.parametrize("rows, lineno, count", [
    ("alice,1.000,7\nbob,2.000\ncarol,3.000\n", 1, 3),
    ("alice,1.000\n\nbob\ncarol,3.000\n", 3, 1),
])
def test_smpc_sum_names_the_line_that_has_not_two_fields(tmp_path, capsys, rows, lineno, count):
    inputs = tmp_path / "inputs.csv"
    inputs.write_text(rows)
    assert cli.smpc_sum_main(["--min-participants", "3", "--seed", "4",
                              "--transcript", str(tmp_path / "t.csv"), str(inputs)]) == 1
    assert capsys.readouterr().err == (f"error=MalformedRow detail=malformed row at line {lineno}: "
                                       f"expected party_id,kwh, got {count} fields\n")


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
        audit_record_from_dict(json.loads(line))
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


def test_dp_query_keeps_the_old_ledger_when_the_replace_fails(
    tmp_path, readings_csv, capsys, monkeypatch
):
    ledger = tmp_path / "ledger.csv"
    args = ["--op", "count", "--epsilon", "0.2", "--ledger", str(ledger), "--seed", "7",
            str(readings_csv)]
    assert cli.dp_query_main(args) == 0
    before = ledger.read_bytes()
    capsys.readouterr()

    def crash(src, dst):
        raise OSError("injected crash between the write and the replace")

    monkeypatch.setattr(os, "replace", crash)
    assert cli.dp_query_main(args) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error=OSError detail=")
    assert ledger.read_bytes() == before


def test_concurrent_dp_queries_take_the_ledger_lock_in_turn(tmp_path, readings_csv):
    ledger = tmp_path / "ledger.csv"
    main = "import sys; from amiprivacy.cli import dp_query_main; sys.exit(dp_query_main())"
    command = [sys.executable, "-c", main, "--op", "count", "--epsilon", "0.6",
               "--epsilon-cap", "1.0", "--ledger", str(ledger), str(readings_csv)]
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    runs = []
    try:
        with open(f"{ledger}.lock", "a") as lock:
            fcntl.flock(lock, fcntl.LOCK_EX)
            runs = [subprocess.Popen(command, env=env, text=True, stdout=subprocess.PIPE,
                                     stderr=subprocess.PIPE) for _ in range(2)]
            time.sleep(1)
            assert [run.poll() for run in runs] == [None, None]  # both wait for the lock
        results = [run.communicate(timeout=60) for run in runs]
    finally:
        for run in runs:
            if run.poll() is None:
                run.kill()
                run.communicate()
    (ok, ok_out, _), (refused, refused_out, refused_err) = sorted(
        (run.returncode, out, err) for run, (out, err) in zip(runs, results))
    assert (ok, refused) == (0, 1)
    assert ok_out.startswith("value=") and refused_out == ""
    assert refused_err.startswith("error=BudgetExhausted detail=")
    assert len(ledger.read_text().splitlines()) == 1


def test_dp_query_refuses_a_cap_other_than_the_ledger_records(tmp_path, readings_csv, capsys):
    ledger = tmp_path / "ledger.csv"

    def count(cap):
        return cli.dp_query_main(["--op", "count", "--epsilon", "0.6", "--epsilon-cap", cap,
                                  "--ledger", str(ledger), "--seed", "7", str(readings_csv)])

    assert count("1.0") == 0
    assert ledger.read_text().endswith(",1.0\n")
    before = ledger.read_bytes()
    capsys.readouterr()
    assert count("1.0") == 1
    assert capsys.readouterr().err.startswith("error=BudgetExhausted detail=")
    # A larger cap does not lift the one the ledger was written under.
    assert count("5.0") == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error=CapMismatch detail=ledger records epsilon cap 1.0, not 5.0\n"
    assert ledger.read_bytes() == before


def test_dp_query_records_its_cap_in_a_ledger_that_has_none(tmp_path, readings_csv, capsys):
    ledger = tmp_path / "ledger.csv"
    ledger.write_text("q0,0.5,0.0,0.0\n")  # an entry written before lines carried the cap

    def count(cap):
        return cli.dp_query_main(["--op", "count", "--epsilon", "0.6", "--epsilon-cap", cap,
                                  "--ledger", str(ledger), "--seed", "7", str(readings_csv)])

    assert count("2.0") == 0
    lines = ledger.read_text().splitlines()
    assert lines[0] == "q0,0.5,0.0,0.0,2.0"
    assert len(lines) == 2
    _, epsilon, delta, _, cap = lines[1].split(",")
    assert (epsilon, delta, cap) == ("0.6", "0.0", "2.0")
    assert count("1.0") == 1
    assert "error=CapMismatch" in capsys.readouterr().err


@pytest.mark.parametrize("text, lineno, detail", [
    ("q0,0.5,0.0,0.0,1.0\nq1,0.1\n", 2, "expected 4 or 5 fields, got 2"),
    ("q0,0.5,0.0,0.0,1.0\n\nq1,0.1,0.0,0.0,1.0,9\n", 3, "expected 4 or 5 fields, got 6"),
    ("q0,x,0.0,0.0,1.0\n", 1, "could not convert string to float: 'x'"),
    ("q0,0.5,0.0,0.0,one\n", 1, "could not convert string to float: 'one'"),
])
def test_dp_query_names_the_ledger_line_it_cannot_read(tmp_path, readings_csv, capsys, text,
                                                        lineno, detail):
    ledger = tmp_path / "ledger.csv"
    ledger.write_text(text)
    assert cli.dp_query_main(["--op", "count", "--epsilon", "0.1", "--ledger", str(ledger),
                              "--seed", "7", str(readings_csv)]) == 1
    assert capsys.readouterr() == (
        "", f"error=MalformedRow detail=malformed row at line {lineno}: {detail}\n")
    assert ledger.read_text() == text


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
        records = [audit_record_from_dict(json.loads(line))
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


def test_gateway_serve_refuses_consent_that_is_not_a_json_boolean(
    tmp_path, readings_csv, capsys, monkeypatch
):
    def request(rid, consent):
        return json.dumps({"request_id": rid, "requester": "analyst", "purpose": "secondary",
                           "consent": consent, "operation": {"kind": "raw_export"}})

    lines = [request("c1", "false"), request("c2", "no"), request("c3", 1),
             request("c4", False), request("c5", True)]
    audit_path = _serve(tmp_path, monkeypatch, "epsilon_cap = 1.0\n",
                        readings_csv.read_text(), lines)
    replies = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [r["request_id"] for r in replies] == ["c1", "c2", "c3", "c4", "c5"]
    for reply in replies[:3]:
        assert reply.keys() == {"request_id", "error"}
        assert reply["error"].startswith("TypeError: consent")
    assert (replies[3]["allowed"], replies[3]["reason"], replies[3]["result"]) == (
        False, "ConsentRequired", None)
    assert replies[4]["allowed"] is True
    assert replies[4]["result"] == readings_csv.read_text()
    records = [json.loads(line) for line in audit_path.read_text().splitlines()]
    assert [(r["request_id"], r["decision"]) for r in records] == [
        ("c4", "denied:ConsentRequired"), ("c5", "allowed")]


@pytest.mark.parametrize("value", [lambda n: 0, lambda n: n, lambda n: n * n + 5])
def test_he_decrypt_rejects_a_ciphertext_that_is_not_a_unit(tmp_path, capsys, value):
    keypair = he.keygen(128, random.Random(45))
    secret = _secret_file(tmp_path / "key.secret", keypair)
    ct_hex = format(value(keypair.public.n), "x")
    assert cli.he_decrypt_main(["--key", str(secret), ct_hex]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error=BadCiphertext detail=")


class _ModeAtWrite:
    """A file object that notes its file's mode each time it is written to."""

    def __init__(self, fh, seen):
        self._fh, self._seen = fh, seen

    def write(self, text):
        self._seen.append((stat.S_IMODE(os.fstat(self._fh.fileno()).st_mode), text))
        return self._fh.write(text)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()


@pytest.mark.parametrize("pre_existing", [False, True])
def test_he_keygen_secret_is_owner_only_when_written(tmp_path, monkeypatch, pre_existing):
    pub = tmp_path / "keypair.json"
    secret = tmp_path / "keypair.json.secret"
    if pre_existing:
        secret.write_text("old")
        os.chmod(secret, 0o644)
    seen = []
    real_fdopen = os.fdopen
    monkeypatch.setattr(os, "fdopen", lambda fd, *a, **k: _ModeAtWrite(real_fdopen(fd, *a, **k),
                                                                         seen))
    assert cli.he_keygen_main(["--bits", "128", "--out", str(pub)]) == 0
    assert seen and all(mode == 0o600 for mode, _ in seen)
    assert '"lambda"' in "".join(text for _, text in seen)
    assert stat.S_IMODE(secret.stat().st_mode) == 0o600
    assert json.loads(secret.read_text())["key_id"] == json.loads(pub.read_text())["key_id"]


def test_he_bill_refuses_a_bill_that_could_wrap(tmp_path, capsys):
    pub = tmp_path / "keypair.json"
    assert cli.he_keygen_main(["--bits", "128", "--out", str(pub)]) == 0
    n = int(json.loads(pub.read_text())["n"])
    rates = tmp_path / "rates.csv"
    rates.write_text("2\n")
    usage = tmp_path / "usage.csv"
    usage.write_text(EnergyQuantity(n - 1).to_kwh_text() + "\n")
    assert cli.he_bill_main(["--pub", str(pub), "--rates", str(rates), str(usage)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error=BillingOverflow detail=")


@pytest.mark.parametrize("rates, usage, lineno", [
    ("\u0661\u0660\n20\n", "0.002\n0.003\n", 1),  # Arabic-Indic digits
    ("10\n\n2_0\n", "0.002\n0.003\n", 3),
    ("10,20\n", "0.002\n0.003\n", 1),
    ("10\n-20\n", "0.002\n0.003\n", 2),
    ("10\n20\n", "0.002\n0,003\n", 2),
])
def test_he_bill_reads_one_value_per_line_and_names_the_bad_one(tmp_path, capsys, rates, usage,
                                                                lineno):
    pub = tmp_path / "keypair.json"
    assert cli.he_keygen_main(["--bits", "128", "--out", str(pub)]) == 0
    (tmp_path / "rates.csv").write_text(rates, encoding="utf-8")
    (tmp_path / "usage.csv").write_text(usage, encoding="utf-8")
    assert cli.he_bill_main(["--pub", str(pub), "--rates", str(tmp_path / "rates.csv"),
                             str(tmp_path / "usage.csv")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error=MalformedRow detail=malformed row at line {lineno}: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("n_rates, error", [(3, "LengthMismatch"), (2, "BillingOverflow")])
def test_he_bill_refuses_a_bill_before_encrypting_anything(
    tmp_path, capsys, monkeypatch, n_rates, error
):
    pub = tmp_path / "keypair.json"
    assert cli.he_keygen_main(["--bits", "128", "--out", str(pub)]) == 0
    n = int(json.loads(pub.read_text())["n"])
    rates = tmp_path / "rates.csv"
    rates.write_text("2\n" * n_rates)
    usage = tmp_path / "usage.csv"
    usage.write_text(f"0.002\n{EnergyQuantity(n - 1).to_kwh_text()}\n")  # 4 * (n - 1) >= n
    calls = []
    monkeypatch.setattr(he, "encrypt", lambda *args: calls.append(args))
    assert cli.he_bill_main(["--pub", str(pub), "--rates", str(rates), str(usage)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(f"error={error} detail=")
    assert calls == []


def _request(rid, operation):
    return json.dumps({"request_id": rid, "requester": "ops", "purpose": "primary",
                       "consent": False, "operation": operation})


def test_gateway_serve_answers_a_wrapping_bill_with_an_error_and_keeps_serving(
    tmp_path, readings_csv, capsys, monkeypatch
):
    # The gateway's 512-bit n lies in (2^510, 2^512), so 4 * 2^510 >= n > 2^510.
    lines = [_request("w1", {"kind": "he_bill", "usage_milli": [2**510], "rates": [4]}),
             _request("w2", {"kind": "he_bill", "usage_milli": [2, 3], "rates": [10, 20]})]
    audit_path = _serve(tmp_path, monkeypatch, "epsilon_cap = 1.0\n",
                        readings_csv.read_text(), lines)
    replies = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert replies[0]["request_id"] == "w1"
    assert replies[0]["error"].startswith("RequestFailed: BillingOverflow: ")
    assert replies[1] == {"request_id": "w2", "allowed": True, "reason": None, "result": 80}
    records = [json.loads(line) for line in audit_path.read_text().splitlines()]
    assert [(r["request_id"], r["decision"], r["epsilon_spent"]) for r in records] == [
        ("w1", "error:BillingOverflow", 0.0), ("w2", "allowed", 0.0)]


def test_audit_show_keeps_a_comma_quote_or_line_break_inside_one_field(
    tmp_path, readings_csv, capsys, monkeypatch
):
    lines = [json.dumps({"request_id": rid, "requester": 'o"ps', "purpose": "primary",
                         "consent": False, "operation": {"kind": "raw_export"}})
             for rid in ("a,b", "c\rd")]
    audit_path = _serve(tmp_path, monkeypatch, "epsilon_cap = 1.0\n",
                        readings_csv.read_text(), lines)
    capsys.readouterr()
    assert cli.audit_show_main(["--log", str(audit_path), "--verify"]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out, newline="")))
    assert [row[:4] for row in rows[:-1]] == [
        ["0", "a,b", 'o"ps', "allowed"],
        ["1", "c\rd", 'o"ps', "allowed"]]
    assert all(len(row) == 7 for row in rows[:-1]) and rows[-1] == ["chain=valid"]


def test_audit_show_prints_an_ordinary_row_as_plain_comma_separated_fields(
    tmp_path, readings_csv, capsys, monkeypatch
):
    lines = [_request("r1", {"kind": "raw_export"}),
             _request("r2", {"kind": "dp_query", "op": "count", "epsilon": 0.5})]
    audit_path = _serve(tmp_path, monkeypatch, "epsilon_cap = 1.0\n",
                        readings_csv.read_text(), lines)
    capsys.readouterr()
    assert cli.audit_show_main(["--log", str(audit_path)]) == 0
    records = [json.loads(line) for line in audit_path.read_text().splitlines()]
    assert capsys.readouterr().out == "".join(
        f"{r['seq']},{r['request_id']},{r['requester']},{r['decision']},{r['mechanism']},"
        f"{r['epsilon_spent']},{r['hash'][:16]}\n" for r in records)


def test_gateway_serve_answers_a_pair_of_the_wrong_length_with_a_type_error(
    tmp_path, readings_csv, capsys, monkeypatch
):
    lines = [_request("s1", {"kind": "smpc_sum", "values": [["a", 1000, 5], ["b", 2000]],
                             "min_participants": 2}),
             _request("s2", {"kind": "raw_export"})]
    audit_path = _serve(tmp_path, monkeypatch, "epsilon_cap = 1.0\n",
                        readings_csv.read_text(), lines)
    first, second = (json.loads(line) for line in capsys.readouterr().out.splitlines())
    assert first == {"request_id": "s1",
                     "error": "TypeError: expected a two-item list, not ['a', 1000, 5]"}
    assert second["request_id"] == "s2" and second["allowed"] is True
    assert [json.loads(line)["request_id"] for line in audit_path.read_text().splitlines()] == [
        "s2"]


def test_gateway_serve_writes_one_stderr_line_per_bad_request(
    tmp_path, readings_csv, capsys, monkeypatch
):
    lines = ['{"request_id": "b1", "requester": ',  # malformed JSON
             _request("w1", {"kind": "he_bill", "usage_milli": [2**510], "rates": [4]}),
             _request("w2", {"kind": "he_bill", "usage_milli": [2, 3], "rates": [10, 20]})]
    _serve(tmp_path, monkeypatch, "epsilon_cap = 1.0\n", readings_csv.read_text(), lines)
    captured = capsys.readouterr()
    malformed, failed = captured.err.splitlines()
    assert malformed.startswith("error=JSONDecodeError request_id=null detail=Expecting value")
    assert failed.startswith('error=RequestFailed request_id="w1" detail=BillingOverflow: ')
    assert json.loads(captured.out.splitlines()[2])["result"] == 80


def test_dp_query_and_gateway_serve_release_the_same_count(
    tmp_path, readings_csv, capsys, monkeypatch
):
    assert cli.dp_query_main(["--op", "count", "--epsilon", "0.5", "--ledger",
                              str(tmp_path / "ledger.csv"), "--seed", "7",
                              str(readings_csv)]) == 0
    [printed] = capsys.readouterr().out.splitlines()
    _serve(tmp_path, monkeypatch, "epsilon_cap = 1.0\n", readings_csv.read_text(),
           [_request("q1", {"kind": "dp_query", "op": "count", "epsilon": 0.5})], seed="7")
    [reply] = capsys.readouterr().out.splitlines()
    assert printed == f"value={json.loads(reply)['result']['value']!r}"


def test_gateway_serve_refuses_a_string_timestamp_before_any_charge(
    tmp_path, readings_csv, capsys, monkeypatch
):
    lines = [_request("s1", {"kind": "dp_query", "op": "sum", "epsilon": 0.1, "timestamp": "0"}),
             _request("s2", {"kind": "dp_query", "op": "count", "epsilon": 1.0})]
    audit_path = _serve(tmp_path, monkeypatch, "epsilon_cap = 1.0\n",
                        readings_csv.read_text(), lines)
    replies = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert replies[0] == {"request_id": "s1", "error": "TypeError: expected int, not '0'"}
    assert replies[1]["allowed"] is True  # the whole cap was still left
    records = [json.loads(line) for line in audit_path.read_text().splitlines()]
    assert [(r["request_id"], r["decision"], r["epsilon_spent"]) for r in records] == [
        ("s2", "allowed", 1.0)]


def test_gateway_serve_takes_only_a_json_array_where_an_array_is_due(
    tmp_path, readings_csv, capsys, monkeypatch
):
    lines = [_request("a1", {"kind": "he_bill", "usage_milli": "", "rates": []}),
             _request("a2", {"kind": "dp_query", "op": "histogram", "epsilon": 0.5,
                             "edges": []}),
             _request("a3", {"kind": "dp_query", "op": "count", "epsilon": 1.0})]
    audit_path = _serve(tmp_path, monkeypatch, "epsilon_cap = 1.0\n",
                        readings_csv.read_text(), lines)
    replies = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert replies[0] == {"request_id": "a1", "error": "TypeError: expected list, not ''"}
    assert replies[1]["error"].startswith("RequestFailed: ValueError: edges must be")
    assert replies[2]["allowed"] is True  # the whole cap was still left
    records = [json.loads(line) for line in audit_path.read_text().splitlines()]
    assert [(r["request_id"], r["decision"], r["epsilon_spent"]) for r in records] == [
        ("a2", "error:ValueError", 0.0), ("a3", "allowed", 1.0)]


def test_gateway_serve_repeats_raw_export_and_histogram(
    tmp_path, readings_csv, capsys, monkeypatch
):
    histogram = {"kind": "dp_query", "op": "histogram", "epsilon": 0.25, "edges": [0, 1, 2, 3]}
    lines = [_request("x1", {"kind": "raw_export"}), _request("x2", histogram),
             _request("x3", {"kind": "raw_export"}), _request("x4", histogram)]
    csv_text = readings_csv.read_text()
    _serve(tmp_path, monkeypatch, "epsilon_cap = 1.0\n", csv_text, lines, seed="1")
    replies = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [r["allowed"] for r in replies] == [True] * 4
    assert replies[0]["result"] == replies[2]["result"] == csv_text
    # Every reading is 1.5 kWh; the seeded generator draws one uniform per bin.
    rng = random.Random(1)
    expected = [[c + dp.laplace_sample(1 / 0.25, rng.random()) for c in (0, 6 * 24, 0)]
                for _ in range(2)]
    assert [replies[1]["result"], replies[3]["result"]] == expected


@pytest.mark.parametrize("rows, error", [
    ("alice,3.000\nbob,5.000\nalice,9.000\n", "DuplicateParty"),
    ("alice,3.000\nbob,5.000,extra\ncarol,9.000\n", "MalformedRow"),
    ("alice,3.000\nbob,-5.000\ncarol,9.000\n", "MalformedRow"),
    ("alice,3.0001\nbob,5.000\ncarol,9.000\n", "MalformedRow"),
    (f"alice,{2**62 // 1000}.000\nbob,5.000\ncarol,9.000\n", "SumOverflow"),
    (None, "FileNotFoundError"),
])
def test_smpc_sum_reports_bad_input_without_a_transcript(tmp_path, capsys, rows, error):
    inputs = tmp_path / "inputs.csv"
    if rows is not None:
        inputs.write_text(rows)
    transcript = tmp_path / "transcript.csv"
    rc = cli.smpc_sum_main([
        "--min-participants", "3", "--seed", "4",
        "--transcript", str(transcript), str(inputs),
    ])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error={error} detail=")
    assert not transcript.exists()


@pytest.mark.parametrize("rows, line", [("alice,3.000\nbob,-5.000\ncarol,9.000\n", 2),
                                        ("\nalice,3.0001\nbob,5.000\ncarol,9.000\n", 2),
                                        ("alice,1.000\nbob,5.000\ncarol,x\n", 3)])
def test_smpc_sum_names_the_line_of_a_bad_kwh_value(tmp_path, capsys, rows, line):
    inputs = tmp_path / "inputs.csv"
    inputs.write_text(rows)
    transcript = tmp_path / "transcript.csv"
    assert cli.smpc_sum_main(["--min-participants", "3", "--transcript", str(transcript),
                              str(inputs)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(
        f"error=MalformedRow detail=malformed row at line {line}: "), err
    assert not transcript.exists()


@pytest.mark.parametrize("key_text, error", [(None, "FileNotFoundError"),
                                             ("not json\n", "JSONDecodeError")])
def test_he_decrypt_reports_an_unreadable_key_file(tmp_path, capsys, key_text, error):
    key = tmp_path / "key.secret"
    if key_text is not None:
        key.write_text(key_text)
    assert cli.he_decrypt_main(["--key", str(key), "abc"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error={error} detail=")


def _explicit_audit_dict(rec):
    """The audit line's fields as they were once listed by hand, in file order."""
    return {
        "seq": rec.seq, "request_id": rec.request_id, "requester": rec.requester,
        "decision": rec.decision, "mechanism": rec.mechanism,
        "epsilon_spent": rec.epsilon_spent, "timestamp": rec.timestamp,
        "prev_hash": rec.prev_hash.hex(), "hash": rec.hash.hex(),
    }


def test_audit_codec_writes_the_explicit_field_dict_byte_for_byte():
    log = AuditLog()
    log.append_audit("r1", "ops", "allowed", "laplace", 0.25)
    log.append_audit("r2", "vendor", "denied:ConsentRequired", "raw", 0.0)
    log.append_audit("r3", "ops", "error:ValueError", "laplace", 1e-300)
    for rec in log.records:
        line = json.dumps(audit_record_to_dict(rec))
        assert line == json.dumps(_explicit_audit_dict(rec))
        assert audit_record_from_dict(json.loads(line)) == rec
    with pytest.raises(TypeError):
        audit_record_from_dict({**_explicit_audit_dict(rec), "note": "x"})


# Text that json must escape: quotes, backslashes, control characters, non-ASCII.
_ESCAPED = st.sampled_from(['"', "\\", "\x00", "\x1f", "\x7f", "\u00fc", "\u2028", "\U0001f600"])


@settings(max_examples=200, deadline=None)
@given(seq=st.integers(min_value=0, max_value=2**200),
       text=st.lists(st.text(st.one_of(_ESCAPED, st.characters(exclude_categories=()))),
                     min_size=4, max_size=4),
       epsilon_spent=st.floats(), timestamp=st.floats(),
       digests=st.lists(st.binary(min_size=32, max_size=32), min_size=2, max_size=2))
@example(seq=0, text=["\ud800", '"', "\\", "\x00"], epsilon_spent=-0.0, timestamp=1e-320,
         digests=[bytes(32)] * 2)
@example(seq=2**64, text=["ü"] * 4, epsilon_spent=float("nan"), timestamp=float("inf"),
         digests=[bytes(32)] * 2)
@example(seq=1, text=["r"] * 4, epsilon_spent=float("-inf"), timestamp=1e300,
         digests=[bytes(32)] * 2)
def test_audit_record_to_json_is_json_dumps_of_the_record_dict(
        seq, text, epsilon_spent, timestamp, digests):
    rec = AuditRecord(seq, *text, epsilon_spent, timestamp, *digests)
    assert audit_record_to_json(rec) == json.dumps(audit_record_to_dict(rec))


@functools.cache
def _routed_decisions():
    """One allowed decision per operation kind (two dp_query shapes) on a small feeder."""
    dataset = make_two_cluster_dataset(n_meters=6, n_days=5, seed=7)
    policy = PolicyConfig(epsilon_cap=10.0, min_aggregation_count=2, k_anonymity_k=2)
    g = Gateway(dataset, policy, dp.BudgetLedger(epsilon_cap=10.0), AuditLog(),
                rng=random.Random(0))
    m0, m1 = dataset.meter_ids[:2]
    operations = [RawExport(), DpQuery("count", 0.5),
                  DpQuery("histogram", 0.5, edges=(0.0, 1.0, 9.0)), SynthGenerate(2, 5, 2, 3),
                  FedTrain(2, 2, 1, 0.01),
                  SmpcSum(values=(("a", 1), ("b", 2), ("c", 3)), min_participants=3),
                  HeBill(usage_milli=(2, 3), rates=(10, 20)),
                  AggregateReport(groups=(("g", (m0, m1)),))]
    routed = []
    for i, op in enumerate(operations):
        req = RequestEnvelope(f"r{i}", "ops", Purpose.PRIMARY, False, op)
        routed.append((req, g.route(req)))
    if not all(decision.allowed for _, decision in routed):
        pytest.fail("every kind's request should be allowed")
    return dataset, routed


@settings(max_examples=300, deadline=None)
@given(request_id=st.text(st.one_of(
           _ESCAPED, st.characters(exclude_categories=("Cs",), exclude_characters="|"))),
       index=st.integers(min_value=0, max_value=7),
       reason=st.sampled_from([None, *DenialReason]))
def test_decision_to_json_is_json_dumps_of_the_reply(request_id, index, reason):
    dataset, routed = _routed_decisions()
    req, decision = routed[index]
    req = RequestEnvelope(request_id, req.requester, req.purpose, req.consent, req.operation)
    if reason is not None:  # a denial carries no result
        decision = Decision(allowed=False, reason=reason)
    result = decision.result
    summary = None if result is None else OPERATIONS[type(req.operation)].summarize(result)
    reply = {"request_id": request_id, "allowed": decision.allowed,
             "reason": None if reason is None else reason.value, "result": summary}
    assert b"".join(cli.decision_to_json(req, decision, dataset)) == (
        json.dumps(reply) + "\n").encode()


def _serve_status(tmp_path, monkeypatch, policy_text, csv_text, lines):
    """`gateway serve` on the given files; return its status, stdin and audit path."""
    data_dir = tmp_path / "data"
    data_dir.mkdir(exist_ok=True)
    (data_dir / "readings.csv").write_text(csv_text)
    policy = tmp_path / "policy.conf"
    policy.write_text(policy_text)
    audit_path = tmp_path / "audit.jsonl"
    stdin = io.StringIO("".join(line + "\n" for line in lines))
    monkeypatch.setattr("sys.stdin", stdin)
    rc = cli.gateway_main(["serve", "--policy", str(policy), "--data", str(data_dir),
                           "--audit-log", str(audit_path), "--seed", "1"])
    return rc, stdin, audit_path


@pytest.mark.parametrize("bad_line, key", [("epsilon-cap = 0.1", "epsilon-cap"),
                                           ("allow_raw_primary = no", "allow_raw_primary"),
                                           ("epsilon_cap = true", "epsilon_cap"),
                                           ("k = 2.5", "k_anonymity_k")])
def test_gateway_serve_refuses_a_policy_key_it_would_not_enforce(
    tmp_path, readings_csv, capsys, monkeypatch, bad_line, key
):
    lines = [_request("p1", {"kind": "raw_export"}),
             _request("p2", {"kind": "dp_query", "op": "count", "epsilon": 0.9})]
    rc, stdin, audit_path = _serve_status(
        tmp_path, monkeypatch, f"{bad_line}\nmin_aggregation_count = 3\n",
        readings_csv.read_text(), lines)
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error=TypeError detail=")
    assert key in captured.err
    assert stdin.tell() == 0
    assert not audit_path.exists()


def test_gateway_serve_reads_every_documented_policy_key(
    tmp_path, readings_csv, capsys, monkeypatch
):
    policy = ("epsilon_cap = 0.5\nmin_aggregation_count = 3\nk = 7\n"
              "allow_raw_primary = false\nmemorization_threshold = 0.02\n"
              "interval_s = 3600\ndelta_max_kwh = 5.0\n")
    meters = [f"m{i:04d}" for i in range(6)]
    lines = [_request("p1", {"kind": "raw_export"}),
             _request("p2", {"kind": "dp_query", "op": "count", "epsilon": 0.9}),
             _request("p3", {"kind": "aggregate_report", "groups": {"g": meters}})]
    rc, _, _ = _serve_status(tmp_path, monkeypatch, policy, readings_csv.read_text(), lines)
    assert rc == 0
    replies = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [r["reason"] for r in replies] == [
        "PolicyViolation", "BudgetExhausted", "BelowAggregationThreshold"]


def _dp_query_missing_infile(tmp_path, monkeypatch):
    return cli.dp_query_main(["--op", "count", "--epsilon", "0.5", "--ledger",
                              str(tmp_path / "ledger.csv"), str(tmp_path / "missing.csv")])


def _he_bill_missing_pub(tmp_path, monkeypatch):
    (tmp_path / "rates.csv").write_text("10\n")
    (tmp_path / "usage.csv").write_text("0.002\n")
    return cli.he_bill_main(["--pub", str(tmp_path / "missing.json"), "--rates",
                             str(tmp_path / "rates.csv"), str(tmp_path / "usage.csv")])


def _serve_malformed_readings(tmp_path, monkeypatch):
    csv_text = "meter_id,timestamp,kwh\nm0000,2024-01-01T00:00:00Z\n"
    return _serve_status(tmp_path, monkeypatch, "epsilon_cap = 1.0\n", csv_text,
                         [_request("x1", {"kind": "raw_export"})])[0]


def _audit_show_missing_log(tmp_path, monkeypatch):
    return cli.audit_show_main(["--log", str(tmp_path / "missing.jsonl"), "--verify"])


def _dp_query_ledger_in_missing_dir(tmp_path, monkeypatch):
    (tmp_path / "readings.csv").write_text(serialize_csv(make_uniform_dataset(2, 100, 3)))
    return cli.dp_query_main(["--op", "count", "--epsilon", "0.5", "--ledger",
                              str(tmp_path / "missing" / "ledger.csv"),
                              str(tmp_path / "readings.csv")])


def _anonymize_missing_key(tmp_path, monkeypatch):
    (tmp_path / "readings.csv").write_text("meter_id,timestamp,kwh\n")
    return cli.anonymize_main(["--epoch", "1", "--key-file", str(tmp_path / "missing.bin"),
                               str(tmp_path / "readings.csv"), str(tmp_path / "out.csv")])


def _synth_gen_missing_csv(tmp_path, monkeypatch):
    return cli.synth_gen_main(["--fit", str(tmp_path / "missing.csv"), "--clusters", "2",
                               "--households", "3", "--days", "1", "--seed", "1",
                               "--out", str(tmp_path / "out.csv")])


def _synth_check_missing_csv(tmp_path, monkeypatch):
    return cli.synth_check_main([str(tmp_path / "missing.csv"), str(tmp_path / "synth.csv"),
                                 "--threshold", "0.01"])


def _fed_train_missing_csv(tmp_path, monkeypatch):
    return cli.fed_train_main(["--clients", "2", "--rounds", "1", "--local-steps", "1",
                               "--lr", "0.01", "--seed", "1", str(tmp_path / "missing.csv")])


def _he_keygen_out_in_missing_dir(tmp_path, monkeypatch):
    return cli.he_keygen_main(["--bits", "128", "--out", str(tmp_path / "missing" / "pub.json")])


@pytest.mark.parametrize("run, error", [
    (_dp_query_missing_infile, "FileNotFoundError"),
    (_he_bill_missing_pub, "FileNotFoundError"),
    (_serve_malformed_readings, "MalformedRow"),
    (_audit_show_missing_log, "FileNotFoundError"),
    (_dp_query_ledger_in_missing_dir, "FileNotFoundError"),
    (_anonymize_missing_key, "FileNotFoundError"),
    (_synth_gen_missing_csv, "FileNotFoundError"),
    (_synth_check_missing_csv, "FileNotFoundError"),
    (_fed_train_missing_csv, "FileNotFoundError"),
    (_he_keygen_out_in_missing_dir, "FileNotFoundError"),
])
def test_cli_reports_unreadable_input_as_an_error_line(tmp_path, capsys, monkeypatch, run, error):
    assert run(tmp_path, monkeypatch) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error={error} detail=")
    assert not (tmp_path / "ledger.csv").exists()
    assert not (tmp_path / "audit.jsonl").exists()


@pytest.mark.parametrize("override", [{"g": "7"}, {"key_id": "deadbeefdeadbeef"}])
def test_he_bill_refuses_a_public_key_file_that_does_not_match_n(tmp_path, capsys, override):
    pub = tmp_path / "keypair.json"
    assert cli.he_keygen_main(["--bits", "128", "--out", str(pub)]) == 0
    pub.write_text(json.dumps({**json.loads(pub.read_text()), **override}))
    rates = tmp_path / "rates.csv"
    rates.write_text("10\n20\n")
    usage = tmp_path / "usage.csv"
    usage.write_text("0.002\n0.003\n")
    assert cli.he_bill_main(["--pub", str(pub), "--rates", str(rates), str(usage)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error=InvalidPublicKey detail=")


def test_audit_show_verify_names_the_first_tampered_record(
    tmp_path, readings_csv, capsys, monkeypatch
):
    lines = [_request(f"t{i}", {"kind": "dp_query", "op": "count", "epsilon": 0.1})
             for i in range(3)]
    audit_path = _serve(tmp_path, monkeypatch, "epsilon_cap = 1.0\n",
                        readings_csv.read_text(), lines)
    records = [json.loads(line) for line in audit_path.read_text().splitlines()]
    records[1]["requester"] = "mallory"
    audit_path.write_text("".join(json.dumps(rec) + "\n" for rec in records))
    capsys.readouterr()
    assert cli.audit_show_main(["--log", str(audit_path), "--verify"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 4 and out[1].split(",")[2] == "mallory"
    assert out[-1] == "chain=invalid first_bad_seq=1"


def test_gateway_serve_refuses_a_repeated_policy_key(tmp_path, readings_csv, capsys, monkeypatch):
    # Keeping the last value would serve three 0.9 counts under a cap of 50, not 1.0.
    lines = [_request(f"r{i}", {"kind": "dp_query", "op": "count", "epsilon": 0.9})
             for i in range(3)]
    rc, stdin, audit_path = _serve_status(
        tmp_path, monkeypatch, "epsilon_cap = 1.0\nmin_aggregation_count = 3\nepsilon_cap = 50\n",
        readings_csv.read_text(), lines)
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error=ValueError detail=")
    assert "'epsilon_cap'" in captured.err and "line 3" in captured.err
    assert stdin.tell() == 0
    assert not audit_path.exists()


@pytest.mark.parametrize("value", ["3600.5", "true"])
def test_gateway_serve_refuses_an_interval_that_is_not_an_integer(
    tmp_path, readings_csv, capsys, monkeypatch, value
):
    lines = [_request("i1", {"kind": "dp_query", "op": "count", "epsilon": 0.1})]
    rc, stdin, audit_path = _serve_status(
        tmp_path, monkeypatch, f"interval_s = {value}\n", readings_csv.read_text(), lines)
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error=TypeError detail=interval_s")
    assert stdin.tell() == 0
    assert not audit_path.exists()


@pytest.mark.parametrize("line", ["a,nan,0.0,0\n", "a,-5.0,0.0,0\n", "q0,inf,0.0,0.0,1.0\n",
                                  "q0,0.6,0.0,0.0,1.0\nq1,0.6,0.0,0.0,1.0\n"])
def test_dp_query_refuses_a_ledger_entry_no_cap_bounds(tmp_path, readings_csv, capsys, line):
    ledger = tmp_path / "ledger.csv"
    ledger.write_text(line)
    rc = cli.dp_query_main(["--op", "count", "--epsilon", "0.9", "--ledger", str(ledger),
                            "--seed", "7", str(readings_csv)])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error=ValueError detail=")
    assert ledger.read_bytes() == line.encode()


def _raw_export_reply(rid, csv_text):
    """What `gateway serve` has always printed for an allowed raw export."""
    return json.dumps({"request_id": rid, "allowed": True, "reason": None, "result": csv_text})


def test_gateway_serve_writes_raw_exports_byte_for_byte_through_a_pipe(tmp_path):
    # Meter ids that JSON must escape: a quote, a backslash and a non-ASCII letter.
    ids = sorted(['m"quote', "m\\slash", "méter"])
    csv_text = serialize_csv(FeederDataset.from_columns(
        ids, [0, 0, 1, 1, 2, 2], [0, 3600] * 3, [1500, 250, 0, 4999, 1000, 1], 3600, CAP))
    data_dir = tmp_path / "data"
    data_dir.mkdir()
    (data_dir / "readings.csv").write_bytes(csv_text.encode("utf-8"))
    policy = tmp_path / "policy.conf"
    policy.write_text("epsilon_cap = 1.0\n")
    lines = [_request("x1", {"kind": "raw_export"}), '{"request_id": "bad", ',
             _request("x2", {"kind": "raw_export"}),
             _request("c1", {"kind": "dp_query", "op": "count", "epsilon": 0.5})]
    main = "import sys; from amiprivacy.cli import gateway_main; sys.exit(gateway_main())"
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1]), "PYTHONUTF8": "1"}
    run = subprocess.run(
        [sys.executable, "-c", main, "serve", "--policy", str(policy), "--data", str(data_dir),
         "--seed", "5"],
        input="".join(line + "\n" for line in lines).encode(), capture_output=True, env=env,
        timeout=60)
    assert run.returncode == 0, run.stderr.decode()
    replies = run.stdout.split(b"\n")
    assert replies[-1] == b"" and len(replies) == len(lines) + 1
    assert replies[0] == _raw_export_reply("x1", csv_text).encode()
    assert replies[2] == _raw_export_reply("x2", csv_text).encode()
    error = json.loads(replies[1])
    assert error["request_id"] is None and error["error"].startswith("JSONDecodeError: ")
    count = json.loads(replies[3])
    assert (count["request_id"], count["allowed"]) == ("c1", True)


def test_gateway_serve_encodes_the_csv_for_the_first_raw_export_only(
    tmp_path, readings_csv, capsys, monkeypatch
):
    csv_text = readings_csv.read_text()
    expected = [_raw_export_reply(rid, csv_text) for rid in ("e1", "e2", "e3")]
    encode = json.encoder.encode_basestring_ascii
    encoded = []

    def spy(text):
        if text == csv_text:
            encoded.append(text)
        return encode(text)

    monkeypatch.setattr(json.encoder, "encode_basestring_ascii", spy)
    lines = [_request(rid, {"kind": "raw_export"}) for rid in ("e1", "e2", "e3")]
    _serve(tmp_path, monkeypatch, "epsilon_cap = 1.0\n", csv_text, lines)
    assert len(encoded) == 1
    assert capsys.readouterr().out.splitlines() == expected


def test_gateway_serve_refuses_text_utf8_cannot_encode_before_any_charge(
    tmp_path, readings_csv, capsys, monkeypatch
):
    ledgers = []

    class RecordingLedger(dp.BudgetLedger):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            ledgers.append(self)

    monkeypatch.setattr(dp, "BudgetLedger", RecordingLedger)
    count = {"kind": "dp_query", "op": "count", "epsilon": 0.5}
    lines = [
        # A pure-ASCII line whose requester is a lone surrogate, written as a JSON escape.
        json.dumps({"request_id": "u1", "requester": "x\ud800", "purpose": "primary",
                    "consent": False, "operation": count}),
        # A raw 0xFF byte, as stdin delivers it under UTF-8 mode (surrogateescape).
        (b'{"request_id": "u2\xff", "requester": "ops", "purpose": "primary", '
         b'"consent": false, "operation": {"kind": "dp_query", "op": "count", "epsilon": 0.5}}'
         ).decode("utf-8", "surrogateescape"),
        _request("u3", {"kind": "dp_query", "op": "count", "epsilon": 0.6}),
    ]
    audit_path = _serve(tmp_path, monkeypatch, "epsilon_cap = 1.0\n",
                        readings_csv.read_text(), lines)
    replies = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [r.get("error", "").split(":")[0] for r in replies] == [
        "UnicodeEncodeError", "UnicodeEncodeError", ""]
    assert (replies[2]["allowed"], replies[2]["reason"]) == (True, None)
    records = [json.loads(line) for line in audit_path.read_text().splitlines()]
    assert [(r["request_id"], r["decision"]) for r in records] == [("u3", "allowed")]
    [ledger] = ledgers
    assert [r["epsilon_spent"] for r in records] == [e.epsilon for e in ledger.entries] == [0.6]


def test_gateway_serve_keeps_serving_after_a_bad_byte_on_a_strict_stdin(tmp_path, readings_csv):
    data_dir = tmp_path / "data"
    data_dir.mkdir()
    (data_dir / "readings.csv").write_bytes(readings_csv.read_bytes())
    policy = tmp_path / "policy.conf"
    policy.write_text("epsilon_cap = 1.0\n")
    stdin = (b'{"request_id": "u1\xff", "requester": "ops", "purpose": "primary", '
             b'"consent": false, "operation": {"kind": "dp_query", "op": "count", '
             b'"epsilon": 0.5}}\n'
             + _request("u2", {"kind": "dp_query", "op": "count", "epsilon": 0.5}).encode()
             + b"\n")
    main = "import sys; from amiprivacy.cli import gateway_main; sys.exit(gateway_main())"
    # Outside UTF-8 mode, this is the stdin decoder a UTF-8 locale such as en_US.UTF-8 gives.
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1]), "PYTHONUTF8": "0",
           "PYTHONIOENCODING": "utf-8:strict"}
    run = subprocess.run(
        [sys.executable, "-c", main, "serve", "--policy", str(policy), "--data", str(data_dir),
         "--seed", "5"], input=stdin, capture_output=True, env=env, timeout=60)
    assert run.returncode == 0, run.stderr.decode()
    first, second = (json.loads(line) for line in run.stdout.splitlines())
    assert first["error"].startswith("UnicodeEncodeError")
    assert (second["request_id"], second["allowed"]) == ("u2", True)
    assert run.stderr.decode().startswith("error=UnicodeEncodeError ")


def test_gateway_serve_refuses_an_infinite_epsilon_cap_before_reading_stdin(
    tmp_path, readings_csv, capsys, monkeypatch
):
    lines = [_request(f"i{k}", {"kind": "dp_query", "op": "count", "epsilon": 1e300})
             for k in (1, 2)]
    rc, stdin, audit_path = _serve_status(tmp_path, monkeypatch, "epsilon_cap = inf\n",
                                          readings_csv.read_text(), lines)
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        "error=ValueError detail=epsilon_cap must be positive and finite")
    assert stdin.tell() == 0
    assert not audit_path.exists()


def test_dp_query_refuses_an_infinite_epsilon_cap(tmp_path, readings_csv, capsys):
    ledger = tmp_path / "ledger.csv"
    args = ["--op", "count", "--epsilon", "1e300", "--epsilon-cap", "inf", "--ledger",
            str(ledger), "--seed", "7", str(readings_csv)]
    assert cli.dp_query_main(args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        "error=ValueError detail=epsilon_cap must be positive and finite")
    assert not ledger.exists()
    # A ledger line that records an infinite cap is refused, and the file is left as it was.
    ledger.write_text("q0,1e+300,0.0,0.0,inf\n")
    before = ledger.read_bytes()
    assert cli.dp_query_main(args) == 1
    assert capsys.readouterr().err.startswith("error=ValueError detail=epsilon_cap")
    assert cli.dp_query_main([*args[:5], "1.0", *args[6:]]) == 1
    assert capsys.readouterr().err.startswith("error=CapMismatch")
    assert ledger.read_bytes() == before


def _fresh_python(code, *args):
    """Run `python -c code args` in a new interpreter that has imported nothing of the package."""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                          env=env, timeout=60)


@pytest.mark.parametrize("tamper", [False, True])
def test_audit_show_verifies_a_log_without_numpy(tmp_path, readings_csv, capsys, monkeypatch,
                                                  tamper):
    lines = [_request("a1", {"kind": "raw_export"}),
             *(_request(f"a{i}", {"kind": "dp_query", "op": "count", "epsilon": 0.1})
               for i in (2, 3, 4))]
    audit_path = _serve(tmp_path, monkeypatch, "epsilon_cap = 1.0\n",
                        readings_csv.read_text(), lines)
    if tamper:
        records = [json.loads(line) for line in audit_path.read_text().splitlines()]
        records[2]["epsilon_spent"] = 0.0
        audit_path.write_text("".join(json.dumps(rec) + "\n" for rec in records))
    capsys.readouterr()
    rc = cli.audit_show_main(["--log", str(audit_path), "--verify"])
    expected = capsys.readouterr().out
    assert expected.splitlines()[-1] == (
        "chain=invalid first_bad_seq=2" if tamper else "chain=valid")
    # An import of numpy anywhere on the verify path raises ModuleNotFoundError.
    main = ("import sys; sys.modules['numpy'] = None; "
            "from amiprivacy.cli import audit_show_main; sys.exit(audit_show_main())")
    run = _fresh_python(main, "--log", str(audit_path), "--verify")
    assert (run.returncode, run.stdout, run.stderr) == (rc, expected, "")
    assert rc == (1 if tamper else 0)


@pytest.mark.parametrize("first, second", [("gateway", "cli"), ("cli", "gateway")])
def test_each_subsystem_is_one_module_object_in_either_import_order(first, second):
    code = textwrap.dedent(f"""\
        import gc, json, sys, types
        import amiprivacy.{first}, amiprivacy.{second}
        import amiprivacy
        from amiprivacy import cli, dp, gateway
        from amiprivacy.meterdata import EnergyQuantity, FeederDataset

        for name in {{*amiprivacy.__all__, "cli"}} - {{"__version__"}}:
            full = f"amiprivacy.{{name}}"
            objects = [m for m in gc.get_objects()
                       if isinstance(m, types.ModuleType) and m.__name__ == full]
            assert objects == [sys.modules[full]] == [getattr(amiprivacy, name)], full
        dataset = FeederDataset.from_columns(("m1", "m2"), [0, 1], [0, 0], [1500, 250], 3600,
                                             EnergyQuantity(5000))
        engine = gateway.Gateway(dataset, gateway.PolicyConfig(epsilon_cap=1.0),
                                 dp.BudgetLedger(epsilon_cap=1.0), gateway.AuditLog(),
                                 rng=dp.seeded_rng(5))
        line = json.dumps({{"request_id": "over", "requester": "ops", "purpose": "primary",
                           "consent": False, "operation": {{"kind": "dp_query", "op": "count",
                                                            "epsilon": 2.0}}}})
        decision = engine.route(cli.envelope_from_json(line))
        print(decision.allowed, decision.reason.value, engine.audit_log.records[-1].decision)
    """)
    run = _fresh_python(code)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "False BudgetExhausted denied:BudgetExhausted\n"


def _bad_csv(tmp_path, n_meters=3, interval_s=3600, name="readings.csv"):
    path = tmp_path / name
    path.write_text(serialize_csv(make_uniform_dataset(n_meters, 1500, 200, interval_s)))
    return str(path)


def _bad_he_decrypt(tmp_path):
    keypair = he.keygen(128, random.Random(43))
    secret = _secret_file(tmp_path / "key.secret", keypair, **{"lambda": str(keypair.lam + 2)})
    return ["--key", str(secret), format(he.encrypt(keypair.public, 5, 7).value, "x")]


def _bad_he_bill(tmp_path):
    pub = tmp_path / "key.json"
    assert cli.he_keygen_main(["--bits", "128", "--out", str(pub)]) == 0
    (tmp_path / "rates.csv").write_text("10\n20\n")
    (tmp_path / "usage.csv").write_text("0.002\n")
    return ["--pub", str(pub), "--rates", str(tmp_path / "rates.csv"), str(tmp_path / "usage.csv")]


def _bad_anonymize(tmp_path):
    (tmp_path / "key.bin").write_bytes(bytes(32))
    (tmp_path / "in.csv").write_text("meter_id,timestamp,kwh\n,1970-01-01T00:00:00Z,1.000\n")
    return ["--epoch", "1", "--key-file", str(tmp_path / "key.bin"), str(tmp_path / "in.csv"),
            str(tmp_path / "out.csv")]


def _bad_smpc_sum(tmp_path):
    (tmp_path / "in.csv").write_text(f"alice,{2**62 // 1000}.000\nbob,5.000\ncarol,9.000\n")
    return ["--min-participants", "3", "--transcript", str(tmp_path / "t.csv"),
            str(tmp_path / "in.csv")]


def _bad_audit_show(tmp_path):
    log = AuditLog()
    log.append_audit("r1", "ops", "allowed", "laplace", 0.25)
    fields = audit_record_to_dict(log.records[0])
    del fields["mechanism"]
    (tmp_path / "audit.jsonl").write_text(json.dumps(fields) + "\n")
    return ["--log", str(tmp_path / "audit.jsonl"), "--verify"]


@pytest.mark.parametrize("main, bad_argv, error", [
    ("anonymize_main", _bad_anonymize, "EmptyIdentifier"),
    ("dp_query_main", lambda tmp: ["--op", "count", "--epsilon", "2.0", "--ledger",
                                   str(tmp / "ledger.csv"), _bad_csv(tmp)], "BudgetExhausted"),
    ("synth_gen_main", lambda tmp: ["--fit", _bad_csv(tmp), "--clusters", "4", "--households",
                                    "2", "--days", "1", "--seed", "1", "--out",
                                    str(tmp / "synth.csv")], "TooFewSeries"),
    ("synth_check_main", lambda tmp: [_bad_csv(tmp, interval_s=900, name="real.csv"),
                                      _bad_csv(tmp, name="synth.csv"), "--threshold", "0.01"],
     "MisalignedTimestamp"),
    ("fed_train_main", lambda tmp: ["--clients", "2", "--rounds", "1", "--local-steps", "1",
                                    "--lr", "0.01", "--seed", "1", "--interval", "900",
                                    _bad_csv(tmp, n_meters=2, interval_s=900)],
     "FedLearnError"),
    ("smpc_sum_main", _bad_smpc_sum, "SumOverflow"),
    ("he_keygen_main", lambda tmp: ["--bits", "32", "--out", str(tmp / "key.json")],
     "ValueError"),
    ("he_bill_main", _bad_he_bill, "LengthMismatch"),
    ("he_decrypt_main", _bad_he_decrypt, "InvalidSecretKey"),
    ("audit_show_main", _bad_audit_show, "TypeError"),
])
def test_console_scripts_report_bad_input_as_one_error_line_in_a_fresh_interpreter(
    tmp_path, main, bad_argv, error
):
    run = _fresh_python(f"import sys; from amiprivacy.cli import {main}; sys.exit({main}())",
                        *bad_argv(tmp_path))
    assert (run.returncode, run.stdout) == (1, "")
    [line] = run.stderr.splitlines()
    assert line.startswith(f"error={error} detail=")


def _raise(exc):
    def fail(*args, **kwargs):
        raise exc
    return fail


def test_console_scripts_report_any_error_class_the_package_defines(tmp_path, capsys,
                                                                      monkeypatch):
    monkeypatch.setattr(cli, "_parse_policy_file", _raise(AuditWriteFailure("disk full")))
    assert cli.gateway_main(["serve", "--policy", "p.conf", "--data", str(tmp_path)]) == 1
    assert capsys.readouterr() == ("", "error=AuditWriteFailure detail=disk full\n")


def test_console_scripts_let_a_fault_of_the_program_raise(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "_parse_policy_file", _raise(RuntimeError("a bug")))
    with pytest.raises(RuntimeError, match="a bug"):
        cli.gateway_main(["serve", "--policy", "p.conf", "--data", str(tmp_path)])
    assert capsys.readouterr() == ("", "")


@pytest.mark.parametrize("exc, traceback, last_line", [
    # A package error class from a module without numpy, as audit's will be.
    ('type("Broken", (Exception,), {"__module__": "amiprivacy.audit"})("seq 2")', False,
     "error=Broken detail=seq 2"),
    ('RuntimeError("seq 2")', True, "RuntimeError: seq 2"),
])
def test_the_error_rule_holds_without_numpy(tmp_path, exc, traceback, last_line):
    code = textwrap.dedent(f"""\
        import sys
        sys.modules["numpy"] = None
        from amiprivacy import cli
        def verify_chain(records):
            raise {exc}
        cli.verify_chain = verify_chain
        sys.exit(cli.audit_show_main())
    """)
    (tmp_path / "audit.jsonl").write_text("")
    run = _fresh_python(code, "--log", str(tmp_path / "audit.jsonl"), "--verify")
    assert (run.returncode, run.stdout) == (1, "")
    assert run.stderr.startswith("Traceback") is traceback
    assert run.stderr.splitlines()[-1] == last_line


def test_meter_csvs_are_utf8_under_an_ascii_locale(tmp_path):
    ids = ("Zürich-1", "Zürich-2")  # two complete hourly days each, so synth-gen can fit
    milli = [(500 + 37 * i) % 2000 for i in range(96)]
    dataset = FeederDataset.from_columns(ids, [0] * 48 + [1] * 48,
                                         [1_704_067_200 + 3600 * (i % 48) for i in range(96)],
                                         milli, 3600, CAP)
    csv_text = serialize_csv(dataset)
    (tmp_path / "data").mkdir()
    (tmp_path / "data" / "readings.csv").write_text(csv_text, encoding="utf-8")
    (tmp_path / "policy.conf").write_text("epsilon_cap = 1.0\n")
    (tmp_path / "key.bin").write_bytes(bytes(32))
    # One interpreter runs anonymize and synth-gen, then serves the request on stdin.
    script = textwrap.dedent("""
        import sys
        from amiprivacy import cli
        data = "data/readings.csv"
        assert cli.anonymize_main(["--epoch", "1", "--key-file", "key.bin", data, "anon.csv"]) == 0
        assert cli.synth_gen_main(["--fit", data, "--clusters", "1", "--households", "2",
                                   "--days", "1", "--seed", "3", "--out", "synth.csv"]) == 0
        sys.exit(cli.gateway_main(["serve", "--policy", "policy.conf", "--data", "data"]))
    """)
    env = {key: value for key, value in os.environ.items() if key != "PYTHONIOENCODING"}
    env.update(LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0",
               PYTHONPATH=str(Path(cli.__file__).parents[1]))
    run = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env, timeout=120,
                         input=_request("r1", {"kind": "raw_export"}) + "\n",
                         capture_output=True, text=True, encoding="utf-8")
    assert (run.returncode, run.stderr) == (0, "")
    assert json.loads(run.stdout)["result"] == csv_text
    anon = parse_csv((tmp_path / "anon.csv").read_text(encoding="utf-8"), 3600, CAP)
    assert len(anon.meter_ids) == 2 and not set(anon.meter_ids) & set(ids)
    assert len(parse_csv((tmp_path / "synth.csv").read_text(encoding="utf-8"), 3600, CAP)
               .meter_ids) == 2


def test_audit_show_verify_builds_no_audit_record(tmp_path, capsys, monkeypatch):
    log = AuditLog()
    for i in range(50):
        log.append_audit(f"r{i}", "ops", "allowed", "laplace", 0.01)
    lines = [audit_record_to_json(rec) for rec in log.records]
    path = tmp_path / "audit.jsonl"
    path.write_text("".join(line + "\n" for line in lines))
    built = []
    init = AuditRecord.__init__
    monkeypatch.setattr(AuditRecord, "__init__",
                        lambda self, *args, **kwargs: init(self, *args, **kwargs)
                        or built.append(self))
    assert cli.audit_show_main(["--log", str(path), "--verify"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 51 and out[-1] == "chain=valid"
    assert built == []
    audit_record_from_dict(json.loads(lines[0]))  # the spy sees a record that is built
    assert len(built) == 1


def test_audit_show_writes_text_to_a_stdout_without_a_byte_buffer(tmp_path):
    log = AuditLog()
    log.append_audit("r1-ü", "ops", "allowed", "laplace", 0.5)
    path = tmp_path / "audit.jsonl"
    path.write_text(audit_record_to_json(log.records[0]) + "\n", encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.audit_show_main(["--log", str(path), "--verify"]) == 0
    lines = out.getvalue().splitlines()
    assert lines[0].startswith("0,r1-ü,ops,allowed,laplace,0.5,") and lines[1] == "chain=valid"


def _ascii_locale_main(main, args, utf8_mode=False, **kwargs):
    """Run a console script's main in a fresh interpreter under the C locale; bytes out."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONIOENCODING"}
    env.update(LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="1" if utf8_mode else "0",
               PYTHONPATH=str(Path(cli.__file__).parents[1]))
    code = f"import sys; from amiprivacy.cli import {main}; sys.exit({main}())"
    return subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                          timeout=60, **kwargs)


def test_audit_show_prints_utf8_rows_under_an_ascii_locale(tmp_path):
    log = AuditLog()
    log.append_audit("r1-ü", 'ü"ops', "denied:ConsentRequired", "raw", 0.0)
    log.append_audit("r2", "ops", "allowed", "laplace", 0.5)
    path = tmp_path / "audit.jsonl"
    path.write_text("".join(audit_record_to_json(rec) + "\n" for rec in log.records))
    args = ["--log", str(path), "--verify"]
    ascii_run, utf8_run = (_ascii_locale_main("audit_show_main", args, utf8_mode)
                           for utf8_mode in (False, True))
    assert (ascii_run.returncode, ascii_run.stderr) == (0, b"")
    assert ascii_run.stdout == utf8_run.stdout
    lines = utf8_run.stdout.decode("utf-8").splitlines()
    assert lines[0].startswith('0,r1-ü,"ü""ops",denied:ConsentRequired,raw,0.0,')
    assert lines[-1] == "chain=valid"


def test_audit_show_gives_its_verdict_on_a_lone_surrogate(tmp_path, capsys):
    log = AuditLog()
    for i in range(3):
        log.append_audit(f"r{i}", "ops", "allowed", "laplace", 0.1)
    lines = [audit_record_to_json(rec) for rec in log.records]
    lines[1] = lines[1].replace('"request_id": "r1"', '"request_id": "x\\ud800"')
    path = tmp_path / "audit.jsonl"
    path.write_text("".join(line + "\n" for line in lines))
    args = ["--log", str(path), "--verify"]
    # UTF-8 cannot encode the surrogate: the row prints it escaped, and the chain is invalid.
    assert cli.audit_show_main(args) == 1
    in_process = capsys.readouterr()
    assert in_process.err == ""
    for utf8_mode in (False, True):
        run = _ascii_locale_main("audit_show_main", args, utf8_mode)
        assert (run.returncode, run.stderr) == (1, b"")
        assert run.stdout.decode("ascii") == in_process.out
    out = in_process.out.splitlines()
    assert len(out) == 4 and out[1].startswith("1,x\\ud800,ops,allowed,laplace,0.1,")
    assert out[-1] == "chain=invalid first_bad_seq=1"


@pytest.mark.parametrize("value", ["null", "7", '["r1"]'])
def test_audit_show_gives_its_verdict_on_a_text_field_that_is_not_a_string(tmp_path, capsys,
                                                                          value):
    log = AuditLog()
    for i in range(3):
        log.append_audit(f"r{i}", "ops", "allowed", "laplace", 0.1)
    lines = [audit_record_to_json(rec) for rec in log.records]
    lines[1] = lines[1].replace('"request_id": "r1"', f'"request_id": {value}')
    path = tmp_path / "audit.jsonl"
    path.write_text("".join(line + "\n" for line in lines))
    assert cli.audit_show_main(["--log", str(path), "--verify"]) == 1
    out, err = capsys.readouterr()
    assert err == ""
    shown = {"null": "", "7": "7", '["r1"]': "['r1']"}[value]
    assert out.splitlines()[1].startswith(f"1,{shown},ops,allowed,laplace,0.1,")
    assert out.splitlines()[-1] == "chain=invalid first_bad_seq=1"


def test_audit_show_prints_a_row_holding_nul_and_gives_its_verdict(tmp_path, capsys):
    log = AuditLog()
    for i in range(3):
        log.append_audit(f"r{i}", "ops", "allowed", "laplace", 0.1)
    lines = [audit_record_to_json(rec) for rec in log.records]
    lines[1] = lines[1].replace('"request_id": "r1"', '"request_id": "r1\\u0000"')
    path = tmp_path / "audit.jsonl"
    path.write_text("".join(line + "\n" for line in lines))
    assert cli.audit_show_main(["--log", str(path), "--verify"]) == 1
    out, err = capsys.readouterr()
    assert err == ""
    assert out.splitlines()[1].startswith("1,r1\x00,ops,allowed,laplace,0.1,")
    assert out.splitlines()[-1] == "chain=invalid first_bad_seq=1"


def test_smpc_sum_reads_and_writes_utf8_under_an_ascii_locale(tmp_path):
    inputs = tmp_path / "inputs.csv"
    inputs.write_text("zürich,1.000\nbob,2.000\ncarol,3.000\n", encoding="utf-8")
    transcript = tmp_path / "t.csv"
    run = _ascii_locale_main("smpc_sum_main", ["--min-participants", "3", "--seed", "4",
                                               "--transcript", str(transcript), str(inputs)])
    assert (run.returncode, run.stdout, run.stderr) == (0, b"sum_kwh=6.000\n", b"")
    rows = transcript.read_text(encoding="utf-8").splitlines()
    assert "zürich" in {row.split(",")[0] for row in rows}


def test_gateway_serve_reads_a_utf8_policy_file_under_an_ascii_locale(tmp_path, readings_csv):
    policy = tmp_path / "policy.conf"
    policy.write_text("# Zürich feeder\nepsilon_cap = 1.0\n", encoding="utf-8")
    request = _request("r1", {"kind": "dp_query", "op": "count", "epsilon": 0.5}) + "\n"
    run = _ascii_locale_main("gateway_main", ["serve", "--policy", str(policy),
                                              "--data", str(tmp_path)],
                             input=request.encode())
    assert (run.returncode, run.stderr) == (0, b"")
    assert json.loads(run.stdout)["allowed"] is True
