"""Self-test of the benchmark at a tiny size.

    python3 perfbench/selftest.py

Run from the repository root; takes well under a minute. For every
workload it runs one plain and one traced pass at a tiny size and asserts
that all checks pass and that every metric named in BENCHMARK.json is
printed with its unit. It then asserts that an altered `smpc_sum` total
is counted as a failed request, and that the benchmark refuses to run
without the program's sources.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import run
import workloads

TINY = {
    "feeder_analytics": {"meters": 20, "days": 2, "timed": 100},
    "protocol_mix": {"meters": 12, "days": 5, "timed": 100, "parties": 5, "he_intervals": 8,
                     "fed_clients": 2, "fed_rounds": 2, "synth_households": 4},
    "audit_stream": {"meters": 10, "days": 2, "timed": 100, "budget_charges": 8},
}


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def check_metrics(result: dict, listed: list[dict], label: str) -> None:
    check(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
          f"{label}: run was not correct: {result}")
    got = result["metrics"]
    check(set(got) == {m["name"] for m in listed},
          f"{label}: metric names differ from BENCHMARK.json: "
          f"{sorted(set(got) ^ {m['name'] for m in listed})}")
    for m in listed:
        value = got[m["name"]]
        check(value["unit"] == m["unit"], f"{label}: {m['name']} unit {value['unit']!r}")
        check(isinstance(value["value"], (int, float)) and math.isfinite(value["value"]),
              f"{label}: {m['name']} value {value['value']!r}")


def main() -> int:
    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    for name in workloads.WORKLOADS:
        wl = workloads.build(name, seed=7, size=TINY[name])
        for trace, listed in ((False, spec["end_to_end"]), (True, spec["per_layer"])):
            result, detail = run.run(wl, root, seconds=0, trace=trace)
            label = f"{name} trace={int(trace)}"
            check_metrics(result, listed, label)
            if not trace:
                check(all(result["metrics"][m["name"]]["value"] > 0 for m in listed),
                      f"{label}: an end-to-end metric is 0")
            else:
                check(detail["route_time_share"], f"{label}: no route spans")
            print(f"ok  {label}: {result['attempted']} requests, all checks pass")

    # An altered secure-sum total must count as a failed request.
    wl = workloads.build("protocol_mix", seed=7, size=TINY["protocol_mix"])
    work = root / ".perfbench" / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    (work / "readings.csv").write_text(wl.csv_text)
    (work / "policy.conf").write_text(wl.policy_text)
    rnd = run.run_round(wl, work, run.child_env(root), 0, False, run.Speed())
    reqs = wl.warmup + wl.timed
    check(not rnd.failures and len(rnd.replies) == len(reqs), "tiny round failed")
    target = next(r.request_id for r in wl.timed if r.kind == "smpc_sum")
    raw = []
    for req in reqs:
        reply = json.loads(json.dumps(rnd.replies[req.request_id]))
        if req.request_id == target:
            reply["result"]["total_milli"] += 1
        raw.append(json.dumps(reply).encode())
    _, failures = run.check_replies(reqs, raw)
    check(len(failures) == 1 and failures[0].startswith(target),
          f"altered smpc_sum reply not counted as failed: {failures}")
    print("ok  an altered smpc_sum total counts as one failed request")

    # Without src/ the benchmark exits non-zero and prints no result.
    bare = work / "bare"
    shutil.copytree(Path(__file__).resolve().parent, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(root / "BENCHMARK.json", bare)
    proc = subprocess.run(spec["command"] + ["--workload", "audit_stream", "--seed", "1",
                                             "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, timeout=60)
    check(proc.returncode != 0 and not proc.stdout, "ran without the program's sources")
    print("ok  without src/ the benchmark exits with code", proc.returncode)
    shutil.rmtree(work)
    return 0


if __name__ == "__main__":
    sys.exit(main())
