"""Closed-loop benchmark of `gateway serve`.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the gateway is started from `src/`. One
single-threaded client talks to one `gateway serve` child over its
stdin/stdout protocol and sends each request only after it has read the
previous reply, as every caller of the protocol does.

A run is a series of rounds. Each round starts a fresh gateway on the
workload's inputs, sends the warm-up list (set-up ends with its last
reply), then the timed list, then verifies the audit log with
`audit-show --verify`. Rounds repeat until SECONDS have passed; a round is
never cut short, because the ledger and audit log grow with every request.
Every reply is checked after its round, outside the timed phase. Client
and gateway share one CPU, and every time is scaled by a reference loop
timed between requests (see `Speed`).

With --trace 0 the rounds run the plain entry point and the last output
line carries the end-to-end metrics. With --trace 1 rounds alternate
between the plain entry point and `traced_serve.py`, and the last line
carries the per-layer metrics from the traced rounds' spans and the
tracing overhead. The line before it is a JSON record of the environment,
input sizes, per-kind latency, failures and, when traced, where route
time goes.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import layers
import workloads

BENCH_DIR = Path(__file__).resolve().parent
REPLY_TIMEOUT_S = 60.0
EXIT_TIMEOUT_S = 30.0
MIN_TIMED = 100  # timed requests per run, so that p90 has 10 samples beyond it
# The speed reference: a fixed pure-Python loop, timed between requests.
REF_ITERATIONS = 10_000
REF_NS = 1_000_000  # times are scaled to a machine on which the loop takes 1 ms
REF_EVERY_NS = 50_000_000  # at most one reference sample per 50 ms of requests
REF_WINDOW_NS = 500_000_000  # local speed: median of the samples within 0.5 s of a span
REF_BURST = 5  # reference samples before the spawn, and before and after each verify
VERIFY_RUNS = 3
PLAIN_SERVE = "import sys; from amiprivacy.cli import gateway_main; sys.exit(gateway_main())"
AUDIT_SHOW = "import sys; from amiprivacy.cli import audit_show_main; sys.exit(audit_show_main())"

E2E_UNITS = {
    "setup_s": "s",
    "throughput_rps": "req/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "audit_verify_s": "s",
}


class Client:
    """Line protocol over the child's pipes, with a timeout on every reply."""

    def __init__(self, proc: subprocess.Popen):
        self.proc = proc
        self.out_fd = proc.stdout.fileno()
        self.buf = bytearray()
        self.broken: str | None = None

    def call(self, line: bytes) -> bytes | None:
        if self.broken:
            return None
        try:
            self.proc.stdin.write(line)
            self.proc.stdin.flush()
        except BrokenPipeError:
            self.broken = "gateway closed its stdin"
            return None
        deadline = time.monotonic() + REPLY_TIMEOUT_S
        scanned = 0
        while True:
            end = self.buf.find(b"\n", scanned)
            if end >= 0:
                reply = bytes(self.buf[:end])
                del self.buf[:end + 1]
                return reply
            scanned = len(self.buf)
            ready, _, _ = select.select([self.out_fd], [], [],
                                       max(0.0, deadline - time.monotonic()))
            if not ready:
                self.broken = f"no reply within {REPLY_TIMEOUT_S} s"
                self.proc.kill()
                return None
            chunk = os.read(self.out_fd, 1 << 20)
            if not chunk:
                self.broken = "gateway closed its stdout"
                return None
            self.buf += chunk


class Speed:
    """Reference-loop samples, to scale out the machine's changing speed.

    A small shared virtual machine can swing between speeds by up to 1.8x
    for seconds to minutes at a time, slowing every process alike, and runs
    of a few tens of seconds do not average that out. The client and the
    gateway share one CPU, and the client times the reference loop between
    requests, while the gateway waits; a duration measured at a given
    moment is multiplied by REF_NS over the local reference time.
    """

    def __init__(self):
        self.times: list[int] = []
        self.durations: list[int] = []

    def sample(self, n: int = 1) -> None:
        for _ in range(n):
            start = time.perf_counter_ns()
            acc = 0
            for i in range(REF_ITERATIONS):
                acc += i * i % 7
            end = time.perf_counter_ns()
            self.times.append((start + end) // 2)
            self.durations.append(end - start)

    def sample_if_due(self) -> None:
        if time.perf_counter_ns() - self.times[-1] >= REF_EVERY_NS:
            self.sample()

    def scale(self, start_ns, end_ns) -> np.ndarray:
        """REF_NS over the local reference time of each interval [start, end].

        The local reference time is the median of the samples taken from
        REF_WINDOW_NS before the interval to REF_WINDOW_NS after it, so a
        long request is judged by samples on both sides.
        """
        t = np.array(self.times)
        lo = np.searchsorted(t, np.asarray(start_ns) - REF_WINDOW_NS).tolist()
        hi = np.searchsorted(t, np.asarray(end_ns) + REF_WINDOW_NS, side="right").tolist()
        local: dict[tuple[int, int], float] = {}
        for a, b in zip(lo, hi):
            if (a, b) not in local:
                # No sample near the interval: use the last one before it.
                samples = self.durations[a:b] or [self.durations[max(a - 1, 0)]]
                local[a, b] = REF_NS / statistics.median(samples)
        return np.array([local[w] for w in zip(lo, hi)])


@dataclass
class Round:
    traced: bool
    setup_ns: tuple[int, int] = (0, 0)  # spawn to the last warm-up reply
    rtt_ns: list[int] = field(default_factory=list)
    sent_ns: list[int] = field(default_factory=list)
    replies: dict = field(default_factory=dict)  # request_id -> parsed reply
    failures: list[str] = field(default_factory=list)  # one per failed request
    run_errors: list[str] = field(default_factory=list)  # round-level checks
    peak_rss_mb: float = 0.0
    verify_ns: list[tuple[int, int]] = field(default_factory=list)
    audit: list[dict] = field(default_factory=list)
    spans_path: Path | None = None
    # Speed scales (Speed.scale) of set-up, each timed request and each verify.
    setup_scale: float = 1.0
    rtt_scale: np.ndarray | None = None
    verify_scales: np.ndarray | None = None

    @property
    def setup_s(self) -> float:
        return (self.setup_ns[1] - self.setup_ns[0]) / 1e9

    @property
    def verify_s(self) -> list[float]:
        return [(end - start) / 1e9 for start, end in self.verify_ns]


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    # One gateway thread: privacy_check's matmul would otherwise start a BLAS pool.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_round(wl: workloads.Workload, work: Path, env: dict, idx: int, traced: bool,
              speed: Speed) -> Round:
    rnd = Round(traced=traced)
    log = work / f"audit-r{idx}.jsonl"
    if traced:
        rnd.spans_path = work / f"spans-r{idx}.json"
        cmd = [sys.executable, str(BENCH_DIR / "traced_serve.py"), str(rnd.spans_path)]
    else:
        cmd = [sys.executable, "-c", PLAIN_SERVE]
    cmd += ["serve", "--policy", str(work / "policy.conf"), "--data", str(work),
            "--audit-log", str(log), "--seed", str(wl.seed)]
    raw: list[bytes | None] = []
    with open(work / f"stderr-r{idx}.txt", "wb") as err:
        speed.sample(REF_BURST)
        start = time.perf_counter_ns()
        proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                stderr=err, env=env)
        client = Client(proc)
        for req in wl.warmup:
            raw.append(client.call(req.line))
            speed.sample()
        rnd.setup_ns = (start, time.perf_counter_ns())
        for req in wl.timed:
            speed.sample_if_due()
            sent = time.perf_counter_ns()
            raw.append(client.call(req.line))
            rnd.rtt_ns.append(time.perf_counter_ns() - sent)
            rnd.sent_ns.append(sent)
        speed.sample()
        rnd.peak_rss_mb = _peak_rss_mb(proc.pid)
        code = _finish(proc)
    if client.broken:
        rnd.run_errors.append(client.broken)
    if code != 0:
        tail = (work / f"stderr-r{idx}.txt").read_text(errors="replace")[-400:]
        rnd.run_errors.append(f"gateway exited with code {code}: {tail}")

    rnd.replies, rnd.failures = check_replies(wl.warmup + wl.timed, raw)
    _check_audit(wl, log, env, rnd, speed)
    rnd.setup_scale = float(speed.scale([rnd.setup_ns[0]], [rnd.setup_ns[1]])[0])
    rnd.rtt_scale = speed.scale(rnd.sent_ns, np.add(rnd.sent_ns, rnd.rtt_ns))
    rnd.verify_scales = speed.scale(*zip(*rnd.verify_ns)) if rnd.verify_ns else None
    return rnd


def check_replies(reqs: list[workloads.Request], raw: list[bytes | None]
                  ) -> tuple[dict[str, dict], list[str]]:
    """Parsed replies that pass their checks, and one message per request that fails."""
    replies, failures = {}, []
    for req, line in zip(reqs, raw):
        if line is None:
            failures.append(f"{req.request_id}: no reply")
            continue
        try:
            reply = json.loads(line)
        except ValueError:
            failures.append(f"{req.request_id}: reply is not JSON")
            continue
        problem = workloads.check_reply(req, reply)
        if problem:
            failures.append(f"{req.request_id}: {problem}")
        else:
            replies[req.request_id] = reply
    return replies, failures


def _peak_rss_mb(pid: int) -> float:
    """The child's VmHWM once every reply is in; 0 if it has already exited.

    Not rusage from wait4: Linux carries the parent's RSS high-water mark
    from before exec into the child's ru_maxrss, so that would report the
    benchmark's own memory whenever it is the larger.
    """
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def _finish(proc: subprocess.Popen) -> int:
    """Close stdin and reap the child; its exit code."""
    try:
        proc.stdin.close()
    except BrokenPipeError:
        pass
    try:
        proc.wait(EXIT_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    proc.stdout.close()
    return proc.returncode


def _check_audit(wl: workloads.Workload, log: Path, env: dict, rnd: Round,
                 speed: Speed) -> None:
    """The auditor's verify, one record per request sent, allowed epsilon within the cap.

    The verify is timed VERIFY_RUNS times, since process start-up varies.
    """
    for _ in range(VERIFY_RUNS):
        speed.sample(REF_BURST)
        start = time.perf_counter_ns()
        try:
            shown = subprocess.run(
                [sys.executable, "-c", AUDIT_SHOW, "--log", str(log), "--verify"],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
                timeout=REPLY_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            rnd.run_errors.append("audit-show --verify timed out")
            return
        rnd.verify_ns.append((start, time.perf_counter_ns()))
        speed.sample(REF_BURST)
        if shown.returncode != 0 or not shown.stdout.rstrip().endswith(b"chain=valid"):
            rnd.run_errors.append(f"audit chain does not verify: {shown.stdout[-200:]!r}")
            return
    try:
        rnd.audit = [json.loads(line) for line in log.read_text().splitlines() if line]
    except (OSError, ValueError) as exc:
        rnd.run_errors.append(f"audit log unreadable: {exc}")
        return
    sent = [r.request_id for r in wl.warmup + wl.timed]
    if [rec["request_id"] for rec in rnd.audit] != sent:
        rnd.run_errors.append(f"{len(rnd.audit)} audit records for {len(sent)} requests sent")
    spent = sum(rec["epsilon_spent"] for rec in rnd.audit if rec["decision"] == "allowed")
    if spent > wl.epsilon_cap:
        rnd.run_errors.append(f"allowed epsilon {spent} exceeds the cap {wl.epsilon_cap}")


def _rtt_ms(r: Round, scaled: bool) -> np.ndarray:
    rtt = np.array(r.rtt_ns, dtype=float) / 1e6
    return rtt * r.rtt_scale if scaled else rtt


def end_to_end(rounds: list[Round], scaled: bool = True) -> dict[str, float]:
    """Pooled over the rounds; `scaled` applies the reference-loop speed scale."""
    rtt_ms = np.concatenate([_rtt_ms(r, scaled) for r in rounds])
    p50, p90 = np.percentile(rtt_ms, [50, 90])
    return {
        "setup_s": statistics.median(
            r.setup_s * (r.setup_scale if scaled else 1.0) for r in rounds),
        "throughput_rps": float(len(rtt_ms) / (rtt_ms.sum() / 1e3)),
        "latency_p50_ms": float(p50),
        "latency_p90_ms": float(p90),
        "peak_rss_mb": statistics.median(r.peak_rss_mb for r in rounds),
        "audit_verify_s": statistics.median(
            [statistics.median(v * (k if scaled else 1.0)
                               for v, k in zip(r.verify_s, r.verify_scales))
             for r in rounds if r.verify_s] or [0.0]),
    }


def per_kind_latency(wl: workloads.Workload, rounds: list[Round]) -> dict[str, dict]:
    by_kind: dict[str, list[float]] = {}
    for r in rounds:
        for req, ms in zip(wl.timed, _rtt_ms(r, scaled=True)):
            by_kind.setdefault(req.kind, []).append(ms)
    return {k: {"latency_p50_ms": float(np.median(v)), "samples": len(v)}
            for k, v in sorted(by_kind.items())}


def environment(root: Path) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": _git_commit(root),
    }


def _git_commit(root: Path) -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a clone."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run(wl: workloads.Workload, root: Path, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Run rounds for `seconds`; the result line and the detail record."""
    work = root / ".perfbench" / f"{wl.name}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    (work / "readings.csv").write_text(wl.csv_text)
    (work / "policy.conf").write_text(wl.policy_text)
    env = child_env(root)
    # Client, gateway and reference loop share one CPU: the loop then
    # measures the speed the gateway ran at, and the closed loop keeps
    # only one of them busy at a time.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    speed = Speed()

    rounds: list[Round] = []
    start = time.monotonic()
    while (time.monotonic() - start < seconds or len(rounds) * len(wl.timed) < MIN_TIMED
           or (trace and len(rounds) < 2)):
        traced = trace and len(rounds) % 2 == 1
        rnd = run_round(wl, work, env, len(rounds), traced, speed)
        if not traced:  # only the per-layer metrics read these
            rnd.replies, rnd.audit = {}, []
        rounds.append(rnd)
        if any(r.run_errors for r in rounds):
            break

    plain = [r for r in rounds if not r.traced]
    attempted = len(rounds) * (len(wl.warmup) + len(wl.timed))
    failed = sum(len(r.failures) for r in rounds)
    run_errors = [e for r in rounds for e in r.run_errors]
    detail = {
        "workload": wl.name, "seed": wl.seed, "seconds": seconds, "trace": int(trace),
        "environment": environment(root),
        "inputs": wl.sizes(),
        "reference_loop_ms": {"median": statistics.median(speed.durations) / 1e6,
                              "min": min(speed.durations) / 1e6,
                              "max": max(speed.durations) / 1e6,
                              "samples": len(speed.durations)},
        "unscaled": end_to_end(plain, scaled=False),
        "rounds": [{"traced": r.traced, **end_to_end([r])} for r in rounds],
        "failed_share": failed / attempted,
        "failures": [f for r in rounds for f in r.failures][:20],
        "run_errors": run_errors,
        "per_kind": per_kind_latency(wl, plain),
    }
    if trace:
        units = layers.UNITS
        values = dict.fromkeys(units, 0.0)  # stays 0 only when no traced round completed
        traced_rounds = [r for r in rounds if r.traced and r.spans_path.is_file()]
        if traced_rounds:
            kind_of = {r.request_id: r.kind for r in wl.warmup + wl.timed}
            span_rounds = [{"spans": layers.Spans.load(r.spans_path, speed.scale),
                            "rtt_ns": dict(zip((q.request_id for q in wl.timed),
                                               np.array(r.rtt_ns) * r.rtt_scale)),
                            "audit": r.audit, "replies": r.replies} for r in traced_rounds]
            values.update(layers.per_layer(span_rounds, kind_of, wl.readings))
            values["trace.throughput_ratio"] = (end_to_end(traced_rounds)["throughput_rps"]
                                                / end_to_end(plain)["throughput_rps"])
            detail["route_time_share"] = layers.route_breakdown(
                span_rounds, {r.request_id for r in wl.timed})
    else:
        values, units = end_to_end(plain), E2E_UNITS
    result = {
        "correct": failed == 0 and not run_errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    return result, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "amiprivacy" / "cli.py").is_file():
        print("perfbench: run from the repository root; src/amiprivacy not found",
              file=sys.stderr)
        return 2
    wl = workloads.build(args.workload, args.seed)
    result, detail = run(wl, root, args.seconds, bool(args.trace))
    print(json.dumps(detail, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
