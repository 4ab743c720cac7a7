#!/usr/bin/env python3
"""Benchmark of binopt: one workload, one seed, one JSON result line.

Run from the repository root:

    python3 bench/run.py --workload exact-corpus --seed 0 --seconds 25 --trace 0

Workloads are defined in workloads.py.  With ``--trace 0`` the last line of
standard output holds the end-to-end metrics; with ``--trace 1`` a separate
traced run gives the per-layer metrics.  Every run checks the program's
outputs; ``failed`` counts operations that failed, gave a wrong output or hit
the benchmark's own time cap.  The exit code is 0 when a result was printed.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

# one process at a time and no extra threads: keep numerical libraries
# single-threaded here and in every child
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import inputs       # noqa: E402
import workloads    # noqa: E402

DEFAULT_SEED = 0            # output digests are recorded for this seed
DIGESTS = os.path.join(HERE, "digests.json")
SETUP_REPEATS = 5           # fresh interpreters timed for setup_s
WORKER_CAP_S = 150.0        # a whole worker run, however many ops it holds


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def run_child(argv, cap: float, stderr=None):
    """Run one child to completion under a wall-clock cap.

    Returns (CPU seconds, exit code, peak RSS in MB, timed out).  CPU time
    and peak RSS are this child's own, read with wait4 rather than
    RUSAGE_CHILDREN, which keeps the maximum over every child so far."""
    timed_out = []
    proc = subprocess.Popen(argv, env=child_env(), stdout=subprocess.DEVNULL,
                            stderr=stderr or subprocess.DEVNULL)

    def on_alarm(signum, frame):
        timed_out.append(True)
        proc.kill()

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, cap)
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (usage.ru_utime + usage.ru_stime, proc.returncode,
            usage.ru_maxrss / 1024.0, bool(timed_out))


def fresh_import_s(module: str, repeats: int) -> float:
    """Median CPU time of a fresh interpreter importing ``module``, after
    one untimed import that fills the bytecode cache."""
    argv = [sys.executable, "-c", "import " + module]
    times = []
    for k in range(repeats + 1):
        cpu, code, _, timed_out = run_child(argv, 60.0)
        if code != 0 or timed_out:
            raise BenchError("a fresh interpreter cannot import {}".format(module))
        if k:
            times.append(cpu)
    return statistics.median(times)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def load_digests() -> dict:
    if not os.path.exists(DIGESTS):
        return {}
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh)


def recorded(workload: str, seed: int, size: int):
    """The digests recorded for this workload at this seed and size, if any."""
    entry = load_digests().get(workload)
    if seed == DEFAULT_SEED and entry and entry["size"] == size:
        return entry["digests"]
    return None


# --------------------------------------------------------------------------- #
# cli-csv
# --------------------------------------------------------------------------- #

def cli_cycle_check(outputs: dict, rows: int, first: dict | None,
                    expected: dict | None) -> dict:
    """{command: problem} for one cycle of CLI output files."""
    problems = workloads.check_cli_outputs(outputs, rows)
    for command, data in outputs.items():
        digest = workloads.sha(data)
        if first is not None and digest != first[command]:
            problems.setdefault(command, "output differs from the first cycle")
        if expected is not None and digest != expected[command]:
            problems.setdefault(command, "output differs from the recorded digest")
    return problems


def read_outputs(calls) -> dict:
    outputs = {}
    for command, _, path in calls:
        try:
            with open(path, "rb") as fh:
                outputs[command] = fh.read()
        except OSError:
            outputs[command] = b""
    return outputs


def run_cli_csv(args, tmp: str) -> dict:
    rows = workloads.CLI_ROWS[args.scale]
    data = os.path.join(tmp, "data.csv")
    inputs.write_csv(data, args.seed, rows)
    expected = recorded("cli-csv", args.seed, rows)
    cap = workloads.OP_CAP_S["cli-csv"]
    cpu, rss, problems = {}, [], {}
    first = None
    start = time.perf_counter()
    for cycle in itertools.count():
        cycle_start = time.perf_counter()
        calls = workloads.cli_calls(data, tmp)
        for command, cli_args, _ in calls:
            stderr = os.path.join(tmp, "stderr.txt")
            with open(stderr, "wb") as err:
                cpu_s, code, peak, timed_out = run_child(
                    [sys.executable, "-m", "binopt.cli", *cli_args], cap,
                    stderr=err)
            cpu.setdefault(command, []).append(cpu_s)
            rss.append(peak)
            if code != 0 or timed_out:
                with open(stderr, encoding="utf-8", errors="replace") as fh:
                    said = fh.read().strip()[-300:]
                problems[cycle, command] = "exit {}{}: {}".format(
                    code, " (time cap)" if timed_out else "", said)
        outputs = read_outputs(calls)
        for command, problem in cli_cycle_check(outputs, rows, first,
                                                expected).items():
            problems.setdefault((cycle, command), problem)
        if first is None:
            first = {c: workloads.sha(d) for c, d in outputs.items()}
        now = time.perf_counter()
        if now - start + (now - cycle_start) > args.seconds:
            break
    return {"latency": [statistics.median(v) for v in cpu.values()],
            "runs": len(rss), "rss": max(rss), "problems": problems,
            "digests": first, "size": rows,
            "note": "{} cycles of 4 CLI calls on {} rows".format(
                cycle + 1, rows)}


# --------------------------------------------------------------------------- #
# the worker: in-memory workloads, and every traced run
# --------------------------------------------------------------------------- #

def run_worker(args, tmp: str, extra=()) -> tuple:
    """Run worker.py once; returns (operation records, summary, peak RSS)."""
    out = os.path.join(tmp, "worker.jsonl")
    argv = [sys.executable, os.path.join(HERE, "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--scale", args.scale, "--out", out, *extra]
    with open(os.path.join(tmp, "worker-stderr.txt"), "wb") as err:
        _, code, peak, timed_out = run_child(argv, WORKER_CAP_S, stderr=err)
    records, summary = [], None
    if os.path.exists(out):
        with open(out, encoding="utf-8") as fh:
            for line in fh:
                obj = json.loads(line)
                if "summary" in obj:
                    summary = obj["summary"]
                else:
                    records.append(obj)
    if code != 0 or timed_out or summary is None:
        with open(os.path.join(tmp, "worker-stderr.txt"), encoding="utf-8",
                  errors="replace") as fh:
            tail = fh.read()[-2000:]
        print("worker ended with exit {}{}:\n{}".format(
            code, " (time cap)" if timed_out else "", tail), file=sys.stderr)
        records.append({"id": None, "error": "worker did not finish"})
    return records, summary, peak


def corpus_size(args) -> int:
    return (workloads.EXACT_SIZE if args.workload == "exact-corpus"
            else workloads.LS_SIZE)[args.scale]


def check_ops(records, args) -> dict:
    """{(pass, op id): problem} over in-memory operation records: errors,
    failed re-scores, outputs that differ between passes or from the
    recorded digests."""
    expected = recorded(args.workload, args.seed, corpus_size(args))
    seen = {}
    problems = {}
    for rec in records:
        op = rec["id"]
        key = rec.get("pass"), op
        if "error" in rec:
            problems[key] = rec["error"]
        elif not rec["ok"]:
            problems[key] = "re-score disagrees with the solver"
        elif rec["digest"] != seen.setdefault(op, rec["digest"]):
            problems[key] = "output differs between passes"
        elif expected is not None and rec["digest"] != expected[op]:
            problems[key] = "output differs from the recorded digest"
    return problems


def run_in_memory(args, tmp: str) -> dict:
    records, summary, peak = run_worker(args, tmp)
    size = corpus_size(args)
    problems = check_ops(records, args)
    done = [r for r in records if "ms" in r]
    per_op = {}
    for rec in done:
        per_op.setdefault(rec["id"], []).append(rec["ms"] / 1000.0)
    latency = [statistics.median(v) for v in per_op.values()]
    digests = {}
    for rec in done:
        digests.setdefault(rec["id"], rec["digest"])
    return {"latency": latency, "runs": len(records),
            "rss": peak, "problems": problems,
            "digests": [digests.get(i) for i in range(size)], "size": size,
            "note": "{} operations, {} passes".format(
                len(per_op), (summary or {}).get("passes", 0))}


# --------------------------------------------------------------------------- #
# results
# --------------------------------------------------------------------------- #

def end_to_end(args, tmp: str) -> tuple:
    setup = fresh_import_s("binopt", SETUP_REPEATS)
    if args.workload == "cli-csv":
        res = run_cli_csv(args, tmp)
    else:
        res = run_in_memory(args, tmp)
    latency = res["latency"] or [math.nan]
    metrics = {
        "setup_s": (setup, "s"),
        "op_cpu_p50_ms": (1000.0 * statistics.median(latency), "ms"),
        "op_cpu_p95_ms": (1000.0 * percentile(latency, 0.95), "ms"),
        "ops_per_cpu_s": (len(latency) / sum(latency), "1/s"),
        "peak_rss_mb": (res["rss"], "MB"),
    }
    return res, metrics


def traced(args, tmp: str) -> tuple:
    extra = ["--spans", os.path.join(
        ROOT, ".bench_out", "trace-{}-seed{}.json".format(args.workload, args.seed))]
    rows = None
    if args.workload == "cli-csv":
        rows = workloads.CLI_ROWS[args.scale]
        data = os.path.join(tmp, "data.csv")
        inputs.write_csv(data, args.seed, rows)
        extra += ["--data", data, "--tmp", tmp]
    records, summary, _ = run_worker(args, tmp, extra)
    if args.workload == "cli-csv":
        problems = {(r["pass"], r["command"]): r.get("error") or
                    "exit {}".format(r["code"])
                    for r in records if r.get("error") or r.get("code")}
        expected = recorded("cli-csv", args.seed, rows)
        for label in ("untraced", "traced"):
            calls = workloads.cli_calls(data, os.path.join(tmp, label))
            for command, problem in cli_cycle_check(
                    read_outputs(calls), rows, None, expected).items():
                problems.setdefault((label, command), problem)
    else:
        problems = check_ops(records, args)
    summary = summary or {"layers": {}, "shares": {}, "traced_s": 0.0,
                          "untraced_s": 0.0, "spans": 0}
    metrics = {name: tuple(v) for name, v in summary["layers"].items()}
    metrics["setup.scipy_stats_import_s"] = (fresh_import_s("scipy.stats", 3), "s")
    metrics["trace.overhead_s"] = (summary["traced_s"] - summary["untraced_s"], "s")
    metrics["trace.spans"] = (summary["spans"], "count")
    res = {"runs": len(records), "problems": problems,
           "note": "traced {:.2f} s, untraced {:.2f} s; layer shares of traced "
                   "time: {}".format(summary["traced_s"], summary["untraced_s"],
                                     ", ".join("{} {:.1%}".format(k, v) for k, v
                                               in summary["shares"].items()))}
    return res, metrics


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full",
                   help="tiny inputs, for the harness self-test")
    p.add_argument("--record-digests", action="store_true",
                   help="store this run's output digests as the reference "
                        "(default seed, untraced)")
    args = p.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "binopt")):
        print("bench: no src/binopt under {}".format(ROOT), file=sys.stderr)
        return 2
    tmp_root = os.path.join(ROOT, ".bench_tmp")
    os.makedirs(tmp_root, exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=tmp_root) as tmp:
            if args.trace:
                res, metrics = traced(args, tmp)
            else:
                res, metrics = end_to_end(args, tmp)
    except BenchError as exc:
        print("bench: {}".format(exc), file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)

    if args.record_digests:
        record_digests(args, res)
    attempted = max(1, res["runs"])
    failed = len(res["problems"])
    for key, problem in list(res["problems"].items())[:20]:
        print("FAILED", key, problem)
    print("{} seed {}: {}; failed_share {}/{} = {:.4f}".format(
        args.workload, args.seed, res["note"], failed, attempted,
        failed / attempted))
    for name, (value, unit) in metrics.items():
        print("  {:<36} {:>14.6g} {}".format(name, value, unit))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


def record_digests(args, res) -> None:
    if args.seed != DEFAULT_SEED or args.trace or res["problems"]:
        raise SystemExit("bench: digests are recorded from a clean untraced "
                         "run at seed {}".format(DEFAULT_SEED))
    table = load_digests()
    table[args.workload] = {"seed": args.seed, "size": res["size"],
                            "digests": res["digests"]}
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    sys.exit(main())
