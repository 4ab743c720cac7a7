"""The single worker process of a benchmark run.

run.py starts it, reads its peak RSS and stops it if it overruns.  Untraced,
it runs the exact-corpus or ls-wide operations for the given number of
seconds.  With ``--trace 1`` it runs one workload's operations once untraced
and once traced, in this process (CLI calls through ``binopt.cli.main``),
and writes the spans and per-layer metrics.  It writes one JSON object per
line to ``--out``: one per operation, then a summary.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import signal
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import inputs                       # noqa: E402
import ops                          # noqa: E402
import tracing                      # noqa: E402
import workloads                    # noqa: E402
from binopt import cli              # noqa: E402


class OpTimeout(Exception):
    """The benchmark's per-operation time cap ran out."""


def _on_alarm(signum, frame):
    raise OpTimeout()


def timed(fn, cap: float):
    """fn() under a wall-clock cap; returns (result, CPU s, wall s)."""
    signal.setitimer(signal.ITIMER_REAL, cap)
    wall, cpu = time.perf_counter(), time.process_time()
    try:
        result = fn()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return result, time.process_time() - cpu, time.perf_counter() - wall


def _error(exc: BaseException) -> str:
    return "{}: {}".format(type(exc).__name__, exc)


# --------------------------------------------------------------------------- #
# in-memory operations
# --------------------------------------------------------------------------- #

def specs_for(workload: str, seed: int, scale: str) -> list:
    if workload == "exact-corpus":
        return inputs.exact_specs(seed, workloads.EXACT_SIZE[scale])
    return inputs.ls_specs(seed, workloads.LS_SIZE[scale])


def measure(spec: dict, prepared, cap: float, repeat: bool,
            tracer=None) -> dict:
    """Run one operation (three times when it is fast and ``repeat``), time
    it, re-score its solution and digest it."""
    table, cfg = prepared
    rec = {"id": spec["id"], "runs": 0}
    cpu, wall, digests = [], [], set()
    try:
        while True:
            rec["runs"] += 1
            attempt = time.perf_counter()
            if tracer is not None:
                tracer.recording = True
            try:
                (sol, agg, cfg_used, pairs), cpu_s, wall_s = timed(
                    lambda: ops.run(table, cfg, ls_seed=spec.get("ls_seed")),
                    cap)
            finally:
                if tracer is not None:
                    tracer.recording = False
            cpu.append(cpu_s)
            wall.append(wall_s)
            digests.add(ops.digest(sol))
            if len(cpu) == 1:
                rec["ok"] = ops.rescore(sol, agg, cfg_used, pairs)
                rec["status"] = sol.status
            if not repeat or cpu_s >= workloads.REPEAT_BELOW_S or len(cpu) == 3:
                break
    except Exception as exc:        # the operation fails; the run goes on
        rec["error"] = _error(exc)
        wall.append(time.perf_counter() - attempt)
    rec["wall_s"] = sum(wall)
    if "error" not in rec:
        rec["ms"] = 1000.0 * statistics.median(cpu)
        rec["digest"] = digests.pop() if len(digests) == 1 else "varies"
    return rec


def run_untraced(args, emit) -> None:
    """Whole passes over the corpus until the next would overrun --seconds."""
    specs = specs_for(args.workload, args.seed, args.scale)
    prepared = [ops.prepare(spec) for spec in specs]
    cap = workloads.OP_CAP_S[args.workload]
    start = time.perf_counter()
    passes = 0
    while True:
        pass_start = time.perf_counter()
        for spec, prep in zip(specs, prepared):
            emit(dict(measure(spec, prep, cap, repeat=True), **{"pass": passes}))
        passes += 1
        now = time.perf_counter()
        if now - start + (now - pass_start) > args.seconds:
            break
    emit({"summary": {"passes": passes}})


def _tags(spec: dict) -> dict:
    kind = spec["kind"].split("-")[0]
    return {"family": spec["family"], "kind": kind}


# --------------------------------------------------------------------------- #
# traced runs
# --------------------------------------------------------------------------- #

def _cli_call(argv) -> int:
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        try:
            return cli.main(argv)
        except SystemExit as exc:       # argparse rejected the arguments
            return exc.code if isinstance(exc.code, int) else 1


def traced_pass(args, tracer, emit, label: str) -> float:
    """One pass over the workload's operations; returns their total wall
    time, the time base of the spans.  Spans are recorded when ``tracer`` is
    given."""
    cap = workloads.OP_CAP_S[args.workload]
    total = 0.0
    if args.workload == "cli-csv":
        out_dir = os.path.join(args.tmp, label)
        os.makedirs(out_dir, exist_ok=True)
        for op_id, (command, argv, output) in enumerate(
                workloads.cli_calls(args.data, out_dir)):
            rec = {"id": op_id, "command": command, "output": output,
                   "pass": label}
            if tracer is not None:
                tracer.op = op_id
                tracer.op_tags[op_id] = {
                    "command": command, "kind": "binary",
                    "family": "auto" if command == "fit-num" else "none"}
                tracer.recording = True
            start = time.perf_counter()
            try:
                rec["code"], _, _ = timed(lambda: _cli_call(argv), cap)
            except Exception as exc:    # the call fails; the run goes on
                rec["error"] = _error(exc)
            finally:
                if tracer is not None:
                    tracer.recording = False
            total += time.perf_counter() - start
            emit(rec)
        return total
    specs = specs_for(args.workload, args.seed, args.scale)
    for spec, prep in zip(specs, map(ops.prepare, specs)):
        if tracer is not None:
            tracer.op = spec["id"]
            tracer.op_tags[spec["id"]] = _tags(spec)
        rec = measure(spec, prep, cap, repeat=False, tracer=tracer)
        emit(dict(rec, **{"pass": label}))
        total += rec["wall_s"]
    return total


def run_traced(args, emit) -> None:
    plain_s = traced_pass(args, None, emit, "untraced")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced_s = traced_pass(args, tracer, emit, "traced")
    finally:
        tracer.remove()
    spans = tracer.spans
    os.makedirs(os.path.dirname(args.spans), exist_ok=True)
    with open(args.spans, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "op", "size"],
                   "op_tags": tracer.op_tags, "spans": spans}, fh)
    emit({"summary": {
        "layers": tracing.layer_metrics(spans, tracer.op_tags),
        "shares": tracing.layer_shares(spans, traced_s),
        "traced_s": traced_s, "untraced_s": plain_s, "spans": len(spans)}})


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full")
    p.add_argument("--out", required=True, help="JSON-lines result file")
    p.add_argument("--data", help="cli-csv: the generated CSV")
    p.add_argument("--tmp", help="cli-csv: directory for model and output files")
    p.add_argument("--spans", help="traced runs: where to write the spans")
    args = p.parse_args(argv)
    signal.signal(signal.SIGALRM, _on_alarm)
    with open(args.out, "w", encoding="utf-8") as fh:
        def emit(obj):
            fh.write(json.dumps(obj) + "\n")
            fh.flush()
        if args.trace:
            run_traced(args, emit)
        else:
            run_untraced(args, emit)
    return 0


if __name__ == "__main__":
    sys.exit(main())
