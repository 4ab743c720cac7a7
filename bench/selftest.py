#!/usr/bin/env python3
"""Self-test of the benchmark harness at tiny sizes (about three minutes).

    python3 bench/selftest.py

1. Every workload, untraced and traced, prints exactly the metrics that
   BENCHMARK.json names, each with its unit, and counts no failure.
2. In a temporary copy of the repository whose program is deliberately
   corrupted, every workload counts failures.
3. In a directory holding only BENCHMARK.json and bench/, the benchmark
   exits non-zero without printing a result.

Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import WORKLOADS     # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)

# each corruption breaks one workload's outputs without crashing anything:
# transform lines lose a digit, so they match no value of their model ...
REPLACE = {"src/binopt/cli.py": ('"{:.6f}".format(v)', '"{:.5f}".format(v)')}
# ... and solutions carry an objective their partition does not score
SKEW = {"src/binopt/solver.py": "solve", "src/binopt/localsearch.py": "ls_solve"}
_SKEW_CODE = """

import dataclasses as _dataclasses
_unskewed_{name} = {name}


def {name}(*args, **kwargs):
    sol = _unskewed_{name}(*args, **kwargs)
    if sol.is_feasible:
        sol = _dataclasses.replace(sol, objective=sol.objective + 1e-6)
    return sol
"""


def run(root: str, workload: str, trace: int):
    """(exit code, parsed result or None, stdout) of one tiny run."""
    argv = [*SPEC["command"], "--workload", workload, "--seed", "1",
            "--seconds", "1", "--trace", str(trace), "--scale", "tiny"]
    if argv[0] == "python3":
        argv[0] = sys.executable
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True,
                          timeout=300)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            pass
    return proc.returncode, result, proc.stdout + proc.stderr


def check_metrics(result, trace: int) -> list:
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("result keys {}".format(sorted(result)))
    wanted = {m["name"]: m["unit"]
              for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != wanted:
        missing = sorted(set(wanted) - set(got))
        extra = sorted(set(got) - set(wanted))
        wrong = sorted(k for k in set(got) & set(wanted) if got[k] != wanted[k])
        problems.append("metrics missing {} extra {} wrong unit {}".format(
            missing, extra, wrong))
    if result["failed"] or not result["correct"]:
        problems.append("{} of {} operations failed".format(
            result["failed"], result["attempted"]))
    return problems


def copy_tree(dest: str, with_src: bool) -> None:
    ignore = shutil.ignore_patterns("__pycache__")
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), dest)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(dest, path),
                        ignore=ignore)
    if with_src:
        shutil.copytree(os.path.join(ROOT, "src"), os.path.join(dest, "src"),
                        ignore=ignore)


def corrupt(root: str) -> None:
    for rel in {**REPLACE, **SKEW}:
        path = os.path.join(root, rel)
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        if rel in REPLACE:
            old, new = REPLACE[rel]
            if old not in text:
                raise SystemExit("selftest: cannot corrupt {}".format(rel))
            text = text.replace(old, new)
        else:
            text += _SKEW_CODE.format(name=SKEW[rel])
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def main() -> int:
    failures = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, result, out = run(ROOT, workload, trace)
            label = "{} trace {}".format(workload, trace)
            if code != 0 or result is None:
                failures.append("{}: exit {} without a result\n{}".format(
                    label, code, out[-2000:]))
                continue
            failures += ["{}: {}".format(label, p)
                         for p in check_metrics(result, trace)]
            print("ok  ", label, "prints every metric with its unit")

    tmp_root = os.path.join(ROOT, ".bench_selftest")
    os.makedirs(tmp_root, exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=tmp_root) as tmp:
            copy_tree(tmp, with_src=True)
            corrupt(tmp)
            for workload in WORKLOADS:
                code, result, out = run(tmp, workload, 0)
                if code != 0 or result is None:
                    failures.append("corrupted {}: exit {} without a result"
                                    .format(workload, code))
                elif result["failed"] == 0 or result["correct"]:
                    failures.append("corrupted {}: no failure counted"
                                    .format(workload))
                else:
                    print("ok   corrupted {} counts {} of {} failed".format(
                        workload, result["failed"], result["attempted"]))
        with tempfile.TemporaryDirectory(dir=tmp_root) as tmp:
            copy_tree(tmp, with_src=False)
            code, result, _ = run(tmp, WORKLOADS[0], 0)
            if code == 0 or result is not None:
                failures.append("bare directory: exit {} with result {}"
                                .format(code, result))
            else:
                print("ok   bare directory exits {} without a result".format(code))
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)

    for failure in failures:
        print("FAIL", failure)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
