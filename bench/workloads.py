"""The three benchmark workloads: what each runs, at what size, and why.

Every workload is a closed loop with one client: the next operation starts
when the previous one has finished, one process at a time, with no extra
threads.  Sizes come in two scales: ``full`` for measurement and ``tiny`` for
the harness self-test.
"""

from __future__ import annotations

import hashlib
import json
import os

from inputs import SENTINEL

WORKLOADS = ("cli-csv", "exact-corpus", "ls-wide")
CLI_COMMANDS = ("fit-num", "fit-cat", "transform-num", "transform-cat")

# cli-csv: `fit` then `transform` as CLI subprocesses on one generated CSV,
# for a numeric column (3% empty cells, 2% sentinel, auto trend, p-value
# separation) and a categorical one (60 skewed categories, rare ones pooled).
# Why: this is the only workload that drives `cli` and `preprocess`.  The
# solver only sees n <= 20 pre-bins here, so a solver change should show no
# change on this workload.  Fit and transform use the same ingest code in
# different ways, and so do the numeric and categorical paths; an ingest
# rewrite that helps one and hurts the other therefore shows.  The row count
# makes CSV ingest, not interpreter start-up, dominate each fit.
CLI_ROWS = {"full": 500_000, "tiny": 3_000}

# exact-corpus: in-memory pre-bin tables (binary iv/jsd, continuous and
# multi-class targets; all ten trend families; the 5% floor alone, with
# max_pvalue, with max_bins/min_diff, or with a concentration penalty), each
# operation being aggregates, p-value pairs when configured, then
# solve(..., use_presolve=True).
# Why: this workload is dominated by the solver.  It holds both the
# heavy-tailed cases an interval DP targets (none, peak, valley and auto
# under the floor) and the cases that stay on branch and bound (concave,
# convex and the penalties), so a DP should move some families and leave
# others unchanged.  480 instances put 24 samples beyond p95.
EXACT_SIZE = {"full": 480, "tiny": 12}

# ls-wide: binary tables of 60 to 76 pre-bins, with and without max_pvalue;
# each operation is aggregates, p-value pairs, then ls_solve(seed=...,
# time_limit=None), which is deterministic.
# Why: this workload drives `localsearch`, and `aggregate` at widths where
# the O(n^3) pvalue_pairs is visible.  It never calls solve(), so an
# exact-solver change should show no change here.
LS_SIZE = {"full": 3, "tiny": 1}

# the harness's own per-operation time cap; an operation that hits it fails
OP_CAP_S = {"cli-csv": 30.0, "exact-corpus": 20.0, "ls-wide": 30.0}

# in-memory operations faster than this are run three times back to back and
# timed by the median, so one scheduler hiccup does not move a percentile
REPEAT_BELOW_S = 0.05


# --------------------------------------------------------------------------- #
# cli-csv calls and their output checks
# --------------------------------------------------------------------------- #

def cli_calls(data: str, out_dir: str) -> list:
    """(command, arguments after ``binopt``, output file) for one cycle."""
    files = {k: os.path.join(out_dir, k) for k in
             ("num.json", "num.txt", "cat.json", "cat.txt")}
    common = ["--data", data, "--target", "y", "--model"]
    return [
        ("fit-num", ["fit", "--variable", "num", "--trend", "auto",
                     "--special-values=" + SENTINEL, "--max-pvalue", "0.05",
                     *common, files["num.json"]], files["num.json"]),
        ("transform-num", ["transform", "--data", data, "--model",
                           files["num.json"], "--output", files["num.txt"]],
         files["num.txt"]),
        ("fit-cat", ["fit", "--variable", "cat", "--others-cutoff", "0.01",
                     *common, files["cat.json"]], files["cat.json"]),
        ("transform-cat", ["transform", "--data", data, "--model",
                           files["cat.json"], "--output", files["cat.txt"]],
         files["cat.txt"]),
    ]


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def check_cli_outputs(outputs: dict, rows: int) -> dict:
    """Seed-independent checks of one cycle's files: {command: problem}.

    A model's bins, pools and missing/special rows must account for every
    row, and every transform line must be one of its model's values."""
    problems = {}
    for column in ("num", "cat"):
        fit, transform = "fit-" + column, "transform-" + column
        try:
            model = json.loads(outputs[fit])
        except ValueError as exc:
            problems[fit] = "model is not JSON: {}".format(exc)
            continue
        pools = [model["special"], model["missing"], model["others_stats"]]
        counted = sum(b["count"] for b in model["bins"] + [p for p in pools if p])
        if counted != rows:
            problems[fit] = "model counts {} rows of {}".format(counted, rows)
        values = [*model["transform_values"], model["special_value"],
                  model["missing_value"], model["others_value"]]
        allowed = {"{:.6f}".format(v) for v in values}
        lines = outputs[transform].decode().splitlines()
        if len(lines) != rows:
            problems[transform] = "{} lines for {} rows".format(len(lines), rows)
        elif not allowed.issuperset(lines):
            problems[transform] = "a value that is not in the model"
    return problems
