"""The benchmark harness under ``bench/`` still runs against the program.

``test_traced_names.py`` checks that the names the tracer wraps exist; this
runs ``bench/run.py`` itself at its tiny scale, so a keyword the harness
passes (``solve(..., use_presolve=True)``) or a size function the tracer
applies (``len(pairs.pairs)`` for ``aggregate.pvalue_pairs.count``) that the
program no longer accepts fails here.  Each run takes a few seconds and
writes only under the gitignored ``.bench_out/`` and ``.bench_tmp/``.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _bench(*flags) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), "--scale", "tiny",
         "--seconds", "1", *flags],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("flags, counted", [
    # the tiny exact corpus has no binary p-value operation at any seed,
    # so only cli-csv reaches the tracer's pair count
    (("--workload", "cli-csv", "--trace", "1"), "aggregate.pvalue_pairs.count"),
    # the exact search rechecks each answer through binopt.solver, which
    # is what the tracer counts
    (("--workload", "exact-corpus", "--trace", "1"),
     "solver.evaluate_partition.calls"),
    # the local search returns a partition, which the tracer sees rechecked
    (("--workload", "ls-wide", "--trace", "1"), "localsearch.evaluations"),
])
def test_bench_runs_clean_at_tiny_scale(flags, counted):
    result = _bench(*flags)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    if counted:
        assert result["metrics"][counted]["value"] > 0
    if "cli-csv" in flags:
        # the binary fits reach the quality report only through
        # ``quality_mod.assess``, which the tracer wraps: an import by name
        # would hide the calls and zero this layer
        assert result["metrics"]["quality.assess_s"]["value"] > 0
        # the fits route records and count pre-bins through the traced
        # ``preprocess`` names; a call that bypassed them would zero these
        for name in ("preprocess.records.clean", "preprocess.records.special",
                     "preprocess.records.missing", "preprocess.prebins"):
            assert result["metrics"][name]["value"] > 0, name
