"""Recorded ``ls_solve`` results that the local search must keep reproducing.

Every case is a deterministic instance: a ``random_instance`` draw of each
trend family and target kind at n <= 12, and four wider binary tables with the
CLI's 5% size floor.  For each one the stored record is ``(status,
intervals, repr(float(objective)))`` of ``ls_solve(..., seed=...)`` with no
time limit, so any change in the moves the search takes, the restart it
keeps or the objective's last bit shows here.

Regenerate ``tests/data/ls_solve.json`` (only at a commit whose local search
is known to be right) with::

    PYTHONPATH=src python tests/test_ls_fixture.py
"""

import json
import os

import numpy as np
import pytest

from binopt import BinningConfig, TrendSpec, ls_solve, pvalue_pairs

from helpers import TREND_FAMILIES, random_binary_agg, random_instance

FIXTURE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data",
                       "ls_solve.json")

SMALL = 20
WIDE = (("ascending", False), ("descending", True), ("peak", False),
        ("valley:3", True))


def instance(i: int):
    """Case ``i``: (agg, cfg, pairs, seed)."""
    rng = np.random.default_rng(9000 + i)
    if i < SMALL:
        agg, cfg, pairs = random_instance(
            rng, TREND_FAMILIES[i % len(TREND_FAMILIES)], i % 4)
        return agg, cfg, pairs, i
    trend, with_pairs = WIDE[i - SMALL]
    agg = random_binary_agg(rng, 30, high=200)
    cfg = BinningConfig(min_bins=1, min_bin_size=agg.n_records // 20,
                        trend=TrendSpec.parse(trend))
    pairs = pvalue_pairs(agg.R_ne, agg.R_e, 0.05) if with_pairs else None
    return agg, cfg, pairs, i


def record(i: int) -> list:
    agg, cfg, pairs, seed = instance(i)
    sol = ls_solve(agg, cfg, pairs, seed=seed)
    return [sol.status, [list(iv) for iv in sol.intervals],
            repr(float(sol.objective))]


CASES = range(SMALL + len(WIDE))


@pytest.mark.parametrize("i", CASES)
def test_ls_solve_matches_the_recorded_result(i):
    with open(FIXTURE, encoding="utf-8") as fh:
        want = json.load(fh)[i]
    assert record(i) == want


def test_fixture_covers_feasible_and_infeasible_cases():
    with open(FIXTURE, encoding="utf-8") as fh:
        statuses = {rec[0] for rec in json.load(fh)}
    assert {"feasible", "infeasible"} <= statuses


if __name__ == "__main__":
    with open(FIXTURE, "w", encoding="utf-8") as fh:
        json.dump([record(i) for i in CASES], fh, indent=1)
        fh.write("\n")
