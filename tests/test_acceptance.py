"""Acceptance checks, one test per advertised guarantee.

Run with ``pytest -v tests/test_acceptance.py`` to get a pass/fail line per
guarantee.  Reference numbers are hand-tabulated values from a published
credit-scoring example, frozen here as plain literals.  The solver checks run
on a shared corpus of randomized instances: 200 per trend family, cycling
through binary (IV and JSD), continuous, and multi-class targets with a mixed
bag of bin-count, record-count, separation, p-value, and concentration
constraints.
"""

import math
import time
from collections import Counter, namedtuple
from dataclasses import replace

import numpy as np
import pytest

from binopt import (
    BinningConfig, TrendSpec,
    apply_pvalue_constraint, brute_force_oracle, c_star, check_trend,
    divergence_contrib, evaluate_partition, iv_label,
    ls_solve, quality_score, rayleigh_factor, solve, woe,
)
from binopt import cli

from helpers import TREND_FAMILIES, presolved_solve, random_instance

EPS = 1e-12

# --------------------------------------------------------------------------- #
# shared solver corpus
# --------------------------------------------------------------------------- #

N_PER_FAMILY = 200

Record = namedtuple("Record", "family flavor agg cfg pairs exact pre oracle")


@pytest.fixture(scope="module")
def corpus():
    """Solve every instance three ways: plain, with presolve's interval
    elimination applied to the search's allowed bins, and by exhaustive
    enumeration.  Timed as a whole."""
    rng = np.random.default_rng(20240817)
    records = []
    t0 = time.perf_counter()
    for family in TREND_FAMILIES:
        for i in range(N_PER_FAMILY):
            agg, cfg, pairs = random_instance(rng, family, i % 4)
            exact = solve(agg, cfg, pairs)
            pre = presolved_solve(agg, cfg, pairs)
            oracle = brute_force_oracle(agg, cfg, pairs)
            records.append(Record(family, i % 4, agg, cfg, pairs,
                                  exact, pre, oracle))
    elapsed = time.perf_counter() - t0
    return records, elapsed


# --------------------------------------------------------------------------- #
# 1. normalized Rayleigh bump at hand-tabulated points
# --------------------------------------------------------------------------- #

def test_a1_rayleigh_reference_values():
    scale = c_star(0.3, 0.5)
    points = (0.02, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0, 1.5)
    expected = (0.083, 0.404, 0.938, 0.938, 0.610, 0.282, 0.171, 0.005)
    for v, want in zip(points, expected):
        assert rayleigh_factor(v, scale) == pytest.approx(want, abs=1e-3)


# --------------------------------------------------------------------------- #
# 2. reference binning table arithmetic
# --------------------------------------------------------------------------- #

# count, non-event, event, event rate, WoE, IV contribution, JS contribution
REFERENCE_ROWS = (
    (544, 99, 445, 0.818015, -1.41513, 0.087337, 0.010089),
    (1060, 286, 774, 0.730189, -0.907752, 0.076782, 0.009281),
    (528, 184, 344, 0.651515, -0.537878, 0.014101, 0.001742),
    (1099, 450, 649, 0.590537, -0.278357, 0.008041, 0.001002),
    (791, 369, 422, 0.533502, -0.046381, 0.000162, 0.000020),
    (536, 262, 274, 0.511194, 0.0430441, 0.000095, 0.000012),
    (912, 475, 437, 0.479167, 0.171209, 0.002559, 0.000320),
    (2009, 1141, 868, 0.432056, 0.361296, 0.025000, 0.003108),
    (848, 532, 316, 0.372642, 0.608729, 0.029532, 0.003636),
    (1084, 702, 382, 0.352399, 0.696341, 0.049039, 0.006009),
    (558, 252, 306, 0.548387, -0.106328, 0.000601, 0.000075),   # special
    (490, 248, 242, 0.493878, 0.112319, 0.000592, 0.000074),    # missing
)


def test_a2_reference_table_arithmetic():
    ne_total = sum(r[1] for r in REFERENCE_ROWS)
    e_total = sum(r[2] for r in REFERENCE_ROWS)
    assert ne_total == 5000
    assert e_total == 5459
    for count, ne, ev, rate, w, iv, js in REFERENCE_ROWS:
        assert count == ne + ev
        assert ev / count == pytest.approx(rate, abs=1e-4)
        assert woe(ne, ev, ne_total, e_total) == pytest.approx(w, abs=1e-4)
        p, q = ne / ne_total, ev / e_total
        assert divergence_contrib(p, q, "iv") == pytest.approx(iv, abs=1e-5)
        assert divergence_contrib(p, q, "jsd") == pytest.approx(js, abs=1e-5)


# --------------------------------------------------------------------------- #
# 3. exact solver vs exhaustive enumeration
# --------------------------------------------------------------------------- #

def test_a3_exact_solver_matches_oracle(corpus):
    records, elapsed = corpus
    per_family = Counter(r.family for r in records)
    assert set(per_family) == set(TREND_FAMILIES)
    assert all(v >= 200 for v in per_family.values())
    assert max(r.agg.n for r in records) <= 12
    for r in records:
        assert r.exact.status == r.oracle.status, (r.family, r.cfg)
        if r.exact.is_feasible:
            assert r.exact.objective == r.oracle.objective, (r.family, r.cfg)
            assert r.exact.intervals == r.oracle.intervals, (r.family, r.cfg)
    assert elapsed < 300.0, "corpus solve+enumeration took {:.1f}s".format(elapsed)


# --------------------------------------------------------------------------- #
# 4. interval elimination changes nothing
# --------------------------------------------------------------------------- #

def test_a4_presolve_soundness(corpus):
    records, _ = corpus
    for r in records:
        assert r.pre.status == r.exact.status, (r.family, r.cfg)
        assert r.pre.intervals == r.exact.intervals, (r.family, r.cfg)
        if r.exact.is_feasible:
            assert r.pre.objective == r.exact.objective, (r.family, r.cfg)


# --------------------------------------------------------------------------- #
# 5. peak/valley change-point decomposition vs the shape predicate
# --------------------------------------------------------------------------- #

def _concentration(intervals, R, kind):
    """The sample std, HHI or max-min of the bins' record counts."""
    counts = [float(R[e, s]) for s, e in intervals]
    m = len(counts)
    if kind == "std":
        if m == 1:
            return 0.0
        mean = sum(counts) / m
        return math.sqrt(sum((c - mean) ** 2 for c in counts) / (m - 1))
    if kind == "hhi":
        return sum(c * c for c in counts) / (sum(counts) * sum(counts))
    assert kind == "maxmin", kind
    return max(counts) - min(counts)


def _independent_best(agg, cfg, pairs, trend):
    """Best objective over all partitions passing the public checks only.

    Built from scratch in this test: enumerate every contiguous partition,
    filter with check_trend / record bounds / apply_pvalue_constraint, and
    score straight off the aggregate matrices.
    """
    n = agg.n
    minimize = agg.target.is_continuous
    obj = agg.objective_matrix()
    mat = agg.rate_matrices()[0]
    b_max = cfg.max_bins if cfg.max_bins is not None else n
    r_min = cfg.min_bin_size or 0
    r_max = cfg.max_bin_size if cfg.max_bin_size is not None else math.inf
    ne_min = cfg.min_nonevent or 0
    ne_max = cfg.max_nonevent if cfg.max_nonevent is not None else math.inf
    e_min = cfg.min_event or 0
    e_max = cfg.max_event if cfg.max_event is not None else math.inf

    best = None
    for bits in range(1 << (n - 1)):
        intervals = []
        s = 0
        for i in range(n - 1):
            if bits >> i & 1:
                intervals.append((s, i))
                s = i + 1
        intervals.append((s, n - 1))
        if not cfg.min_bins <= len(intervals) <= b_max:
            continue
        if any(not r_min <= agg.R[e, s0] <= r_max for s0, e in intervals):
            continue
        if agg.R_ne is not None:
            if any(not ne_min <= agg.R_ne[e, s0] <= ne_max
                   for s0, e in intervals):
                continue
            if any(not e_min <= agg.R_e[e, s0] <= e_max
                   for s0, e in intervals):
                continue
        rates = [mat[e, s0] for s0, e in intervals]
        if not check_trend(rates, trend, cfg.min_diff):
            continue
        if not apply_pvalue_constraint(intervals, pairs):
            continue
        total = 0.0
        for s0, e in intervals:
            total += obj[e, s0]
        gamma = cfg.gamma if cfg.concentration != "off" else 0.0
        if gamma:
            pen = gamma * _concentration(intervals, agg.R, cfg.concentration)
            total = total + pen if minimize else total - pen
        if best is None or (total < best if minimize else total > best):
            best = total
    return best


def test_a5_peak_valley_equivalence(corpus):
    records, _ = corpus
    checked = 0
    for idx, r in enumerate(records):
        if r.agg.target.is_multiclass:
            continue            # single-shape solve works on one rate sequence
        kind = r.cfg.trend.kind
        configs = []
        if kind in ("peak", "valley") and r.cfg.trend.change_point is None:
            configs.append(r.cfg)
        elif kind not in ("peak", "valley") and idx % 8 == 0:
            configs.append(replace(r.cfg, trend=TrendSpec("peak")))
            configs.append(replace(r.cfg, trend=TrendSpec("valley")))
        for cfg in configs:
            got = solve(r.agg, cfg, r.pairs)
            want = _independent_best(r.agg, cfg, r.pairs, cfg.trend)
            if want is None:
                assert not got.is_feasible, (r.family, cfg)
            else:
                assert got.is_feasible, (r.family, cfg)
                assert got.objective == want, (r.family, cfg)
            checked += 1
    assert checked >= 400


# --------------------------------------------------------------------------- #
# 6. every returned solution re-verifies from the outside
# --------------------------------------------------------------------------- #

def _chain_holds(rates, lo, hi, ascending, beta):
    for a in range(lo, hi):
        for b in range(a + 1, hi):
            if ascending and rates[b] < rates[a] + beta - EPS:
                return False
            if not ascending and rates[b] > rates[a] - beta + EPS:
                return False
    return True


def _pin_respected(intervals, rates, trend, beta):
    """With a pinned change point, the bin holding it must top (bottom) both
    chains."""
    t = trend.change_point
    p = next(i for i, (s, e) in enumerate(intervals) if s <= t <= e)
    up_first = trend.kind == "peak"
    return (_chain_holds(rates, 0, p + 1, up_first, beta)
            and _chain_holds(rates, p, len(rates), not up_first, beta))


def _verify_solution(sol, agg, cfg, pairs):
    intervals = sol.intervals
    assert evaluate_partition(intervals, agg,
                              replace(cfg, trend=sol.trend_used), pairs)[0]
    m = len(intervals)
    n = agg.n
    assert cfg.min_bins <= m <= (cfg.max_bins if cfg.max_bins is not None else n)
    r_min = cfg.min_bin_size or 0
    r_max = cfg.max_bin_size if cfg.max_bin_size is not None else math.inf
    for s, e in intervals:
        assert r_min <= agg.R[e, s] <= r_max
    if agg.R_ne is not None:
        for s, e in intervals:
            if cfg.min_nonevent is not None:
                assert agg.R_ne[e, s] >= cfg.min_nonevent
            if cfg.max_nonevent is not None:
                assert agg.R_ne[e, s] <= cfg.max_nonevent
            if cfg.min_event is not None:
                assert agg.R_e[e, s] >= cfg.min_event
            if cfg.max_event is not None:
                assert agg.R_e[e, s] <= cfg.max_event

    trends = sol.trend_used
    if isinstance(trends, TrendSpec):
        trends = (trends,)
    assert len(trends) == len(agg.rate_matrices())
    for mat, trend in zip(agg.rate_matrices(), trends):
        assert trend.kind != "auto"
        rates = [mat[e, s] for s, e in intervals]
        assert check_trend(rates, TrendSpec(trend.kind), cfg.min_diff)
        if trend.kind in ("peak", "valley") and trend.change_point is not None:
            assert _pin_respected(intervals, rates, trend, cfg.min_diff)

    assert apply_pvalue_constraint(intervals, pairs)

    obj = agg.objective_matrix()
    total = 0.0
    for s, e in intervals:
        total += obj[e, s]
    gamma = cfg.gamma if cfg.concentration != "off" else 0.0
    if gamma:
        pen = gamma * _concentration(intervals, agg.R, cfg.concentration)
        total = total + pen if agg.target.is_continuous else total - pen
    assert math.isclose(sol.objective, total, rel_tol=1e-9, abs_tol=1e-12)


def test_a6_feasibility_postcheck(corpus):
    records, _ = corpus
    verified = 0
    for r in records:
        for sol in (r.exact, r.pre):
            if sol.is_feasible:
                _verify_solution(sol, r.agg, r.cfg, r.pairs)
                verified += 1
    assert verified > 0

    # merging everything into one bin kills all separation: divergence
    # must come out exactly zero, for both divergence kinds and per-class sums
    merged = 0
    for r in records:
        if r.agg.target.is_continuous or merged >= 60:
            continue
        cfg = BinningConfig(min_bins=1, max_bins=1,
                            divergence=r.agg.divergence or "iv")
        sol = solve(r.agg, cfg)
        assert sol.is_feasible
        assert sol.intervals == ((0, r.agg.n - 1),)
        assert sol.objective == 0.0
        merged += 1
    assert merged == 60


# --------------------------------------------------------------------------- #
# 7. local search lands close to the exact optimum
# --------------------------------------------------------------------------- #

def test_a7_local_search(corpus):
    records, _ = corpus
    hits = total = 0
    for r in records[::4]:
        ls = ls_solve(r.agg, r.cfg, r.pairs, seed=1, time_limit=1.0)
        if not r.exact.is_feasible:
            assert not ls.is_feasible, (r.family, r.cfg)
            continue
        total += 1
        if not ls.is_feasible:
            continue
        e = r.exact.objective
        tol = 0.1 * abs(e) + 1e-12
        if r.agg.target.is_continuous:
            hits += ls.objective <= e + tol
        else:
            hits += ls.objective >= e - tol
    assert total >= 250
    assert hits / total >= 0.95, "{} of {} within 10%".format(hits, total)


# --------------------------------------------------------------------------- #
# 8. quality score behaves like a score
# --------------------------------------------------------------------------- #

def test_a8_quality_score_properties():
    rng = np.random.default_rng(7)
    for _ in range(2000):
        n = int(rng.integers(2, 9))
        shares = tuple(float(s) for s in rng.dirichlet(np.ones(n)))
        pvals = tuple(float(p) for p in rng.random(n - 1))
        div = float(rng.exponential(0.4))
        q = quality_score(div, pvals, shares)
        assert 0.0 <= q <= 1.0

    peak = quality_score(c_star(0.3, 0.5), (0.0, 0.0, 0.0), (0.25,) * 4)
    assert peak == pytest.approx(1.0, abs=1e-12)

    base_p = [0.2, 0.2, 0.2, 0.2]
    base = quality_score(0.35, tuple(base_p), (0.2,) * 5)
    for i in range(len(base_p)):
        bumped = list(base_p)
        bumped[i] = 0.6
        assert quality_score(0.35, tuple(bumped), (0.2,) * 5) < base

    assert iv_label(0.02) == "weak"
    assert iv_label(0.1) == "medium"
    assert iv_label(0.3) == "strong"
    assert iv_label(0.5) == "over-prediction"


# --------------------------------------------------------------------------- #
# 9. fitting the same file twice gives the same bytes
# --------------------------------------------------------------------------- #

def test_a9_end_to_end_determinism(tmp_path, capsys):
    rng = np.random.default_rng(424242)
    lines = ["age,default"]
    for _ in range(10000):
        u = rng.random()
        if u < 0.02:
            age, p = "", 0.45
        elif u < 0.05:
            age, p = "-7", 0.52
        else:
            a = float(rng.uniform(18, 90))
            age, p = "{:.3f}".format(a), 1.0 / (1.0 + math.exp((a - 50.0) / 12.0))
        lines.append("{},{}".format(age, int(rng.random() < p)))
    data = tmp_path / "portfolio.csv"
    data.write_text("\n".join(lines) + "\n")

    blobs = []
    for name in ("first.json", "second.json"):
        model_path = tmp_path / name
        code = cli.main([
            "fit", "--data", str(data), "--variable", "age",
            "--target", "default", "--trend", "auto",
            "--special-values", "-7", "--model", str(model_path)])
        capsys.readouterr()
        assert code == 0
        blobs.append(model_path.read_bytes())
    assert blobs[0] == blobs[1]
