import math
import time

import numpy as np
import pytest

from binopt import (
    INFEASIBLE, TIME_LIMIT, BinningConfig, InvalidConfigError,
    MalformedEncodingError, TrendSpec,
    apply_pvalue_constraint, check_trend, decode, encode, evaluate_partition,
    localsearch, ls_objective, ls_solve, pvalue_pairs, solve, with_trend,
)
from binopt.localsearch import _neighbours
from binopt.solver import _tables, _violated_groups

from helpers import (
    TREND_FAMILIES, binary_agg, continuous_agg, family_trend, multiclass_agg,
    random_binary_agg, random_instance, random_multiclass_agg,
)


class TestDecode:
    def test_recurrence_example(self):
        enc = decode([0, 1, 0, 0, 1])
        assert enc.a == (1, 0, 1, 2, 0)
        assert enc.z == (0, 1, 0, 0, 2)
        assert enc.intervals == ((0, 1), (2, 4))

    def test_all_ones_is_singletons(self):
        enc = decode([1, 1, 1])
        assert enc.intervals == ((0, 0), (1, 1), (2, 2))
        assert enc.a == (0, 0, 0) and enc.z == (0, 0, 0)

    def test_single_bit_is_one_bin(self):
        assert decode([0, 0, 0, 1]).intervals == ((0, 3),)

    def test_rejects_empty(self):
        with pytest.raises(MalformedEncodingError):
            decode([])

    def test_rejects_non_bits(self):
        with pytest.raises(MalformedEncodingError):
            decode([0, 2, 1])
        with pytest.raises(MalformedEncodingError):
            decode([-1, 1])

    def test_rejects_open_tail(self):
        with pytest.raises(MalformedEncodingError):
            decode([1, 0])

    def test_intervals_partition_everything(self):
        rng = np.random.default_rng(4)
        for _ in range(300):
            n = int(rng.integers(1, 15))
            x = [int(v) for v in rng.integers(0, 2, size=n)]
            x[-1] = 1
            iv = decode(x).intervals
            assert iv[0][0] == 0 and iv[-1][1] == n - 1
            for (s1, e1), (s2, e2) in zip(iv, iv[1:]):
                assert e1 + 1 == s2


class TestEncode:
    def test_round_trip_both_ways(self):
        rng = np.random.default_rng(6)
        for _ in range(500):
            n = int(rng.integers(1, 20))
            x = [int(v) for v in rng.integers(0, 2, size=n)]
            x[-1] = 1
            enc = decode(x)
            assert encode(enc.intervals, n) == tuple(x)
            assert decode(encode(enc.intervals, n)).intervals == enc.intervals

    def test_hand_case(self):
        assert encode(((0, 1), (2, 4)), 5) == (0, 1, 0, 0, 1)


class TestLsObjective:
    def test_matches_reference_scorer(self):
        agg = binary_agg([3, 1, 2], [1, 3, 2])
        cfg = BinningConfig(min_bins=1, trend=TrendSpec("none"))
        x = (1, 0, 1)
        _, want = evaluate_partition(((0, 0), (1, 2)), agg, cfg)
        assert ls_objective(x, agg, cfg) == want

    def test_none_when_infeasible(self):
        agg = binary_agg([3, 1], [1, 3])
        cfg = BinningConfig(min_bins=2, trend=TrendSpec("none"))
        assert ls_objective((0, 1), agg, cfg) is None

    def test_length_mismatch_raises(self):
        agg = binary_agg([3, 1], [1, 3])
        cfg = BinningConfig(trend=TrendSpec("none"))
        with pytest.raises(MalformedEncodingError):
            ls_objective((1, 0, 1), agg, cfg)


class TestLsSolve:
    def test_finds_unconstrained_optimum(self):
        # with no trend, the finest partition maximizes divergence and is one
        # of the deterministic starting points
        rng = np.random.default_rng(10)
        for _ in range(10):
            n = int(rng.integers(3, 8))
            agg = binary_agg(rng.integers(1, 20, n), rng.integers(1, 20, n))
            cfg = BinningConfig(min_bins=1, trend=TrendSpec("none"))
            ls = ls_solve(agg, cfg, seed=1)
            exact = solve(agg, cfg)
            assert ls.status == "feasible"
            assert ls.objective == exact.objective

    def test_near_exact_on_constrained_instances(self):
        rng = np.random.default_rng(20)
        hits = 0
        total = 0
        for i in range(60):
            family = TREND_FAMILIES[i % len(TREND_FAMILIES)]
            agg, cfg, pairs = random_instance(rng, family, i % 4)
            exact = solve(agg, cfg, pairs)
            ls = ls_solve(agg, cfg, pairs, seed=3)
            if not exact.is_feasible:
                assert not ls.is_feasible   # LS may never invent feasibility
                continue
            total += 1
            if not ls.is_feasible:
                continue
            # score against the trend LS actually settled on (auto instances
            # report the concrete winner in trend_used)
            feas, obj = evaluate_partition(ls.intervals, agg,
                                           with_trend(cfg, ls.trend_used),
                                           pairs)
            assert feas and obj == ls.objective
            if agg.target.is_continuous:
                good = ls.objective <= exact.objective + 0.1 * abs(
                    exact.objective) + 1e-12
            else:
                good = ls.objective >= exact.objective - 0.1 * abs(
                    exact.objective) - 1e-12
            hits += bool(good)
        assert total > 0
        assert hits / total >= 0.9

    def test_deterministic_for_fixed_seed(self):
        agg = binary_agg([5, 2, 7, 1, 4], [2, 6, 3, 5, 4])
        cfg = BinningConfig(min_bins=2, trend=TrendSpec("peak"))
        a = ls_solve(agg, cfg, seed=42)
        b = ls_solve(agg, cfg, seed=42)
        assert a == b

    def test_status_is_feasible_not_optimal(self):
        agg = binary_agg([3, 1], [1, 3])
        sol = ls_solve(agg, BinningConfig(min_bins=1, trend=TrendSpec("none")))
        assert sol.status == "feasible"
        assert sol.is_feasible

    def test_infeasible_bounds(self):
        agg = binary_agg([3, 1], [1, 3])
        sol = ls_solve(agg, BinningConfig(min_bins=5, trend=TrendSpec("none")))
        assert sol.status == "infeasible"
        assert sol.intervals == ()

    def test_multiclass_with_auto_classes(self):
        rng = np.random.default_rng(30)
        from helpers import random_multiclass_agg
        agg = random_multiclass_agg(rng, 6)
        cfg = BinningConfig(min_bins=1, trend=TrendSpec("auto"))
        ls = ls_solve(agg, cfg, seed=5)
        assert ls.is_feasible
        feas, obj = evaluate_partition(
            ls.intervals, agg,
            BinningConfig(min_bins=1, trend=ls.trend_used))
        assert feas and obj == ls.objective
        for tr in ls.trend_used:
            assert tr.kind != "auto"

    def test_single_trend_auto_resolves(self):
        agg = binary_agg([9, 5, 1], [1, 5, 9])   # cleanly ascending rates
        sol = ls_solve(agg, BinningConfig(min_bins=1, trend=TrendSpec("auto")),
                       seed=2)
        assert sol.is_feasible
        assert sol.trend_used.kind in ("ascending", "descending",
                                       "peak", "valley")

    def test_time_limit_returns_promptly(self):
        import time
        rng = np.random.default_rng(44)
        agg = binary_agg(rng.integers(1, 30, 12), rng.integers(1, 30, 12))
        cfg = BinningConfig(min_bins=2, trend=TrendSpec("peak"))
        t0 = time.monotonic()
        sol = ls_solve(agg, cfg, seed=0, restarts=10_000, time_limit=0.05)
        assert time.monotonic() - t0 < 2.0
        assert sol.status in ("feasible", "infeasible", "time_limit")

    @pytest.mark.parametrize("kind, trend", [
        ("binary", "peak"), ("binary", "auto"), ("binary", "ascending"),
        ("multiclass", "auto")])
    def test_zero_time_limit_is_time_limit_not_infeasible(self, kind, trend):
        # the exact solver finds these feasible: a search cut off before it
        # met a feasible partition proves nothing about the constraints
        rng = np.random.default_rng(70)
        if kind == "binary":
            agg = random_binary_agg(rng, 70, high=500)
        else:
            agg = multiclass_agg(rng.integers(1, 500, size=(3, 30)))
        cfg = BinningConfig(min_bins=1, min_bin_size=agg.n_records // 20,
                            trend=TrendSpec(trend))
        sol = ls_solve(agg, cfg, seed=0, time_limit=0)
        assert sol.status == TIME_LIMIT
        assert not sol.is_feasible and sol.intervals == ()
        assert sol.trend_used == cfg.trend
        sol.check_partition()
        assert solve(agg, cfg).is_feasible

    def test_search_that_ran_to_its_end_stays_infeasible(self):
        agg = binary_agg([3, 1], [1, 3])
        cfg = BinningConfig(min_bins=5, trend=TrendSpec("auto"))
        assert ls_solve(agg, cfg, time_limit=60).status == INFEASIBLE

    @pytest.mark.parametrize("budget", [-1.0, -1e-9, math.nan])
    def test_negative_or_nan_time_limit_is_a_config_error(self, budget):
        agg = binary_agg([3, 1], [1, 3])
        cfg = BinningConfig(min_bins=1, trend=TrendSpec("none"))
        with pytest.raises(InvalidConfigError, match="time budget"):
            ls_solve(agg, cfg, time_limit=budget)

    def test_returned_partition_is_rechecked(self, monkeypatch):
        # one whole-partition recheck per search that returns a partition,
        # and a disagreeing recheck is an error, not a silent answer
        agg = binary_agg([5, 2, 7, 1, 4], [2, 6, 3, 5, 4])
        cfg = BinningConfig(min_bins=2, trend=TrendSpec("auto"))
        calls = []

        def counting(*args):
            calls.append(args[0])
            return evaluate_partition(*args)

        monkeypatch.setattr(localsearch, "evaluate_partition", counting)
        sol = ls_solve(agg, cfg, seed=1)
        assert sol.is_feasible and len(calls) == 4 and sol.intervals in calls

        def off_by_one(*args):
            feasible, obj = evaluate_partition(*args)
            return feasible, obj + 1.0

        monkeypatch.setattr(localsearch, "evaluate_partition", off_by_one)
        with pytest.raises(AssertionError, match="recheck"):
            ls_solve(agg, cfg, seed=1)

    @pytest.mark.parametrize("kind", ["binary", "multiclass"])
    def test_time_limit_covers_auto_sub_solves(self, kind):
        # auto runs four sub-solves per auto trend (and a joint one for
        # classes); they share the one budget instead of each taking all of it
        rng = np.random.default_rng(70)
        if kind == "binary":
            agg = random_binary_agg(rng, 70, high=500)
        else:
            agg = multiclass_agg(rng.integers(1, 500, size=(3, 30)))
        cfg = BinningConfig(min_bins=1, min_bin_size=agg.n_records // 20,
                            trend=TrendSpec("auto"))
        budget = 0.6
        t0 = time.monotonic()
        ls_solve(agg, cfg, seed=0, time_limit=budget)
        assert time.monotonic() - t0 < 1.5 * budget


def _independent_count(intervals, agg, cfg, pairs):
    """Violated constraint groups, rebuilt here from the public checks only.

    Bins short of or over the bin-count bounds, each bin outside each count
    bound, each rate matrix failing its trend, and a broken p-value
    separation.  A pinned peak/valley is checked as its two monotone phases
    around the bin holding the pinned pre-bin.
    """
    m = len(intervals)
    b_max = cfg.max_bins if cfg.max_bins is not None else agg.n
    count = max(0, cfg.min_bins - m) + max(0, m - b_max)
    bounds = [(agg.R, cfg.min_bin_size, cfg.max_bin_size)]
    if agg.R_ne is not None:
        bounds += [(agg.R_ne, cfg.min_nonevent, cfg.max_nonevent),
                   (agg.R_e, cfg.min_event, cfg.max_event)]
    for mat, lo, hi in bounds:
        lo = 0 if lo is None else lo
        hi = math.inf if hi is None else hi
        count += sum(not lo <= mat[e, s] <= hi for s, e in intervals)
    trend, t = cfg.trend, cfg.trend.change_point
    for mat in agg.rate_matrices():
        rates = [mat[e, s] for s, e in intervals]
        if t is None:
            ok = check_trend(rates, trend, cfg.min_diff)
        else:
            p = next(i for i, (s, e) in enumerate(intervals) if s <= t <= e)
            up, down = TrendSpec("ascending"), TrendSpec("descending")
            first, second = (up, down) if trend.kind == "peak" else (down, up)
            ok = (check_trend(rates[:p + 1], first, cfg.min_diff)
                  and check_trend(rates[p:], second, cfg.min_diff))
        count += not ok
    count += not apply_pvalue_constraint(intervals, pairs)
    return count


def test_violation_count_matches_the_public_checks():
    # the count the local search descends on while a partition is infeasible
    rng = np.random.default_rng(77)
    families = [f for f in TREND_FAMILIES if f != "auto"]
    counts = []
    for i in range(480):
        agg, cfg, pairs = random_instance(rng, families[i % len(families)],
                                          i % 4)
        for _ in range(4):
            bits = rng.random(agg.n - 1) < rng.random()
            intervals = decode([*bits.astype(int), 1]).intervals
            count = sum(_violated_groups(intervals,
                                         _tables(agg, cfg, pairs)))
            feasible, _ = evaluate_partition(intervals, agg, cfg, pairs)
            assert feasible == (count == 0), (i, intervals)
            assert count == _independent_count(intervals, agg, cfg, pairs), \
                (i, intervals)
            counts.append(count)
    assert 0 in counts and max(counts) >= 4


def _bit_neighbours(x: list, n: int):
    """Reference: the encoding's moves, bit flips at 0..n-2 and then each
    set bit's shift left and right, in that order."""
    for i in range(n - 1):
        y = x.copy()
        y[i] ^= 1
        yield y
    for i in range(n - 1):
        if not x[i]:
            continue
        if i > 0 and not x[i - 1]:
            y = x.copy()
            y[i] = 0
            y[i - 1] = 1
            yield y
        if i + 1 < n - 1 and not x[i + 1]:
            y = x.copy()
            y[i] = 0
            y[i + 1] = 1
            yield y


def _check_neighbours(agg, cfg, pairs, intervals, label):
    """Every neighbour the search scores from the tables has the key the
    whole-partition checks give its decoded partition, bit for bit, and the
    neighbours come in the encoding's move order.  Returns the counts of
    neighbours scored, feasible, and infeasible by their p-value separation
    alone."""
    tab = _tables(agg, cfg, pairs)
    bad_bins = sum(tab.bad[e][s] for s, e in intervals)
    got = [(key, obj, intervals[:j] + add + intervals[j + drop:], y_bad)
           for key, obj, (j, drop, add), y_bad
           in _neighbours(intervals, bad_bins, tab)]
    x = list(encode(intervals, agg.n))
    want = [decode(y).intervals for y in _bit_neighbours(x, agg.n)]
    assert [y for _, _, y, _ in got] == want, label
    scored = feasible = by_pvalue = 0
    for key, obj, y, y_bad in got:
        ok, ref_obj = evaluate_partition(y, agg, cfg, pairs)
        broken = sum(_violated_groups(y, tab))
        assert ok == (broken == 0), (label, y)
        if ok:
            # the search maximizes the gain: a deviation enters negated
            gain = 0.0 - ref_obj if agg.target.is_continuous else ref_obj
            assert key == (1, gain) and obj == gain, (label, y)
            assert repr(obj) == repr(gain), (label, y)
            feasible += 1
        else:
            assert key == (0, -float(broken)) and math.isnan(obj), (label, y)
            by_pvalue += broken == 1 and not apply_pvalue_constraint(y, pairs)
        assert y_bad == sum(tab.bad[e][s] for s, e in y), (label, y)
        scored += 1
    return scored, feasible, by_pvalue


def _tied_binary_agg(rng, n):
    """A binary table whose pre-bins come in runs of three event rates, so
    that bins tie exactly and gate states repeat along a partition."""
    kinds = np.repeat(rng.integers(0, 3, n), rng.integers(1, 4, n))[:n]
    scale = rng.integers(1, 30, n)
    return binary_agg(scale * np.array([1, 1, 2])[kinds],
                      scale * np.array([1, 2, 1])[kinds])


def _wide_instance(rng, i):
    """Draw ``i`` of the wide cases: (agg, cfg, pairs).  The draws rotate
    through binary tables of 20-60 pre-bins with a p-value separation,
    pinned peaks/valleys, concave/convex, multi-class tables with one trend
    per class, and tables of tied rates."""
    families = [f for f in TREND_FAMILIES if f != "auto"]
    draw = i % 5
    if draw == 3:
        agg = random_multiclass_agg(rng, int(rng.integers(10, 31)))
        k = agg.target.n_classes
        trend = tuple(family_trend(str(f), rng, agg.n)
                      for f in rng.choice(families, size=k))
    elif draw == 4:
        # a kept bin that ties with the bin before it breaks a chain with a
        # gap, while a neighbour with a lower (higher) run reaches the state
        # the partition had before that bin
        agg = _tied_binary_agg(rng, int(rng.integers(8, 31)))
        trend = family_trend(str(rng.choice(
            [f for f in families if f != "none"])), rng, agg.n)
    else:
        agg = random_binary_agg(rng, int(rng.integers(20, 61)),
                                high=int(rng.choice([30, 300])))
        family = {1: ("peak:pinned", "valley:pinned"),
                  2: ("concave", "convex")}.get(draw, families)
        trend = family_trend(str(rng.choice(family)), rng, agg.n)
    conc = str(rng.choice(["off", "std", "hhi"]))
    cfg = BinningConfig(
        min_bins=int(rng.integers(1, 4)),
        max_bins=None if rng.random() < 0.5 else int(rng.integers(4, 16)),
        min_bin_size=int(agg.n_records * rng.choice([0.0, 0.02, 0.05])),
        min_diff=0.01 if draw == 4 else float(rng.choice([0.0, 0.0, 0.01])),
        concentration=conc, gamma=0.0 if conc == "off" else 0.1, trend=trend)
    pairs = None
    if not agg.target.is_multiclass and rng.random() < 0.8:
        pairs = pvalue_pairs(agg.R_ne, agg.R_e, alpha=0.05)
    return agg, cfg, pairs


def test_neighbour_keys_match_whole_partition_scoring():
    # small instances of every target kind, trend family and constraint mix
    # at random partitions
    rng = np.random.default_rng(78)
    families = [f for f in TREND_FAMILIES if f != "auto"]
    scored = feasible = by_pvalue = 0
    for i in range(360):
        agg, cfg, pairs = random_instance(rng, families[i % len(families)],
                                          i % 4)
        for _ in range(2):
            x = [*(rng.random(agg.n - 1) < rng.random()).astype(int), 1]
            counts = _check_neighbours(agg, cfg, pairs, decode(x).intervals,
                                       (i, x))
            scored += counts[0]
            feasible += counts[1]
    assert scored > 5000 and feasible > 500
    scored = feasible = 0
    # wide tables, at partitions whose prefix breaks the trend (random
    # ones), at feasible local optima, and at those with one bit flipped,
    # where a move's gate states meet the partition's again
    wide_feasible = 0
    for i in range(150):
        agg, cfg, pairs = _wide_instance(rng, i)
        x = [*(rng.random(agg.n - 1) < rng.random() / 2).astype(int), 1]
        starts = [decode(x).intervals]
        sol = ls_solve(agg, cfg, pairs, seed=i, restarts=2)
        if sol.is_feasible:
            wide_feasible += 1
            starts.append(sol.intervals)
            for flip in rng.choice(agg.n - 1, size=3, replace=False):
                x = list(encode(sol.intervals, agg.n))
                x[flip] ^= 1
                starts.append(decode(x).intervals)
        for intervals in starts:
            counts = _check_neighbours(agg, cfg, pairs, intervals,
                                       (i, intervals))
            scored += counts[0]
            feasible += counts[1]
            by_pvalue += counts[2]
    assert wide_feasible > 100 and feasible > 1000 and by_pvalue > 800
