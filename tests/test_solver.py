import inspect
import math
import sys
from dataclasses import replace

import numpy as np
import pytest

from binopt import (
    AggregateSet, BinningConfig, InvalidConfigError, TargetKind, TrendSpec,
    apply_pvalue_constraint, brute_force_oracle, check_trend,
    evaluate_partition, presolve_monotonic,
    Solution, ls_solve, pvalue_pairs, solve,
)
from binopt import solver
from binopt.core import ASCENDING, DESCENDING
from binopt.solver import (
    AUTO_MARGIN, EPS, _PHASE_BITS, _completion_bound, _least_squares,
    _penalty, _pick, _resolved_trends, _std_floor, _tables,
)

from helpers import (
    TREND_FAMILIES, binary_agg, continuous_agg, family_trend, multiclass_agg,
    presolved_context, presolved_solve, random_binary_agg,
    random_continuous_agg, random_instance, random_multiclass_agg,
)


# --------------------------------------------------------------------------- #
# trend predicates
# --------------------------------------------------------------------------- #

class TestCheckTrend:
    def test_none_accepts_anything(self):
        assert check_trend([0.9, 0.1, 0.5], TrendSpec("none"))

    def test_ascending(self):
        assert check_trend([0.1, 0.2, 0.3], TrendSpec("ascending"))
        assert not check_trend([0.1, 0.3, 0.2], TrendSpec("ascending"))
        # exact ties are allowed at zero separation
        assert check_trend([0.3, 0.3], TrendSpec("ascending"))
        assert not check_trend([0.3, 0.3], TrendSpec("ascending"),
                               min_diff=0.01)

    def test_descending_mirrors_ascending(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            rates = rng.uniform(size=rng.integers(1, 7)).tolist()
            assert check_trend(rates, TrendSpec("ascending")) == check_trend(
                rates[::-1], TrendSpec("descending"))

    def test_min_diff_separation_is_pairwise(self):
        asc = TrendSpec("ascending")
        assert not check_trend([0.1, 0.25, 0.5], asc, min_diff=0.2)
        assert check_trend([0.1, 0.35, 0.6], asc, min_diff=0.2)

    def test_concave_allows_equality_triples(self):
        assert check_trend([0.1, 0.2, 0.3], TrendSpec("concave"))

    def test_concave_rejects_linear_when_spacing_uneven(self):
        # four evenly spaced rates contain the uneven triple (0, 1, 3):
        # 2*r1 < r0 + r3, so a straight line of 4+ bins is not concave
        assert not check_trend([0.1, 0.2, 0.3, 0.4], TrendSpec("concave"))

    def test_concave_accepts_dome(self):
        assert check_trend([0.1, 0.5, 0.6, 0.5, 0.1], TrendSpec("concave"))
        assert not check_trend([0.5, 0.1, 0.5], TrendSpec("concave"))

    def test_convex_is_negated_concave(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            rates = rng.uniform(size=rng.integers(1, 7))
            assert check_trend(rates, TrendSpec("convex")) == check_trend(
                (-rates).tolist(), TrendSpec("concave"))

    def test_peak_needs_single_reversal(self):
        peak = TrendSpec("peak")
        assert check_trend([0.1, 0.8, 0.3], peak)
        assert check_trend([0.1, 0.2, 0.9], peak)      # pure rise counts
        assert check_trend([0.9, 0.4, 0.1], peak)      # pure fall counts
        assert not check_trend([0.5, 0.1, 0.6], peak)  # that's a valley
        assert not check_trend([0.1, 0.8, 0.2, 0.7], peak)

    def test_valley_mirrors_peak(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            rates = rng.uniform(size=rng.integers(1, 7))
            assert check_trend(rates, TrendSpec("valley")) == check_trend(
                (-rates).tolist(), TrendSpec("peak"))

    def test_min_diff_applies_within_peak_phases(self):
        assert check_trend([0.1, 0.5, 0.2], TrendSpec("peak"), min_diff=0.25)
        assert not check_trend([0.1, 0.5, 0.2], TrendSpec("peak"),
                               min_diff=0.35)

    def test_auto_is_not_checkable(self):
        with pytest.raises(InvalidConfigError):
            check_trend([0.1, 0.2], TrendSpec("auto"))

    def test_short_sequences_always_pass(self):
        for kind in ("ascending", "descending", "concave", "convex",
                     "peak", "valley"):
            assert check_trend([0.4], TrendSpec(kind))
        for kind in ("ascending", "descending", "concave", "convex"):
            assert check_trend([], TrendSpec(kind))


# --------------------------------------------------------------------------- #
# constraint pieces
# --------------------------------------------------------------------------- #

class TestConcentration:
    # bins of 30 and 70 records, and the two merged
    split, merged = [30.0, 70.0], [100.0]

    def test_std_uses_sample_variance(self):
        assert _penalty(self.split, "std") == pytest.approx(math.sqrt(800.0))

    def test_std_of_single_bin_is_zero(self):
        assert _penalty(self.merged, "std") == 0.0

    def test_hhi(self):
        assert _penalty(self.split, "hhi") == pytest.approx(0.58)
        assert _penalty([50.0, 50.0], "hhi") == pytest.approx(0.5)
        assert _penalty(self.merged, "hhi") == pytest.approx(1.0)

    def test_maxmin(self):
        assert _penalty(self.split, "maxmin") == 40.0
        assert _penalty(self.merged, "maxmin") == 0.0

    def test_off_is_free(self):
        assert _penalty(self.split, "off") == 0.0

    def test_penalty_direction_in_objective(self):
        agg = binary_agg([8, 2], [2, 8])
        base = BinningConfig(min_bins=2, trend=TrendSpec("none"))
        pen_cfg = BinningConfig(min_bins=2, trend=TrendSpec("none"),
                                concentration="std", gamma=0.5)
        _, plain = evaluate_partition(((0, 0), (1, 1)), agg, base)
        _, nudged = evaluate_partition(((0, 0), (1, 1)), agg, pen_cfg)
        assert nudged == pytest.approx(plain)   # equal sizes: zero std

        lop = binary_agg([8, 1], [2, 1])
        _, plain = evaluate_partition(((0, 0), (1, 1)), lop, base)
        _, nudged = evaluate_partition(((0, 0), (1, 1)), lop, pen_cfg)
        assert nudged < plain                   # divergence is maximized

        cont = continuous_agg([30, 70], [10.0, 90.0])
        _, plain = evaluate_partition(((0, 0), (1, 1)), cont, base)
        _, nudged = evaluate_partition(((0, 0), (1, 1)), cont, pen_cfg)
        assert nudged > plain                   # deviation is minimized


class TestPValueConstraint:
    def test_blocks_unseparated_neighbors(self):
        agg = binary_agg([5, 5], [5, 5])
        pairs = pvalue_pairs(agg.R_ne, agg.R_e, alpha=0.05)
        assert not apply_pvalue_constraint(((0, 0), (1, 1)), pairs)
        assert apply_pvalue_constraint(((0, 1),), pairs)

    def test_none_means_unconstrained(self):
        assert apply_pvalue_constraint(((0, 0), (1, 1)), None)

    def test_bins_that_do_not_touch_pass(self):
        agg = binary_agg([5, 5, 5], [5, 5, 5])
        pairs = pvalue_pairs(agg.R_ne, agg.R_e, alpha=0.05)
        assert pairs.masks[2][0, 0]             # bin 0..1 then bin 2..2
        assert not apply_pvalue_constraint(((0, 1), (2, 2)), pairs)
        assert apply_pvalue_constraint(((0, 0), (2, 2)), pairs)

    def test_solver_respects_it(self):
        agg = binary_agg([5, 5], [5, 5])
        pairs = pvalue_pairs(agg.R_ne, agg.R_e, alpha=0.05)
        cfg = BinningConfig(min_bins=1, trend=TrendSpec("none"))
        sol = solve(agg, cfg, pairs)
        assert sol.intervals == ((0, 1),)
        strict = BinningConfig(min_bins=2, trend=TrendSpec("none"))
        assert solve(agg, strict, pairs).status == "infeasible"

    def test_config_level_applies_without_pairs(self):
        # a binary set builds the masks of cfg.max_pvalue itself, so every
        # solver and the evaluator answer as if they had been passed
        agg = random_binary_agg(np.random.default_rng(3), 12, high=40)
        cfg = BinningConfig(min_bins=2, max_pvalue=0.05)
        pairs = pvalue_pairs(agg.R_ne, agg.R_e, 0.05)
        singletons = tuple((i, i) for i in range(agg.n))
        assert evaluate_partition(singletons, agg, cfg)[0] is False
        assert evaluate_partition(singletons, agg, cfg, pairs)[0] is False
        sol = solve(agg, cfg)
        assert sol == solve(agg, cfg, pairs)
        assert sol.n_bins == 8 and sol.intervals != singletons
        assert brute_force_oracle(agg, cfg) == brute_force_oracle(agg, cfg,
                                                                  pairs)
        assert ls_solve(agg, cfg) == ls_solve(agg, cfg, pairs)

    def test_level_is_ignored_without_event_counts(self):
        # continuous and multi-class sets have no two-proportion test
        rng = np.random.default_rng(4)
        for agg in (random_continuous_agg(rng, 10),
                    random_multiclass_agg(rng, 10)):
            cfg = BinningConfig(min_bins=2, trend=TrendSpec("none"))
            assert solve(agg, replace(cfg, max_pvalue=0.05)) == solve(agg, cfg)


# --------------------------------------------------------------------------- #
# presolve
# --------------------------------------------------------------------------- #

class TestPresolve:
    def test_masks_rate_islands(self):
        # singleton rates 0.9, 0.1, 0.2: a first bin at rate 0.9 can never be
        # followed ascending, and a second bin at 0.1 can never follow 0.9
        agg = binary_agg([1, 9, 8], [9, 1, 2])
        mask = presolve_monotonic(agg.D, TrendSpec("ascending"))
        assert (0, 0) in mask.forbidden
        assert (0, 1) in mask.forbidden
        assert (1, 1) in mask.forbidden
        assert (0, 2) not in mask.forbidden   # the full merge must survive

    def test_sound_for_merge_rescued_intervals(self):
        # singleton rates 0.9, 0.1, 0.2, 0.9: ((0,1), (2,3)) is ascending
        # (0.5 <= 0.55) even though no singleton suffix rescues pre-bin 0,
        # so neither half may be masked
        agg = binary_agg([1, 9, 8, 1], [9, 1, 2, 9])
        mask = presolve_monotonic(agg.D, TrendSpec("ascending"))
        assert (0, 1) not in mask.forbidden
        assert (2, 3) not in mask.forbidden

        cfg = BinningConfig(min_bins=2, max_bin_size=25,
                            trend=TrendSpec("ascending"))
        masked = presolved_solve(agg, cfg)
        plain = solve(agg, cfg)
        assert masked.intervals == plain.intervals == ((0, 1), (2, 3))
        assert masked.objective == plain.objective

    def test_empty_for_non_monotone_trends(self):
        agg = binary_agg([1, 9, 8], [9, 1, 2])
        for kind in ("none", "concave", "peak"):
            assert presolve_monotonic(agg.D, TrendSpec(kind)).forbidden == \
                frozenset()

    def test_descending_mirror(self):
        agg = binary_agg([9, 1, 2], [1, 9, 8])   # rates 0.1, 0.9, 0.8
        mask = presolve_monotonic(agg.D, TrendSpec("descending"))
        assert (0, 0) in mask.forbidden

    def test_parity_on_random_instances(self):
        # the search gives the same answer with presolve's mask applied to
        # its allowed bins as without it
        rng = np.random.default_rng(77)
        for i in range(120):
            family = TREND_FAMILIES[i % len(TREND_FAMILIES)]
            agg, cfg, pairs = random_instance(rng, family, i % 4)
            a = solve(agg, cfg, pairs)
            b = presolved_solve(agg, cfg, pairs)
            assert a.status == b.status
            if a.is_feasible:
                assert a.objective == b.objective
                assert a.intervals == b.intervals


# --------------------------------------------------------------------------- #
# the search context
# --------------------------------------------------------------------------- #

def test_searches_share_one_context_per_set_of_bound_values(monkeypatch):
    # auto runs four searches, and each answer is rechecked: all of them
    # read one allowed-bin matrix and one list of ends, until a bound moves
    built, real = [], solver._tables

    def spy(agg, cfg, pairs):
        built.append(real(agg, cfg, pairs))
        return built[-1]

    monkeypatch.setattr(solver, "_tables", spy)
    agg = random_binary_agg(np.random.default_rng(28), 12, high=60)
    cfg = BinningConfig(min_bins=2, min_bin_size=40, trend=TrendSpec("auto"))
    assert solve(agg, cfg).is_feasible
    first = built[0]
    assert {tab.trends[0].kind for tab in built} == \
        {"ascending", "descending", "peak", "valley"}
    assert len(built) > 4
    assert all(tab.ok is first.ok and tab.ends is first.ends
               for tab in built)
    assert np.array_equal(first.ok, np.triu(np.array(first.bad).T == 0))
    assert first.ends == [np.flatnonzero(row).tolist() for row in first.ok]
    assert not first.ok.flags.writeable

    built.clear()
    solve(agg, replace(cfg, min_bin_size=60))
    assert built[0].ok is not first.ok
    assert not np.array_equal(built[0].ok, first.ok)


# --------------------------------------------------------------------------- #
# exact solve
# --------------------------------------------------------------------------- #

class TestSolve:
    def test_two_prebin_closed_form(self):
        # non-events [3, 1], events [1, 3]: keeping both pre-bins apart yields
        # per-bin shares (3/4, 1/4) and (1/4, 3/4), each worth 0.5*ln 3
        agg = binary_agg([3, 1], [1, 3])
        cfg = BinningConfig(min_bins=1, trend=TrendSpec("ascending"))
        sol = solve(agg, cfg)
        assert sol.status == "optimal"
        assert sol.intervals == ((0, 0), (1, 1))
        assert sol.objective == pytest.approx(2 * 0.5 * math.log(3.0))

    def test_jsd_objective(self):
        agg = binary_agg([3, 1], [1, 3], divergence="jsd")
        cfg = BinningConfig(min_bins=1, trend=TrendSpec("none"),
                            divergence="jsd")
        sol = solve(agg, cfg)
        assert sol.intervals == ((0, 0), (1, 1))
        assert 0.0 < sol.objective <= math.log(2.0)

    def test_continuous_minimizes_deviation(self):
        agg = continuous_agg([2, 2, 2], [2.0, 8.0, 20.0])
        cfg = BinningConfig(min_bins=1, max_bins=2, trend=TrendSpec("none"))
        sol = solve(agg, cfg)
        # means 1, 4, 10: grouping the two nearest minimizes the deviation
        assert sol.status == "optimal"
        assert sol.intervals == ((0, 1), (2, 2))

    def test_zero_deviation_reads_positive_zero(self):
        # the searches maximize the deviation negated; a zero deviation must
        # come back as 0.0, not -0.0, or model bytes would change
        agg = continuous_agg([2, 3, 4], [4.0, 9.0, 16.0])
        cfg = BinningConfig(min_bins=1)
        for solver in (solve, brute_force_oracle, ls_solve):
            sol = solver(agg, cfg)
            assert repr(sol.objective) == "0.0", solver.__name__
            feasible, obj = evaluate_partition(sol.intervals, agg, cfg)
            assert feasible and repr(obj) == "0.0", solver.__name__

    def test_min_bins_infeasible(self):
        agg = binary_agg([3, 1], [1, 3])
        sol = solve(agg, BinningConfig(min_bins=5, trend=TrendSpec("none")))
        assert sol.status == "infeasible"
        assert sol.intervals == ()
        assert not sol.is_feasible

    def test_trend_infeasible_under_min_diff(self):
        agg = binary_agg([5, 5], [5, 5])   # both rates exactly 0.5
        cfg = BinningConfig(min_bins=2, trend=TrendSpec("ascending"),
                            min_diff=0.1)
        assert solve(agg, cfg).status == "infeasible"

    def test_record_bounds_prune(self):
        agg = binary_agg([3, 1, 2], [1, 3, 2])
        cfg = BinningConfig(min_bins=1, min_bin_size=5,
                            trend=TrendSpec("none"))
        sol = solve(agg, cfg)
        for s, e in sol.intervals:
            assert agg.R[e, s] >= 5

    def test_deterministic(self):
        rng = np.random.default_rng(123)
        agg, cfg, pairs = random_instance(rng, "auto", 0)
        assert solve(agg, cfg, pairs) == solve(agg, cfg, pairs)

    def test_binary_rejects_trend_tuple(self):
        agg = binary_agg([3, 1], [1, 3])
        cfg = BinningConfig(trend=(TrendSpec("ascending"),
                                   TrendSpec("descending"),
                                   TrendSpec("none")))
        with pytest.raises(InvalidConfigError):
            solve(agg, cfg)

    def test_invalid_config_raises(self):
        agg = binary_agg([3, 1], [1, 3])
        with pytest.raises(InvalidConfigError):
            solve(agg, BinningConfig(min_bins=0))

    def test_matches_oracle_with_tie_breaks(self):
        rng = np.random.default_rng(31)
        for i in range(300):
            family = TREND_FAMILIES[i % len(TREND_FAMILIES)]
            agg, cfg, pairs = random_instance(rng, family, i % 4)
            got = solve(agg, cfg, pairs)
            ref = brute_force_oracle(agg, cfg, pairs)
            assert got.status == ref.status, (family, i)
            if got.is_feasible:
                assert got.objective == ref.objective, (family, i)
                assert got.intervals == ref.intervals, (family, i)


# --------------------------------------------------------------------------- #
# beyond the oracle: trend none against a dynamic program
# --------------------------------------------------------------------------- #

def _dp_best(agg, cfg):
    """(best objective, least bin count reaching it) by a DP over the last
    bin's end and the bin count, for trend none with a record floor and
    bin-count bounds only: no p-value separation, no penalty, no other
    count bound.  Each path's gains are summed left to right, as the
    solvers sum a partition's, and IEEE addition is monotone, so keeping the
    best sum per state keeps the best sum of every path through it."""
    n, floor = agg.n, cfg.min_bin_size
    b_max = cfg.max_bins if cfg.max_bins is not None else n
    gain = (-agg.L if agg.target.is_continuous else agg.V).tolist()
    R = agg.R.tolist()
    # best[e + 1][k]: greatest gain sum of k bins covering pre-bins 0..e
    best = [{} for _ in range(n + 1)]
    best[0][0] = 0.0
    for e in range(n):
        here = best[e + 1]
        for s in range(e + 1):
            if R[e][s] < floor:
                continue
            for k, total in best[s].items():
                if k < b_max:
                    total += gain[e][s]
                    if k + 1 not in here or total > here[k + 1]:
                        here[k + 1] = total
    ends = {k: v for k, v in best[n].items() if k >= cfg.min_bins}
    top = max(ends.values())
    k = min(k for k, v in ends.items() if v == top)
    return (0.0 - top if agg.target.is_continuous else top), k


@pytest.mark.parametrize("n", [30, 60, 100, 200])
def test_trend_none_matches_a_dp_beyond_the_oracle(n):
    # the 5% floor, min_bins 2 and max_bins None or 6, on every target
    # kind, divergence and norm
    rng = np.random.default_rng(3000 + n)
    aggs = (random_binary_agg(rng, n, high=60),
            random_binary_agg(rng, n, "jsd", high=60),
            random_continuous_agg(rng, n),
            random_continuous_agg(rng, n, norm_p=1),
            random_multiclass_agg(rng, n))
    for agg in aggs:
        for max_bins in (None, 6):
            cfg = BinningConfig(
                min_bins=2, max_bins=max_bins, trend=TrendSpec("none"),
                min_bin_size=math.ceil(0.05 * agg.n_records),
                divergence=agg.divergence or "iv")
            sol = solve(agg, cfg)
            objective, bins = _dp_best(agg, cfg)
            label = (agg.target.kind, agg.divergence, max_bins)
            assert sol.status == "optimal", label
            assert sol.objective == objective, label
            assert sol.n_bins == bins, label


def _monotone_dp(agg, cfg, tight: bool):
    """Greatest gain sum of at least two bins, each passing the record
    floor, whose rates follow the monotone ``cfg.trend`` bin after bin, or
    None when no partition does.  ``tight``: each rate passes the previous
    one plus ``min_diff`` with no slack, a subset of the chains ``solve``
    accepts.  Else each rate ``_follows`` the previous one, slack included,
    a superset: ``solve`` also compares it with every earlier rate.  The
    p-value masks of ``cfg.max_pvalue`` hold between adjacent bins, so both
    enforce them exactly.

    ``best[e, s]`` is the greatest gain sum, left to right, of a path that
    ends with bin s..e, maximized over the previous bin at once.  A path's
    next gain is added to its best sum, which IEEE addition keeps best."""
    n, up, beta = agg.n, cfg.trend.kind == ASCENDING, cfg.min_diff
    gain, rate = solver._gain_matrix(agg), agg.rate_matrices()[0]
    masks = (pvalue_pairs(agg.R_ne, agg.R_e, cfg.max_pvalue).masks
             if cfg.max_pvalue is not None else None)
    best = np.where(agg.R >= cfg.min_bin_size, gain, -np.inf)
    for s in range(1, n):
        # rows: bins s..e; columns: previous bins j..s-1
        d, ref = rate[s:, s, None], rate[None, s - 1, :s]
        if tight:
            allowed = d >= ref + beta if up else d <= ref - beta
        else:
            allowed = solver._follows(ref, d, up, beta)
        if masks is not None:
            allowed &= ~masks[s].T
        best[s:, s] += np.where(allowed, best[None, s - 1, :s], -np.inf) \
            .max(axis=1)
    top = best[n - 1, 1:].max()
    return None if top == -np.inf else float(top)


def _trended_agg(rng, kind: str, n: int, up: bool):
    """A binary or continuous aggregate set whose pre-bin rates drift up
    (``up``) or down through noise, so that a monotone fit keeps many bins."""
    drift = np.linspace(0.0, 1.0, n)[::1 if up else -1]
    count = rng.integers(5, 60, n)
    if kind == "binary":
        event = rng.binomial(count, 0.2 + 0.5 * drift)
        return binary_agg(np.maximum(count - event, 1), np.maximum(event, 1))
    return continuous_agg(count, (20.0 * drift + rng.normal(size=n)) * count)


@pytest.mark.parametrize("n", [30, 60, 100, 200])
def test_monotone_trends_lie_between_two_dps(n):
    # binary IV with and without max_pvalue 0.05, and continuous p = 2,
    # each ascending and descending, with the 5% floor and min_bins 2
    rng = np.random.default_rng(4000 + n)
    for kind, level in (("binary", None), ("binary", 0.05),
                        ("continuous", None)):
        for trend in ("ascending", "descending"):
            agg = _trended_agg(rng, kind, n, trend == "ascending")
            cfg = BinningConfig(
                min_bins=2, trend=TrendSpec(trend), max_pvalue=level,
                min_bin_size=math.ceil(0.05 * agg.n_records))
            sol = solve(agg, cfg)
            tight = _monotone_dp(agg, cfg, tight=True)
            loose = _monotone_dp(agg, cfg, tight=False)
            label = (kind, level, trend)
            if not sol.is_feasible:
                assert tight is None, label
                continue
            got = _gain(agg, sol.objective)
            assert tight is None or tight <= got, label
            assert loose is not None and got <= loose, label
            if tight == loose:
                assert got == tight, label


# --------------------------------------------------------------------------- #
# the completion bound
# --------------------------------------------------------------------------- #

def _root_bound(agg, tab):
    """The bound on the whole problem: no bin placed yet, max_bins to go."""
    return float(_completion_bound(agg, tab)[0, 0, -1, 0])


def _gain(agg, objective):
    """An objective as the searches maximize it: a deviation negated."""
    return -objective if agg.target.is_continuous else objective


def _assert_root(root, agg, trends, ref):
    """The root bound is the optimal gain of ``ref`` (or -inf, no way
    exists) when it follows the change bin of every free peak/valley, and
    a bound on it when it relaxes some."""
    free = sum(tr.kind in ("peak", "valley") and tr.change_point is None
               for tr in trends)
    if free > _PHASE_BITS:
        if ref.is_feasible:
            slack = 1e-12 * max(1.0, abs(ref.objective))
            assert root >= _gain(agg, ref.objective) - slack
    elif ref.is_feasible:
        assert root == pytest.approx(_gain(agg, ref.objective), rel=1e-12)
    else:
        assert root == -math.inf


def _assert_oracle(got, ref, what):
    """The exact solver's answer is the oracle's, ties included."""
    assert got.status == ref.status, what
    assert got.intervals == ref.intervals, what
    if ref.is_feasible:
        assert got.objective == ref.objective, what


def _wide_binary_agg(rng, n):
    """build_binary's matrices with numpy (its loops take a second at n=1e3)."""
    ne = rng.integers(1, 30, size=n)
    ev = rng.integers(1, 30, size=n)

    def merged(x):
        c = np.concatenate(([0.0], np.cumsum(x, dtype=float)))
        return np.tril(c[1:, None] - c[None, :-1])

    R_ne, R_e = merged(ne), merged(ev)
    R = R_ne + R_e
    p, q = R_ne / ne.sum(), R_e / ev.sum()
    lower = np.tri(n, dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        V = np.where(lower, (p - q) * np.log(p / q), 0.0)
        D = np.where(lower, R_e / R, 0.0)
    return AggregateSet(n=n, target=TargetKind.binary(), divergence="iv",
                        R=R, R_ne=R_ne, R_e=R_e, V=V, D=D)


class TestCompletionBound:
    # every constraint here involves one bin or two adjacent bins, and for
    # up to _PHASE_BITS free peaks/valleys the phase the bound carries
    DECOMPOSABLE = ("none", "ascending", "descending", "peak", "valley",
                    "peak:pinned", "valley:pinned")

    def test_exact_when_nothing_is_relaxed(self):
        rng = np.random.default_rng(2005)
        for i in range(240):
            family = self.DECOMPOSABLE[i % len(self.DECOMPOSABLE)]
            agg, cfg, pairs = random_instance(rng, family, i % 4, n_max=10)
            cfg = replace(cfg, min_bins=1, concentration="off", gamma=0.0)
            trends = _resolved_trends(agg, cfg)
            ref = brute_force_oracle(agg, cfg, pairs)
            bounds = [_root_bound(agg, _tables(agg, cfg, pairs))]
            if (trends[0].kind in (ASCENDING, DESCENDING)
                    and agg.D is not None):
                bounds.append(_root_bound(
                    agg, presolved_context(agg, cfg, pairs)))
            for root in bounds:
                _assert_root(root, agg, trends, ref)

    def test_exact_beyond_the_oracle(self):
        # the oracle stops at n = 20: here the bound, one DP over adjacent
        # bins, and the search, a DFS over whole chains, must meet
        rng = np.random.default_rng(2013)
        for i in range(70):
            family = self.DECOMPOSABLE[i % len(self.DECOMPOSABLE)]
            agg, cfg, pairs = random_instance(rng, family, i % 4, n_max=40,
                                              n_min=13)
            cfg = replace(cfg, min_bins=1)
            if cfg.concentration in ("std", "maxmin"):
                cfg = replace(cfg, concentration="off", gamma=0.0)
            trends = _resolved_trends(agg, cfg)
            root = _root_bound(agg, _tables(agg, cfg, pairs))
            _assert_root(root, agg, trends, solve(agg, cfg, pairs))

    def test_many_free_chains_keep_a_small_table(self):
        # the bound carries the phase bits of the first _PHASE_BITS free
        # peaks/valleys and relaxes the others, here on 12 classes
        agg = multiclass_agg(np.random.default_rng(12).integers(1, 40, (12, 12)))
        mixed = tuple(TrendSpec(("valley", "peak")[c % 2] if c < 4 else "none")
                      for c in range(12))
        for trend in (TrendSpec("valley"), mixed):
            cfg = BinningConfig(min_bins=1, trend=trend)
            G = _completion_bound(agg, _tables(agg, cfg, None))
            assert G.shape == (agg.n + 1, agg.n, 1, 1 << _PHASE_BITS)
            got, ref = solve(agg, cfg), brute_force_oracle(agg, cfg)
            assert got.status == ref.status == "optimal"
            assert got.intervals == ref.intervals
            assert got.objective == ref.objective
        assert len(got.intervals) == 4

    def test_relaxation_everywhere_else(self):
        rng = np.random.default_rng(2006)
        for i in range(300):
            family = TREND_FAMILIES[i % len(TREND_FAMILIES)]
            agg, cfg, pairs = random_instance(rng, family, i % 4, n_max=10)
            ref = brute_force_oracle(agg, cfg, pairs)
            if not ref.is_feasible:
                continue
            # auto is bounded through the trend it resolved to
            root = _root_bound(
                agg, _tables(agg, replace(cfg, trend=ref.trend_used), pairs))
            # HHI is folded in with another summation order: allow rounding
            slack = 1e-12 * max(1.0, abs(ref.objective))
            assert root >= _gain(agg, ref.objective) - slack, (family, i)

    @pytest.mark.parametrize("concentration,gamma", [
        ("std", 0.002), ("hhi", 0.5), ("maxmin", 0.001)])
    def test_penalized_peak_valley_beyond_the_corpus(self, concentration,
                                                     gamma):
        # the penalties are relaxed in the bound, so these are the searches
        # the pruning cuts deepest; the acceptance corpus stops at n = 12.
        # The weights are large enough to move most optima.
        rng = np.random.default_rng(1416)
        families = ("peak", "valley", "peak:pinned", "valley:pinned")
        for i, family in enumerate(families):
            n = (14, 14, 16, 14)[i]
            div = ("iv", "jsd")[i % 2]
            agg = random_binary_agg(rng, n, div, high=60)
            cfg = BinningConfig(min_bins=2, concentration=concentration,
                                gamma=gamma if div == "iv" else gamma / 4,
                                divergence=div,
                                trend=family_trend(family, rng, n))
            got = solve(agg, cfg)
            ref = brute_force_oracle(agg, cfg)
            assert got.status == ref.status == "optimal", family
            assert got.objective == ref.objective, family
            assert got.intervals == ref.intervals, family

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("gamma", [1e300, 1e303, 1e308])
    def test_huge_hhi_weight_follows_the_oracle(self, gamma):
        # any finite gamma is valid, and gamma * R**2 passes the float range
        # near 1.8e308 while gamma * share**2 never exceeds gamma
        for seed in range(3, 8):
            agg = random_binary_agg(np.random.default_rng(seed), 10, high=500)
            cfg = BinningConfig(min_bins=1, concentration="hhi", gamma=gamma)
            _assert_oracle(solve(agg, cfg), brute_force_oracle(agg, cfg), seed)

    def test_exact_ties_are_never_pruned(self):
        # equal pre-bin means: every partition deviates by exactly 0, so the
        # first leaf (all singletons) ties every other one and only the
        # tie-break (fewer bins, then earliest starts) may choose; with at
        # most 9 records per bin the winner is three bins deep
        agg = continuous_agg([2, 3, 4, 5, 6], [2.0, 3.0, 4.0, 5.0, 6.0])
        for trend in ("none", "ascending", "peak", "valley:2", "concave"):
            cfg = BinningConfig(min_bins=2, max_bin_size=9,
                                trend=TrendSpec.parse(trend))
            got = solve(agg, cfg)
            assert got.objective == 0.0, trend
            assert got.intervals == ((0, 1), (2, 3), (4, 4)), trend
            assert got.intervals == brute_force_oracle(agg, cfg).intervals

    def test_root_key_covers_std_and_curves(self):
        # where the bound is not exact, beyond the oracle's sizes: the
        # root's key, the bound plus the std floor, may only be better than
        # the optimum
        rng = np.random.default_rng(2027)
        families = ("concave", "convex", "none", "ascending", "valley")
        for i in range(60):
            family = families[i % len(families)]
            agg, cfg, pairs = random_instance(rng, family, i % 4, n_max=40,
                                              n_min=13)
            if family not in ("concave", "convex") or i % 2:
                cfg = replace(cfg, concentration="std",
                              gamma=float(rng.choice([0.1, 1e-3])))
            got = solve(agg, cfg, pairs)
            if not got.is_feasible:
                continue
            tab = _tables(agg, cfg, pairs)
            key = -_root_bound(agg, tab)
            if cfg.concentration == "std" and cfg.gamma:
                Q = _least_squares(agg, tab, min(cfg.max_bins or agg.n, agg.n)
                                   + 1)
                key += cfg.gamma * float(_std_floor(
                    Q, [0], [0.0], 0, agg.n_records, cfg.min_bins,
                    cfg.max_bins)[0])
            slack = 1e-12 * max(1.0, abs(got.objective))
            assert key <= -_gain(agg, got.objective) + slack, (family, i)

    @pytest.mark.parametrize("concentration", ["off", "std", "hhi", "maxmin"])
    def test_tie_heavy_tables_follow_the_oracle(self, concentration):
        # counts of 1 or 2 make many bins share a rate and many partitions
        # share an objective: only the tie-break may choose among them
        rng = np.random.default_rng(["off", "std", "hhi", "maxmin"]
                                    .index(concentration))
        for i in range(60):
            family = TREND_FAMILIES[i % len(TREND_FAMILIES)]
            n = int(rng.integers(4, 11))
            div = ("iv", "jsd")[i % 2]
            agg = binary_agg(rng.integers(1, 3, n), rng.integers(1, 3, n), div)
            cfg = BinningConfig(
                min_bins=int(rng.integers(1, 3)),
                max_bins=int(rng.integers(2, n + 1)) if i % 3 == 0 else None,
                min_diff=float(rng.choice([0.0, 0.01])),
                concentration=concentration,
                gamma=0.0 if concentration == "off" else
                float(rng.choice([0.002, 0.05])),
                trend=family_trend(family, rng, n), divergence=div)
            pairs = (pvalue_pairs(agg.R_ne, agg.R_e, 0.5) if i % 4 == 1
                     else None)
            _assert_oracle(solve(agg, cfg, pairs),
                           brute_force_oracle(agg, cfg, pairs), (family, i))

    @pytest.mark.parametrize("base", [1e4, 1e6, 1e7, 1e8])
    def test_std_floor_at_near_zero_variance(self, base):
        # pre-bins of equal event rate and b or b +- 2 records, b an odd
        # count near the base: every divergence is 0, so the objective is
        # the penalty alone, and partitions into equal runs have a std near
        # 0, below the float error of sum c**2 - T**2/m, which the floor
        # must allow for
        rng = np.random.default_rng(int(base))
        for i in range(60):
            family = TREND_FAMILIES[i % len(TREND_FAMILIES)]
            n = int(rng.integers(6, 11))
            b = int(base * rng.uniform(1, 3)) | 1
            half = b + rng.integers(-2, 3, n) * (i % 2)
            agg = binary_agg(half, half, ("iv", "jsd")[i // 2 % 2])
            cfg = BinningConfig(
                min_bins=int(rng.integers(2, 4)), concentration="std",
                gamma=float(rng.choice([0.1, 1.0])) / base,
                trend=family_trend(family, rng, n), divergence=agg.divergence)
            _assert_oracle(solve(agg, cfg), brute_force_oracle(agg, cfg),
                           (family, i))

    @pytest.mark.parametrize("base", [1.0, 1e3, 1e6, 1e9])
    def test_curves_at_near_ties_of_large_means(self, base):
        # continuous means a few EPS or a few ulps of the base apart: the
        # curve chains' gap must hold check_trend's rounding at any size
        rng = np.random.default_rng(int(base) + 7)
        spacing = float(np.spacing(base))
        for i in range(40):
            n = int(rng.integers(5, 11))
            count = rng.integers(1, 4, n)
            step = float(rng.choice([EPS / 2, EPS, spacing, 2 * spacing]))
            means = base + rng.integers(-2, 3, n) * step
            agg = continuous_agg(count, means * count)
            cfg = BinningConfig(min_bins=int(rng.integers(1, 3)),
                                min_diff=float(rng.choice([0.0, 0.01])),
                                trend=TrendSpec(("concave", "convex")[i % 2]))
            _assert_oracle(solve(agg, cfg),
                           brute_force_oracle(agg, cfg), i)

    def test_deep_search_needs_no_recursion(self):
        # all singletons is the first path tried, 400 bins deep: the search
        # runs under a recursion limit only 100 frames above the caller's.
        # With no max_bins the bound has one entry per (start, previous
        # start), and it is exact for trend none.
        agg = _wide_binary_agg(np.random.default_rng(5), 400)
        cfg = BinningConfig(min_bins=1, trend=TrendSpec("none"))
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack()) + 100)
        try:
            got = solve(agg, cfg)
        finally:
            sys.setrecursionlimit(limit)
        assert got.status == "optimal"
        root = _root_bound(agg, _tables(agg, cfg, None))
        assert got.objective == pytest.approx(root, rel=1e-12, abs=0)


class TestPeakValley:
    def test_free_peak_finds_best_change_point(self):
        agg = binary_agg([8, 2, 8], [2, 8, 2])   # rates 0.2, 0.8, 0.2
        cfg = BinningConfig(min_bins=1, trend=TrendSpec("peak"))
        sol = solve(agg, cfg)
        assert sol.status == "optimal"
        assert sol.n_bins == 3
        assert sol.change_point == 1
        assert sol.objective == pytest.approx(
            brute_force_oracle(agg, cfg).objective)

    def test_free_ties_follow_the_oracle(self):
        # tied optima: fewer bins, then the earliest starts, as the oracle
        # breaks them, whatever change bin each partition turns at; the
        # change point is the smallest pin that keeps the returned partition
        rng = np.random.default_rng(1)
        cases = [(binary_agg([2, 1, 2, 1, 2], [2, 1, 1, 2, 1]), "valley")]
        for i in range(1000):
            n = int(rng.integers(3, 7))
            cases.append((binary_agg(rng.integers(1, 3, n),
                                     rng.integers(1, 3, n)),
                          ("peak", "valley")[i % 2]))
        for i, (agg, kind) in enumerate(cases):
            cfg = BinningConfig(min_bins=1, trend=TrendSpec(kind))
            got = solve(agg, cfg)
            ref = brute_force_oracle(agg, cfg)
            assert got.status == ref.status, i
            assert got.intervals == ref.intervals, i
            assert got.objective == ref.objective, i
            if got.is_feasible:
                pinned = solve(agg, replace(
                    cfg, trend=TrendSpec(kind, got.change_point)))
                assert pinned.intervals == got.intervals, i
                assert pinned.objective == got.objective, i
                smaller = [replace(cfg, trend=TrendSpec(kind, t))
                           for t in range(got.change_point)]
                assert not any(evaluate_partition(got.intervals, agg, c)[0]
                               for c in smaller), i

    def test_pinned_change_point_restricts(self):
        agg = binary_agg([8, 2, 8], [2, 8, 2])
        pinned = BinningConfig(min_bins=1, trend=TrendSpec("peak", 0))
        free = BinningConfig(min_bins=1, trend=TrendSpec("peak"))
        a = solve(agg, pinned)
        b = solve(agg, free)
        assert a.objective <= b.objective
        ref = brute_force_oracle(agg, pinned)
        assert a.objective == ref.objective and a.intervals == ref.intervals

    def test_peak_pinned_at_zero_equals_descending(self):
        rng = np.random.default_rng(8)
        for _ in range(40):
            n = int(rng.integers(3, 9))
            agg = binary_agg(rng.integers(1, 20, n), rng.integers(1, 20, n))
            peak0 = solve(agg, BinningConfig(min_bins=1,
                                             trend=TrendSpec("peak", 0)))
            desc = solve(agg, BinningConfig(min_bins=1,
                                            trend=TrendSpec("descending")))
            assert peak0.status == desc.status
            if peak0.is_feasible:
                assert peak0.objective == desc.objective

    def test_pinned_out_of_range_raises(self):
        agg = binary_agg([3, 1], [1, 3])
        cfg = BinningConfig(trend=TrendSpec("valley", 7))
        with pytest.raises(InvalidConfigError):
            solve(agg, cfg)
        # every solver, and every rate matrix of a multi-class target: a pin
        # at the pre-bin count is one past the last pre-bin
        mc = multiclass_agg([[5, 1, 4, 2], [1, 5, 2, 4], [3, 3, 3, 3]])
        none = TrendSpec("none")
        cases = [(agg, TrendSpec("peak", 2)),
                 (mc, (TrendSpec("peak", 4), none, none)),
                 (mc, (TrendSpec("auto"), none, TrendSpec("valley", 9)))]
        for data, trend in cases:
            cfg = BinningConfig(min_bins=1, trend=trend)
            for solver in (solve, brute_force_oracle, ls_solve):
                with pytest.raises(InvalidConfigError,
                                   match=r"change_point \d out of range for "
                                         "{} pre-bins".format(data.n)):
                    solver(data, cfg)

    def test_multiclass_shape_binds_every_class(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            agg = multiclass_agg(rng.integers(1, 15, size=(3, 7)))
            cfg = BinningConfig(min_bins=1, trend=TrendSpec("valley"))
            sol = solve(agg, cfg)
            ref = brute_force_oracle(agg, cfg)
            assert sol.status == ref.status
            assert sol.intervals == ref.intervals
            if sol.is_feasible:
                assert sol.objective == ref.objective

    def test_valley_on_continuous_means(self):
        agg = continuous_agg([2, 2, 2], [10.0, 2.0, 12.0])  # means 5, 1, 6
        cfg = BinningConfig(min_bins=3, trend=TrendSpec("valley"))
        sol = solve(agg, cfg)
        assert sol.status == "optimal"
        assert sol.n_bins == 3 and sol.change_point == 1

    @pytest.mark.parametrize("trend", ["peak", "valley", "peak:4"])
    def test_every_solver_reports_the_change_point(self, trend):
        # one rule for all three: the pin, else the start of the first bin
        # that splits the solver's own partition into its two chains
        agg = random_binary_agg(np.random.default_rng(3), 9, high=50)
        spec = TrendSpec.parse(trend)
        cfg = BinningConfig(min_bins=1, trend=spec)
        first, second = (("ascending", "descending") if spec.kind == "peak"
                         else ("descending", "ascending"))
        sols = [solve(agg, cfg), brute_force_oracle(agg, cfg),
                ls_solve(agg, cfg)]
        for sol in sols:
            assert sol.is_feasible, trend
            rates = [agg.D[e, s] for s, e in sol.intervals]
            want = spec.change_point
            if want is None:
                want = next(sol.intervals[p][0] for p in range(len(rates))
                            if check_trend(rates[:p + 1], TrendSpec(first))
                            and check_trend(rates[p:], TrendSpec(second)))
            assert sol.change_point == want, (trend, sol)
        assert sols[0].intervals == sols[1].intervals
        for sol in sols[1:]:
            if sol.intervals == sols[0].intervals:
                assert sol.change_point == sols[0].change_point, trend


class TestAutoTrend:
    @staticmethod
    def _expected(agg, cfg, pairs):
        """The selection rule, re-derived from four concrete solves."""
        minimize = agg.target.is_continuous

        def run(kind):
            return solve(agg, replace(cfg, trend=TrendSpec(kind)), pairs)

        def better(a, b):
            if b is None or not b.is_feasible:
                return a
            if a is None or not a.is_feasible:
                return b
            if a.objective == b.objective:
                return a if a.n_bins <= b.n_bins else b
            if minimize:
                return a if a.objective < b.objective else b
            return a if a.objective > b.objective else b

        mono = better(run("descending"), run("ascending"))
        bent = better(run("peak"), run("valley"))
        mono_ok = mono is not None and mono.is_feasible
        bent_ok = bent is not None and bent.is_feasible
        if not mono_ok and not bent_ok:
            return None
        if not bent_ok:
            return mono
        if not mono_ok:
            return bent
        if minimize:
            gain = ((mono.objective - bent.objective) / abs(mono.objective)
                    if mono.objective != 0.0 else 0.0)
        elif mono.objective != 0.0:
            gain = (bent.objective - mono.objective) / abs(mono.objective)
        else:
            gain = math.inf if bent.objective > 0.0 else 0.0
        return bent if gain >= AUTO_MARGIN else mono

    def test_rule_matches_solver(self):
        rng = np.random.default_rng(55)
        for i in range(60):
            flavor = (0, 1, 2)[i % 3]   # single-matrix targets
            agg, cfg, pairs = random_instance(rng, "auto", flavor)
            got = solve(agg, cfg, pairs)
            want = self._expected(agg, cfg, pairs)
            if want is None:
                assert got.status == "infeasible"
            else:
                assert got.status == "optimal"
                assert got.objective == want.objective
                assert got.trend_used.kind == want.trend_used.kind
                assert got.intervals == want.intervals

    def test_candidate_ties_pick_fewer_bins_then_list_order(self):
        def sol(objective, m):
            return Solution(status="optimal", objective=objective,
                            intervals=tuple((i, i) for i in range(m)))

        # a divergence is its own gain, a deviation enters negated
        for gain in (1.0, -1.0):
            three, two, other_two = sol(gain, 3), sol(gain, 2), sol(gain, 2)
            assert _pick([three, two, other_two]) is two
            assert _pick([None, Solution(status="infeasible")]) is None
        two = sol(1.0, 2)
        assert _pick([two, sol(2.0, 3)]).objective == 2.0
        two = sol(-1.0, 2)
        assert _pick([two, sol(-2.0, 3)]) is two

    def test_continuous_tie_picks_the_listed_order(self):
        # means 3, 1, 3 in at most two bins: descending (3 | 1, 3) and
        # ascending (3, 1 | 3) deviate by sqrt(2) each, a peak or valley
        # does no better, so descending wins as listed first
        agg = continuous_agg([1, 1, 1], [3.0, 1.0, 3.0])
        cfg = BinningConfig(min_bins=1, max_bins=2, trend=TrendSpec("auto"))
        asc = solve(agg, replace(cfg, trend=TrendSpec("ascending")))
        desc = solve(agg, replace(cfg, trend=TrendSpec("descending")))
        assert asc.objective == desc.objective == math.sqrt(2.0)
        assert asc.n_bins == desc.n_bins == 2
        for sol in (solve(agg, cfg), brute_force_oracle(agg, cfg),
                    ls_solve(agg, cfg)):
            assert sol.trend_used == TrendSpec("descending")
            assert sol.intervals == ((0, 0), (1, 2))
            assert sol.objective == math.sqrt(2.0)

    def test_prefers_monotone_within_margin(self):
        # descending fits perfectly; a peak can never beat it by 10%
        agg = binary_agg([1, 5, 9], [9, 5, 1])   # rates 0.9, 0.5, 0.1
        sol = solve(agg, BinningConfig(min_bins=1, trend=TrendSpec("auto")))
        assert sol.trend_used.kind == "descending"
        assert sol.n_bins == 3

    def test_switches_to_bent_on_big_gain(self):
        # strong reversal: monotone must drop a bin, the peak keeps all three
        agg = binary_agg([9, 1, 9], [1, 9, 1])   # rates 0.1, 0.9, 0.1
        sol = solve(agg, BinningConfig(min_bins=1, trend=TrendSpec("auto")))
        assert sol.trend_used.kind in ("peak", "valley")
        assert sol.n_bins == 3


class TestMulticlass:
    def test_matches_oracle(self):
        rng = np.random.default_rng(70)
        for i in range(80):
            family = TREND_FAMILIES[i % len(TREND_FAMILIES)]
            agg, cfg, pairs = random_instance(rng, family, 3)
            got = solve(agg, cfg)
            ref = brute_force_oracle(agg, cfg)
            assert got.status == ref.status, (family, i)
            if got.is_feasible:
                assert got.objective == ref.objective, (family, i)
                assert got.intervals == ref.intervals, (family, i)

    def test_per_class_trend_tuple(self):
        rng = np.random.default_rng(71)
        ce = rng.integers(1, 12, size=(3, 5))
        agg = multiclass_agg(ce)
        cfg = BinningConfig(min_bins=1,
                            trend=(TrendSpec("ascending"),
                                   TrendSpec("none"),
                                   TrendSpec("auto")))
        sol = solve(agg, cfg)
        ref = brute_force_oracle(agg, cfg)
        assert sol.status == ref.status
        if sol.is_feasible:
            assert sol.objective == ref.objective
            # every class's rate sequence obeys its resolved trend
            for mat, tr in zip(agg.class_D, sol.trend_used):
                rates = [mat[e, s] for s, e in sol.intervals]
                assert tr.kind != "auto"
                assert check_trend(rates, tr)

    def test_trend_tuple_length_must_match(self):
        agg = multiclass_agg([[1, 2], [2, 1], [1, 1]])
        cfg = BinningConfig(trend=(TrendSpec("none"), TrendSpec("none")))
        with pytest.raises(InvalidConfigError):
            solve(agg, cfg)

    def test_objective_is_summed_class_divergence(self):
        agg = multiclass_agg([[3, 1, 4], [1, 3, 2], [2, 2, 1]])
        cfg = BinningConfig(min_bins=1, trend=TrendSpec("none"))
        sol = solve(agg, cfg)
        total = sum(sum(v[e, s] for s, e in sol.intervals)
                    for v in agg.class_V)
        assert sol.objective == pytest.approx(total)


class TestEvaluatePartition:
    def test_rejects_non_partitions(self):
        agg = binary_agg([3, 1, 2], [1, 3, 2])
        cfg = BinningConfig(min_bins=1, trend=TrendSpec("none"))
        for bad in ((), ((0, 0),), ((0, 0), (2, 2)), ((1, 2),)):
            ok, obj = evaluate_partition(bad, agg, cfg)
            assert not ok and math.isnan(obj)

    def test_scores_full_partition(self):
        agg = binary_agg([3, 1], [1, 3])
        cfg = BinningConfig(min_bins=1, trend=TrendSpec("none"))
        ok, obj = evaluate_partition(((0, 0), (1, 1)), agg, cfg)
        assert ok and obj == pytest.approx(math.log(3.0))

    def test_full_merge_scores_exactly_zero(self):
        rng = np.random.default_rng(14)
        for kind in ("iv", "jsd"):
            n = int(rng.integers(2, 9))
            agg = binary_agg(rng.integers(1, 40, n), rng.integers(1, 40, n),
                             divergence=kind)
            cfg = BinningConfig(min_bins=1, trend=TrendSpec("none"))
            ok, obj = evaluate_partition(((0, n - 1),), agg, cfg)
            assert ok and obj == 0.0
