import math
import warnings

import numpy as np
import pytest

from binopt import (
    AggregateSet, TargetKind, ZeroCountError,
    build_binary, build_continuous, build_multiclass, build_prebin_table,
    divergence_contrib, pvalue_pairs, refine_prebins_multiclass, woe,
)
from binopt.aggregate import _merge_counts, _zstat
from binopt.preprocess import PrebinTable


def binary_table(nonevent, event, **kw):
    ne = np.asarray(nonevent, dtype=np.int64)
    ev = np.asarray(event, dtype=np.int64)
    return PrebinTable(target=TargetKind.binary(), count=ne + ev,
                       nonevent=ne, event=ev,
                       splits=tuple(float(i) + 0.5 for i in range(ne.size - 1)),
                       **kw)


class TestWoe:
    """Spot checks against a hand-tabulated credit-scoring column.

    Grand totals 5000 non-events / 5459 events; shares of individual bins
    verified to reproduce the reference log-odds figures.
    """

    def test_first_bin(self):
        assert woe(99, 445, 5000, 5459) == pytest.approx(-1.41513, abs=1e-4)

    def test_interior_bin(self):
        assert woe(1141, 868, 5000, 5459) == pytest.approx(0.361296, abs=1e-4)

    def test_balanced_bin_is_near_zero(self):
        assert woe(252, 306, 5000, 5459) == pytest.approx(-0.106328, abs=1e-4)

    def test_zero_count_raises(self):
        for args in ((0, 1, 10, 10), (1, 0, 10, 10), (1, 1, 0, 10), (1, 1, 10, 0)):
            with pytest.raises(ZeroCountError):
                woe(*args)

    def test_sign_convention(self):
        # more events than its share -> negative WoE
        assert woe(10, 90, 100, 100) < 0
        assert woe(90, 10, 100, 100) > 0


class TestDivergenceContrib:
    def test_iv_hand_value(self):
        assert divergence_contrib(0.5, 0.25, "iv") == pytest.approx(
            0.25 * math.log(2.0))

    def test_iv_reference_cells(self):
        assert divergence_contrib(99 / 5000, 445 / 5459, "iv") == pytest.approx(
            0.087337, abs=1e-5)
        assert divergence_contrib(1141 / 5000, 868 / 5459, "iv") == pytest.approx(
            0.025000, abs=1e-5)

    def test_js_reference_cells(self):
        assert divergence_contrib(99 / 5000, 445 / 5459, "jsd") == pytest.approx(
            0.010089, abs=1e-5)
        assert divergence_contrib(248 / 5000, 242 / 5459, "jsd") == pytest.approx(
            0.000074, abs=1e-5)

    def test_iv_rejects_zero_share(self):
        with pytest.raises(ZeroCountError):
            divergence_contrib(0.0, 0.5, "iv")
        with pytest.raises(ZeroCountError):
            divergence_contrib(0.5, 0.0, "iv")

    def test_js_tolerates_zero_share(self):
        assert divergence_contrib(0.0, 0.5, "jsd") == pytest.approx(
            0.25 * math.log(2.0))
        assert divergence_contrib(0.0, 0.0, "jsd") == 0.0

    def test_js_symmetric_iv_symmetric(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            p, q = rng.uniform(0.01, 1.0, size=2)
            for kind in ("iv", "jsd"):
                assert divergence_contrib(p, q, kind) == pytest.approx(
                    divergence_contrib(q, p, kind))
                assert divergence_contrib(p, q, kind) >= 0.0

    def test_js_bounded_by_log2(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            k = int(rng.integers(1, 8))
            p = rng.dirichlet(np.ones(k))
            q = rng.dirichlet(np.ones(k))
            total = sum(divergence_contrib(pi, qi, "jsd")
                        for pi, qi in zip(p, q))
            assert -1e-12 <= total <= math.log(2.0) + 1e-12

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            divergence_contrib(0.5, 0.5, "hellinger")


class TestBinaryAggregates:
    def test_counts_add_up(self):
        agg = build_binary(binary_table([3, 1, 2], [1, 3, 2]))
        assert np.array_equal(agg.R, agg.R_ne + agg.R_e)
        # mid/level merges
        assert agg.R_ne[1, 0] == 4 and agg.R_e[1, 0] == 4
        assert agg.R[2, 0] == 12
        assert agg.n_records == 12

    def test_divergence_and_rate_cells(self):
        agg = build_binary(binary_table([1, 1], [1, 3]))
        # pre-bin 0 alone: shares 1/2 vs 1/4
        assert agg.V[0, 0] == pytest.approx(0.25 * math.log(2.0))
        # full merge: shares 1 vs 1 -> no divergence left
        assert agg.V[1, 0] == 0.0
        assert agg.D[1, 0] == pytest.approx(4.0 / 6.0)
        assert agg.D[0, 0] == pytest.approx(0.5)

    def test_merge_entry_matches_direct_sum(self):
        rng = np.random.default_rng(5)
        ne = rng.integers(1, 30, size=7)
        ev = rng.integers(1, 30, size=7)
        agg = build_binary(binary_table(ne, ev))
        for i in range(7):
            for j in range(i + 1):
                assert agg.R_ne[i, j] == ne[j:i + 1].sum()
                assert agg.R_e[i, j] == ev[j:i + 1].sum()
                assert agg.D[i, j] == pytest.approx(
                    ev[j:i + 1].sum() / (ne[j:i + 1].sum() + ev[j:i + 1].sum()))

    def test_full_merge_divergence_is_zero(self):
        rng = np.random.default_rng(9)
        for kind in ("iv", "jsd"):
            ne = rng.integers(1, 50, size=6)
            ev = rng.integers(1, 50, size=6)
            agg = build_binary(binary_table(ne, ev), divergence=kind)
            assert agg.V[5, 0] == pytest.approx(0.0, abs=1e-15)

    def test_objective_matrix_selection(self):
        agg = build_binary(binary_table([1, 1], [1, 1]))
        assert agg.objective_matrix() is agg.V
        assert agg.rate_matrices() == (agg.D,)


class TestContinuousAggregates:
    def test_hand_example(self):
        t = PrebinTable(target=TargetKind.continuous(),
                        count=np.array([2, 1], dtype=np.int64),
                        total=np.array([2.0, 4.0]), splits=(0.5,))
        agg = build_continuous(t, norm_p=2)
        assert agg.U[0, 0] == pytest.approx(1.0)
        assert agg.U[1, 1] == pytest.approx(4.0)
        assert agg.U[1, 0] == pytest.approx(2.0)
        # pre-bin means 1 and 4 around merged mean 2: sqrt(1 + 4)
        assert agg.L[1, 0] == pytest.approx(math.sqrt(5.0))
        assert agg.L[0, 0] == 0.0

    def test_norm_p1(self):
        t = PrebinTable(target=TargetKind.continuous(),
                        count=np.array([2, 1], dtype=np.int64),
                        total=np.array([2.0, 4.0]), splits=(0.5,))
        agg = build_continuous(t, norm_p=1)
        assert agg.L[1, 0] == pytest.approx(3.0)

    def test_p2_matches_brute_force(self):
        rng = np.random.default_rng(21)
        count = rng.integers(1, 20, size=8)
        total = rng.normal(size=8) * count
        t = PrebinTable(target=TargetKind.continuous(),
                        count=count.astype(np.int64), total=total,
                        splits=tuple(range(7)))
        agg = build_continuous(t, norm_p=2)
        mu = total / count
        for i in range(8):
            for j in range(i + 1):
                u = total[j:i + 1].sum() / count[j:i + 1].sum()
                ref = math.sqrt(((mu[j:i + 1] - u) ** 2).sum())
                assert agg.L[i, j] == pytest.approx(ref, abs=1e-12)
                assert agg.U[i, j] == pytest.approx(u)

    def test_objective_matrix_selection(self):
        t = PrebinTable(target=TargetKind.continuous(),
                        count=np.array([1, 1], dtype=np.int64),
                        total=np.array([1.0, 2.0]), splits=(0.5,))
        agg = build_continuous(t)
        assert agg.objective_matrix() is agg.L
        assert agg.rate_matrices() == (agg.U,)


class TestMulticlassAggregates:
    def _table(self):
        ce = np.array([[3, 2, 4, 1],
                       [1, 3, 2, 2],
                       [2, 1, 1, 3]], dtype=np.int64)
        return PrebinTable(target=TargetKind.multiclass(3),
                           count=ce.sum(axis=0), class_events=ce,
                           splits=(0.5, 1.5, 2.5))

    def test_objective_is_sum_of_class_contributions(self):
        agg = build_multiclass(self._table())
        assert len(agg.class_V) == 3 and len(agg.class_D) == 3
        assert np.array_equal(agg.V, sum(agg.class_V))

    def test_class_matrices_match_one_vs_rest(self):
        t = self._table()
        agg = build_multiclass(t)
        for c in range(3):
            ev = t.class_events[c].astype(float)
            ne = t.count.astype(float) - ev
            ovr = build_binary(binary_table(ne.astype(int), ev.astype(int)))
            assert np.allclose(agg.class_V[c], ovr.V)
            assert np.allclose(agg.class_D[c], ovr.D)

    def test_builds_the_table_it_is_given(self):
        # the caller refines: a refined table keeps its pre-bins, and an
        # unrefined one has an undefined IV contribution
        ce = np.array([[5, 0, 3],
                       [1, 4, 2],
                       [2, 3, 1]], dtype=np.int64)
        t = PrebinTable(target=TargetKind.multiclass(3),
                        count=ce.sum(axis=0), class_events=ce,
                        splits=(0.5, 1.5))
        refined = refine_prebins_multiclass(t)
        assert build_multiclass(refined).n == refined.n == 2
        with pytest.raises(ZeroCountError):
            build_multiclass(t)     # middle pre-bin lacks class 0

    def test_rate_matrices_are_per_class(self):
        agg = build_multiclass(self._table())
        assert agg.rate_matrices() == agg.class_D


class TestPValuePairs:
    def test_identical_rates_are_not_separated(self):
        agg = build_binary(binary_table([5, 5], [5, 5]))
        pp = pvalue_pairs(agg.R_ne, agg.R_e, alpha=0.05)
        assert (0, 0, 1, 1) in pp.pairs

    def test_extreme_rates_are_separated(self):
        agg = build_binary(binary_table([50, 5], [5, 50]))
        pp = pvalue_pairs(agg.R_ne, agg.R_e, alpha=0.05)
        assert (0, 0, 1, 1) not in pp.pairs

    def test_threshold_is_normal_quantile(self):
        agg = build_binary(binary_table([5, 5], [5, 5]))
        pp = pvalue_pairs(agg.R_ne, agg.R_e, alpha=0.05)
        assert pp.threshold == pytest.approx(1.959963985, abs=1e-8)

    def test_threshold_edges(self):
        agg = build_binary(binary_table([5, 5], [5, 5]))
        every = pvalue_pairs(agg.R_ne, agg.R_e, alpha=1.0)
        assert every.threshold == 0.0
        assert not every.pairs          # |z| < 0 holds nowhere
        none = pvalue_pairs(agg.R_ne, agg.R_e, alpha=1e-300)
        assert none.threshold == math.inf
        assert (0, 0, 1, 1) in none.pairs

    def test_pairs_are_adjacent_quadruples(self):
        rng = np.random.default_rng(13)
        ne = rng.integers(1, 40, size=6)
        ev = rng.integers(1, 40, size=6)
        agg = build_binary(binary_table(ne, ev))
        pp = pvalue_pairs(agg.R_ne, agg.R_e, alpha=0.2)
        for i, j, k, l in pp.pairs:
            assert j <= i and l == i + 1 and l <= k <= 5

    def test_tighter_alpha_blocks_more(self):
        rng = np.random.default_rng(17)
        ne = rng.integers(1, 40, size=6)
        ev = rng.integers(1, 40, size=6)
        agg = build_binary(binary_table(ne, ev))
        loose = pvalue_pairs(agg.R_ne, agg.R_e, alpha=0.5)
        tight = pvalue_pairs(agg.R_ne, agg.R_e, alpha=0.01)
        assert loose.pairs <= tight.pairs


def _pvalue_pairs_loop(R_ne, R_e, threshold):
    """Reference: one scalar ``_zstat`` call per (first bin, second bin) pair."""
    n = R_e.shape[0]
    found = set()
    for i in range(n - 1):
        l = i + 1
        for j in range(i + 1):
            for k in range(l, n):
                z = _zstat(float(R_e[i, j]), float(R_ne[i, j]),
                           float(R_e[k, l]), float(R_ne[k, l]))
                if abs(z) < threshold:
                    found.add((i, j, k, l))
    return frozenset(found)


@pytest.mark.parametrize("n", [1, 2, 3, 7, 16, 33, 76])
def test_pvalue_pairs_match_a_loop_over_pairs(n):
    # the first two pre-bins have no events and the last two no non-events:
    # bins of zero pooled variance, whose z statistic is 0 by rule
    rng = np.random.default_rng(n)
    ev = rng.integers(0, 40, n)
    ne = rng.integers(1, 40, n)
    ev[:2] = 0
    ne[-2:] = 0
    ev[-2:] += 1
    R_ne, R_e = _merge_counts(ne), _merge_counts(ev)
    for alpha in (0.01, 0.05, 0.5):
        pp = pvalue_pairs(R_ne, R_e, alpha)
        want = _pvalue_pairs_loop(R_ne, R_e, pp.threshold)
        assert len(pp.masks) == n
        for l, mask in enumerate(pp.masks):
            assert mask.shape == (l, n - l) and mask.dtype == bool
            assert not mask.flags.writeable
            js, ks = np.nonzero(mask)
            assert ({(l - 1, j, k + l, l) for j, k in zip(js, ks)}
                    == {quad for quad in want if quad[3] == l})
        assert pp.pairs == want
        assert all(type(v) is int for quad in pp.pairs for v in quad)
        if n >= 4:
            assert {(0, 0, 1, 1), (n - 2, n - 2, n - 1, n - 1)} <= pp.pairs


def test_pvalue_pairs_warn_of_nothing_on_zero_variance_cells():
    # pre-bins 0-1 hold only non-events and 2-3 only events, so every merge
    # inside either run has pooled rate 0 or 1
    R_ne, R_e = _merge_counts([4, 3, 0, 0, 5]), _merge_counts([0, 0, 2, 6, 5])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pp = pvalue_pairs(R_ne, R_e, 0.05)
    assert pp.masks[1][0, 0]        # rates 0 and 0: z is 0, blocked


@pytest.mark.parametrize("n", [1, 2, 13, 76, 200])
def test_merge_counts_matches_a_row_loop(n):
    values = np.random.default_rng(n).integers(0, 10**6, n).astype(float)
    csum = np.concatenate(([0.0], np.cumsum(values)))
    want = np.zeros((n, n))
    for i in range(n):
        want[i, : i + 1] = csum[i + 1] - csum[: i + 1]
    assert np.array_equal(_merge_counts(values), want)


def _contrib_loop(p, q, kind):
    """One cell's divergence with scalar ``math.log``, as the builders once
    computed it cell by cell."""
    if kind == "iv":
        if p <= 0 or q <= 0:
            raise ZeroCountError("IV contribution undefined for zero shares: "
                                 "p={}, q={}".format(p, q))
        return (p - q) * math.log(p / q)
    m = 0.5 * (p + q)
    term = 0.0
    if p > 0:
        term += p * math.log(p / m)
    if q > 0:
        term += q * math.log(q / m)
    return 0.5 * term


def _share_matrices_loop(ne, ev, kind):
    """Reference: V and D of one binary or one-vs-rest problem, one cell at a
    time in row order."""
    ne = np.asarray(ne, dtype=float)
    ev = np.asarray(ev, dtype=float)
    ne_total, e_total = float(ne.sum()), float(ev.sum())
    R_ne, R_e = _merge_counts(ne), _merge_counts(ev)
    R = R_ne + R_e
    n = ne.size
    V = np.zeros((n, n))
    D = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1):
            V[i, j] = _contrib_loop(R_ne[i, j] / ne_total, R_e[i, j] / e_total,
                                    kind)
            D[i, j] = R_e[i, j] / R[i, j]
    return V, D


@pytest.mark.parametrize("kind", ["iv", "jsd"])
def test_builders_match_a_cell_loop(kind):
    # bit for bit: the builders take their logs with math.log, not np.log
    rng = np.random.default_rng(76)
    for n in range(1, 77):
        ne, ev = rng.integers(1, 500, n), rng.integers(1, 500, n)
        agg = build_binary(binary_table(ne, ev), divergence=kind)
        V, D = _share_matrices_loop(ne, ev, kind)
        assert np.array_equal(agg.V, V) and np.array_equal(agg.D, D), n

        ce = rng.integers(1, 60, (3, n))
        agg = build_multiclass(
            PrebinTable(target=TargetKind.multiclass(3), count=ce.sum(axis=0),
                        class_events=ce,
                        splits=tuple(float(i) + 0.5 for i in range(n - 1))),
            divergence=kind)
        for c in range(3):
            V, D = _share_matrices_loop(ce.sum(axis=0) - ce[c], ce[c], kind)
            assert np.array_equal(agg.class_V[c], V), (n, c)
            assert np.array_equal(agg.class_D[c], D), (n, c)
        assert np.array_equal(agg.V, np.sum(agg.class_V, axis=0))


def test_zero_share_names_the_first_bad_cell():
    # unrefined tables: pre-bins without non-events or events make zero
    # shares, and the error must name the first such cell in row order
    rng = np.random.default_rng(8)
    for _ in range(40):
        n = int(rng.integers(2, 12))
        ne, ev = rng.integers(0, 4, n), rng.integers(0, 4, n)
        ne[0] += ne.sum() == 0
        ev[-1] += ev.sum() == 0
        with pytest.raises(ZeroCountError) as want:
            _share_matrices_loop(ne, ev, "iv")
            raise ZeroCountError("no zero share")
        if str(want.value) == "no zero share":
            assert build_binary(binary_table(ne, ev)).n == n
            continue
        with pytest.raises(ZeroCountError) as got:
            build_binary(binary_table(ne, ev))
        assert str(got.value) == str(want.value)
    with pytest.raises(ZeroCountError, match=r"p=0\.0, q=0\.5"):
        divergence_contrib(np.array([0.5, 0.0, 0.0]),
                           np.array([0.5, 0.5, 0.0]), "iv")
    with pytest.raises(ZeroCountError, match=r"negative shares: p=-0\.1"):
        divergence_contrib(np.array([0.5, -0.1]), np.array([0.5, 0.5]), "jsd")


def test_aggregate_arrays_are_frozen():
    agg = build_binary(binary_table([1, 2], [2, 1]))
    with pytest.raises(ValueError):
        agg.V[0, 0] = 3.0


def test_build_from_raw_column_end_to_end():
    rng = np.random.default_rng(3)
    x = rng.uniform(0, 1, 500)
    y = (rng.uniform(size=500) < 0.2 + 0.6 * x).astype(int)
    table = build_prebin_table(x, y, TargetKind.binary(),
                               splits=tuple(np.linspace(0.1, 0.9, 9)))
    from binopt import refine_prebins
    agg = build_binary(refine_prebins(table))
    assert isinstance(agg, AggregateSet)
    n = agg.n
    # total divergence of the finest partition >= that of the single bin (0)
    finest = sum(agg.V[i, i] for i in range(n))
    assert finest >= agg.V[n - 1, 0]
