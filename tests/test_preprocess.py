import numpy as np
import pytest

from binopt import (
    DegenerateColumnError, InfeasibleError, TargetKind,
    build_prebin_table, prebin_categorical, prebin_numeric,
    refine_prebins, refine_prebins_multiclass, split_missing_special,
)
from binopt.preprocess import table_rows


class TestSplitRouting:
    def test_three_way_split_preserves_pairing(self):
        values = [1.0, None, -9.0, 4.0, float("nan"), -9.0, 7.0]
        target = [0, 1, 0, 1, 1, 1, 0]
        (xc, yc), (xs, ys), (xm, ym) = split_missing_special(
            values, target, special_values=(-9.0,))
        assert xc.tolist() == [1.0, 4.0, 7.0] and yc.tolist() == [0, 1, 0]
        assert xs.tolist() == [-9.0, -9.0] and ys.tolist() == [0, 1]
        assert ym.tolist() == [1, 1] and len(xm) == 2

    def test_missing_wins_over_special(self):
        # NaN is missing even if NaN were listed as special
        (_, _), (xs, _), (xm, _) = split_missing_special(
            [float("nan")], [1], special_values=(float("nan"),))
        assert xs.tolist() == [] and len(xm) == 1

    def test_categorical_specials(self):
        (xc, _), (xs, _), _ = split_missing_special(
            ["a", "zz", "b"], [0, 1, 0], special_values=("zz",))
        assert xc.tolist() == ["a", "b"] and xs.tolist() == ["zz"]


    def test_signed_zero_specials(self):
        for special, value in ((-0.0, 0.0), (0.0, -0.0)):
            (xc, _), (xs, _), _ = split_missing_special(
                np.array([value, 1.0]), [1, 0], special_values=(special,))
            assert xs.tolist() == [value] and xc.tolist() == [1.0]

    def test_nan_special_routes_to_missing_in_a_float_column(self):
        (xc, _), (xs, _), (xm, ym) = split_missing_special(
            np.array([np.nan, 1.0, np.nan]), [1, 0, 0],
            special_values=(float("nan"), 1.0))
        assert xc.tolist() == [] and xs.tolist() == [1.0]
        assert len(xm) == 2 and ym.tolist() == [1, 0]

    def test_object_column_matches_a_per_record_loop(self):
        rng = np.random.default_rng(4)
        pool = ["a", "b", "zz", None, float("nan"), -9.0, 3.0]
        values = [pool[k] for k in rng.integers(0, len(pool), 200)]
        target = rng.integers(0, 2, 200).tolist()
        specials = ("zz", -9.0)
        streams = split_missing_special(values, target, specials)
        expected = ([], []), ([], []), ([], [])
        for v, t in zip(values, target):
            k = 2 if v is None or v != v else 1 if v in specials else 0
            expected[k][0].append(v)
            expected[k][1].append(t)
        for (x, y), (ex, ey) in zip(streams, expected):
            assert len(x) == len(ex) and y.tolist() == ey
            assert [v for v in x.tolist() if v == v] == \
                [v for v in ex if v == v]


def _reference_drop_splits(x, splits, min_count):
    """Splits left after dropping, one at a time, the split to the right of
    the leftmost pre-bin with fewer than ``min_count`` records (the last
    pre-bin's left one), recounting every record after each drop."""
    splits = list(splits)
    while splits:
        counts = np.bincount(np.searchsorted(splits, x, side="right"),
                             minlength=len(splits) + 1)
        small = [i for i, c in enumerate(counts) if c < min_count]
        if not small:
            break
        del splits[min(small[0], len(splits) - 1)]
    return tuple(splits)


class TestPrebinNumeric:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_a_recounting_loop(self, seed):
        rng = np.random.default_rng(seed)
        x = np.round(rng.lognormal(0.0, 1.0, 500), int(rng.integers(0, 3)))
        count, frac = int(rng.integers(5, 30)), float(rng.uniform(0, 0.12))
        splits = prebin_numeric(x, prebin_count=count, prebin_min_frac=frac)
        qs = np.unique(np.quantile(x, np.linspace(0, 1, count + 1)[1:-1]))
        qs = qs[(qs > x.min()) & (qs <= x.max())]
        min_count = max(1, int(np.ceil(frac * x.size)))
        assert splits == _reference_drop_splits(x, qs, min_count)
        # and build_prebin_table drops the splits of empty pre-bins alike
        cuts = np.sort(rng.uniform(0, 3 * x.max(), 12))
        t = build_prebin_table(x, np.ones(x.size), TargetKind.continuous(),
                               splits=tuple(cuts))
        assert t.splits == _reference_drop_splits(x, cuts, 1)


    def test_uniform_data_gets_requested_count(self):
        rng = np.random.default_rng(7)
        x = rng.uniform(0, 100, size=2000)
        splits = prebin_numeric(x, prebin_count=10, prebin_min_frac=0.0)
        assert len(splits) == 9
        assert list(splits) == sorted(splits)

    def test_heavy_ties_collapse_duplicate_quantiles(self):
        x = np.array([1.0] * 90 + [2.0] * 5 + [3.0] * 5)
        splits = prebin_numeric(x, prebin_count=10, prebin_min_frac=0.0)
        # ties crush most quantile candidates; what survives sits strictly
        # inside the data range and leaves no pre-bin empty
        assert 1 <= len(splits) <= 2
        assert all(1.0 < s <= 3.0 for s in splits)
        idx = np.searchsorted(np.asarray(splits), x, side="right")
        assert np.bincount(idx, minlength=len(splits) + 1).min() >= 1

    def test_min_frac_merges_small_prebins(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=400)
        splits = prebin_numeric(x, prebin_count=20, prebin_min_frac=0.10)
        idx = np.searchsorted(np.asarray(splits), x, side="right")
        counts = np.bincount(idx, minlength=len(splits) + 1)
        assert counts.min() >= 40

    def test_single_value_column_is_degenerate(self):
        with pytest.raises(DegenerateColumnError):
            prebin_numeric([5.0] * 50)
        with pytest.raises(DegenerateColumnError):
            prebin_numeric([])

    def test_infinite_values_fall_in_the_end_prebins(self):
        # three inf and one -inf: the candidates come from the six finite
        # values, and table_rows puts each infinite one in an end pre-bin
        inf = float("inf")
        x = [1.0, 2.0, 3.0, inf, inf, inf, -inf, 4.0, 5.0, 6.0]
        splits = prebin_numeric(x)
        assert splits == (1.25, 2.25, 3.25, 4.25, 5.25)
        assert splits == prebin_numeric([v for v in x if abs(v) < inf])
        rows = table_rows([-inf, inf], splits=splits)
        assert rows.tolist() == [0, len(splits)]
        assert prebin_numeric([inf, -inf, inf]) == ()

    def test_two_distinct_values(self):
        splits = prebin_numeric([0.0] * 30 + [1.0] * 30, prebin_count=20,
                                prebin_min_frac=0.0)
        # one cut separating the two levels
        assert len(splits) == 1
        assert 0.0 < splits[0] <= 1.0


class TestPrebinCategorical:
    def test_orders_by_event_rate_then_label(self):
        # rates: a=0.0, b=1.0, c=0.5, d=0.5  ->  a, c, d, b
        values = ["a", "a", "b", "b", "c", "c", "d", "d"]
        target = [0, 0, 1, 1, 0, 1, 1, 0]
        table, pool = prebin_categorical(values, target, TargetKind.binary())
        assert table.groups == (("a",), ("c",), ("d",), ("b",))
        assert table.count.tolist() == [2, 2, 2, 2]
        assert table.event.tolist() == [0, 1, 1, 2]
        assert pool is None

    def test_cutoff_pools_rare_categories(self):
        values = ["a"] * 48 + ["b"] * 48 + ["x"] * 2 + ["y"] * 2
        target = [0, 1] * 50
        table, pool = prebin_categorical(values, target, TargetKind.binary(),
                                         cutoff=0.05)
        assert pool.groups == (("x", "y"),)
        assert pool.count.tolist() == [4] and pool.event.tolist() == [2]
        assert {g for (g,) in table.groups} == {"a", "b"}
        assert table.n_records == 96

    def test_single_category_degenerate(self):
        with pytest.raises(DegenerateColumnError):
            prebin_categorical(["a"] * 10, [0, 1] * 5, TargetKind.binary())

    def test_everything_pooled_degenerate(self):
        with pytest.raises(DegenerateColumnError):
            prebin_categorical(["a", "b", "c", "d"], [0, 1, 0, 1],
                               TargetKind.binary(), cutoff=0.9)


class TestBuildTable:
    def test_binary_counts(self):
        x = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        y = [0, 1, 0, 0, 1, 1]
        for splits in ((2.5, 4.5), [4.5, 2.5], np.array([2.5, 4.5])):
            t = build_prebin_table(x, y, TargetKind.binary(), splits=splits)
            assert t.n == 3
            assert list(t.count) == [2, 2, 2]
            assert list(t.event) == [1, 0, 2]
            assert list(t.nonevent) == [1, 2, 0]
            assert t.splits == (2.5, 4.5)

    def test_boundary_value_goes_right(self):
        t = build_prebin_table([2.5, 2.4], [1, 0], TargetKind.binary(),
                               splits=(2.5,))
        assert list(t.count) == [1, 1]
        assert list(t.event) == [0, 1]   # 2.5 landed in the right pre-bin

    def test_empty_prebin_drops_its_split(self):
        # nothing between 10 and 20 -> that split goes away
        t = build_prebin_table([1.0, 2.0, 25.0], [0, 1, 1],
                               TargetKind.binary(), splits=(10.0, 20.0))
        assert t.n == 2
        assert len(t.splits) == 1

    def test_continuous_totals(self):
        t = build_prebin_table([1.0, 2.0, 3.0], [10.0, 20.0, 31.0],
                               TargetKind.continuous(), splits=(2.5,))
        assert list(t.total) == [30.0, 31.0]
        assert list(t.means()) == [15.0, 31.0]

    def test_multiclass_class_events(self):
        t = build_prebin_table([1.0, 2.0, 3.0, 4.0], [0, 1, 2, 0],
                               TargetKind.multiclass(3), splits=(2.5,))
        assert t.class_events.shape == (3, 2)
        assert list(t.class_events[0]) == [1, 1]
        assert list(t.class_events[2]) == [0, 1]

    def test_arrays_are_frozen(self):
        t = build_prebin_table([1.0, 2.0], [0, 1], TargetKind.binary(),
                               splits=(1.5,))
        with pytest.raises(ValueError):
            t.count[0] = 99


class TestRefine:
    def test_merges_zero_event_prebins(self):
        t = build_prebin_table(
            [1.0, 1.0, 2.0, 3.0, 3.0], [0, 1, 0, 0, 1],
            TargetKind.binary(), splits=(1.5, 2.5))
        # middle pre-bin has no events
        r = refine_prebins(t)
        assert r.n == 2
        assert all(r.event > 0) and all(r.nonevent > 0)
        assert r.n_records == t.n_records

    def test_last_prebin_merges_leftward(self):
        t = build_prebin_table(
            [1.0, 1.0, 2.0, 2.0, 3.0], [0, 1, 1, 0, 1],
            TargetKind.binary(), splits=(1.5, 2.5))
        r = refine_prebins(t)
        assert r.n == 2
        assert len(r.splits) == 1 and r.splits[0] == 1.5

    def test_idempotent(self):
        t = build_prebin_table(
            [1.0, 1.0, 2.0, 3.0, 3.0], [0, 1, 0, 0, 1],
            TargetKind.binary(), splits=(1.5, 2.5))
        once = refine_prebins(t)
        twice = refine_prebins(once)
        assert np.array_equal(once.count, twice.count)

    def test_pure_column_is_infeasible(self):
        t = build_prebin_table([1.0, 2.0, 3.0], [1, 1, 1],
                               TargetKind.binary(), splits=(1.5, 2.5))
        with pytest.raises(InfeasibleError):
            refine_prebins(t)

    def test_wrong_target_kind_rejected(self):
        t = build_prebin_table([1.0, 2.0], [1.0, 2.0],
                               TargetKind.continuous(), splits=(1.5,))
        with pytest.raises(ValueError):
            refine_prebins(t)

    def test_multiclass_every_class_everywhere(self):
        rng = np.random.default_rng(11)
        x = rng.uniform(0, 10, 300)
        y = rng.integers(0, 3, 300)
        y[x < 2.0] = 0   # leftmost region owned by class 0
        t = build_prebin_table(x, y, TargetKind.multiclass(3),
                               splits=tuple(np.linspace(1, 9, 9)))
        r = refine_prebins_multiclass(t)
        for i in range(r.n):
            ev = r.class_events[:, i]
            assert ev.min() >= 1 and ev.max() < r.count[i]

    def test_multiclass_absent_class_is_infeasible(self):
        t = build_prebin_table([1.0, 2.0, 3.0, 4.0], [0, 1, 0, 1],
                               TargetKind.multiclass(3), splits=(2.5,))
        with pytest.raises(InfeasibleError):
            refine_prebins_multiclass(t)

    def test_categorical_refine_concatenates_groups(self):
        # rates b=0, a=0.5, c=0.5: the event-free b merges into a
        t, _ = prebin_categorical(["a", "a", "b", "c", "c"], [0, 1, 0, 0, 1],
                                  TargetKind.binary())
        assert t.groups == (("b",), ("a",), ("c",))
        r = refine_prebins(t)
        assert r.groups == (("b", "a"), ("c",))
