"""The greedy run merge against the restart loop it replaced.

``preprocess`` merges adjacent pre-bins in one left-to-right pass
(``_runs``) and one fold (``merge_runs``).  The reference below is the
earlier code: a loop that merges the first offending pre-bin into its right
neighbour (the last one into its left) and rescans from pre-bin 0 after every
merge.  Both must give the same arrays, dtypes, splits and groups, and raise
the same errors, on seeded random columns and tables.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from binopt import (
    DegenerateColumnError, InfeasibleError, TargetKind, build_prebin_table,
    prebin_numeric, refine_prebins, refine_prebins_multiclass,
)
from binopt.preprocess import PrebinTable, merge_runs

ARRAYS = ("count", "nonevent", "event", "total", "class_events")


# --------------------------------------------------------------------------- #
# the restart loop
# --------------------------------------------------------------------------- #

def _merge_small(splits, counts, min_count):
    splits, counts = list(splits), counts.tolist()
    while splits:
        small = next((i for i, c in enumerate(counts) if c < min_count), None)
        if small is None:
            break
        drop = min(small, len(splits) - 1)
        del splits[drop]
        counts[drop] += counts.pop(drop + 1)
    return np.asarray(splits, dtype=float)


def _merge_adjacent(table, i):
    def fold(arr, axis=-1):
        if arr is None:
            return None
        out = np.delete(arr, i + 1, axis=axis)
        sl = [slice(None)] * out.ndim
        sl[axis] = i
        take = [slice(None)] * arr.ndim
        take[axis] = i + 1
        out = out.copy()
        out[tuple(sl)] = out[tuple(sl)] + arr[tuple(take)]
        return out

    splits, groups = table.splits, table.groups
    if splits:
        splits = splits[:i] + splits[i + 1:]
    if groups:
        groups = groups[:i] + (groups[i] + groups[i + 1],) + groups[i + 2:]
    return replace(table, **{f: fold(getattr(table, f)) for f in ARRAYS},
                   splits=splits, groups=groups)


def _refine(table, violates):
    while True:
        n = table.n
        bad = next((i for i in range(n) if violates(table, i)), None)
        if bad is None:
            return table
        table = _merge_adjacent(table, bad if bad < n - 1 else n - 2)


def _ref_prebin_numeric(x, prebin_count, prebin_min_frac):
    x = np.asarray(x, dtype=float)
    if x.size == 0:
        raise DegenerateColumnError("no clean records to pre-bin")
    distinct = np.unique(x)
    if distinct.size <= 1:
        raise DegenerateColumnError(
            "column has a single distinct value {!r}".format(
                distinct[0] if distinct.size else None))
    if prebin_count <= 1:
        return ()
    qs = np.quantile(x, np.linspace(0.0, 1.0, prebin_count + 1)[1:-1])
    splits = np.unique(qs)
    splits = splits[(splits > distinct[0]) & (splits <= distinct[-1])]
    min_count = max(1, math.ceil(prebin_min_frac * x.size))
    counts = np.bincount(np.searchsorted(splits, x, side="right"),
                         minlength=splits.size + 1)
    return tuple(_merge_small(splits, counts, min_count).tolist())


def _ref_build_numeric(x, y, kind, splits):
    s = np.sort(np.asarray(splits, dtype=float))
    x = np.asarray(x, dtype=float)
    counts = np.bincount(np.searchsorted(s, x, side="right"),
                         minlength=s.size + 1)
    # no pre-bin under the kept splits is empty, so nothing merges again
    return build_prebin_table(x, y, kind,
                              splits=tuple(_merge_small(s, counts, 1).tolist()))


def _ref_refine(table):
    if not table.target.is_binary:
        raise ValueError("refine_prebins expects a binary-target table")
    if int(table.event.sum()) == 0 or int(table.nonevent.sum()) == 0:
        raise InfeasibleError("column has zero events or zero non-events")
    return _refine(table, lambda t, i: t.event[i] == 0 or t.nonevent[i] == 0)


def _ref_refine_multiclass(table):
    if not table.target.is_multiclass:
        raise ValueError("refine_prebins_multiclass expects a multi-class table")
    totals = table.class_events.sum(axis=1)
    for c, tot in enumerate(totals):
        if tot == 0:
            raise InfeasibleError("class {} is absent from the data".format(c))
        if tot == table.n_records:
            raise InfeasibleError("class {} owns every record".format(c))

    def violates(t, i):
        ev = t.class_events[:, i]
        return bool(np.any(ev == 0) or np.any(ev == t.count[i]))

    return _refine(table, violates)


# --------------------------------------------------------------------------- #
# comparisons
# --------------------------------------------------------------------------- #

def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except Exception as exc:                  # compared by type and message
        return type(exc), str(exc)


def _assert_same(new, old):
    if not isinstance(old, PrebinTable):
        assert new == old
        return
    assert isinstance(new, PrebinTable)
    assert new.target == old.target
    for f in ARRAYS:
        a, b = getattr(new, f), getattr(old, f)
        assert (a is None) == (b is None), f
        if a is not None:
            assert a.dtype == b.dtype and a.shape == b.shape, f
            assert a.tobytes() == b.tobytes(), f
    assert new.splits == old.splits
    assert [type(s) for s in new.splits] == [type(s) for s in old.splits]
    assert new.groups == old.groups


def _column(rng, size):
    """A numeric column with ties, most of it on a few levels."""
    x = np.round(rng.lognormal(0.0, 1.0, size), int(rng.integers(0, 3)))
    if size and rng.random() < 0.5:
        x[rng.random(size) < 0.6] = float(rng.choice(x))
    return x


def _target(rng, kind, size):
    if kind.is_binary:
        return (rng.random(size) < rng.uniform(0.0, 0.3)).astype(np.int64)
    if kind.is_continuous:
        return rng.normal(0.0, 1e3, size) * rng.random(size)
    return rng.integers(0, kind.n_classes, size)


KINDS = (TargetKind.binary(), TargetKind.continuous(), TargetKind.multiclass(3))


# --------------------------------------------------------------------------- #
# tests
# --------------------------------------------------------------------------- #

@pytest.mark.parametrize("seed", range(4))
def test_prebin_floor_matches_the_restart_loop(seed):
    rng = np.random.default_rng(seed)
    for _ in range(100):
        x = _column(rng, int(rng.integers(0, 300)))
        count = int(rng.integers(1, 40))
        frac = float(rng.choice([0.0, rng.uniform(0.0, 0.5)]))
        _assert_same(_outcome(prebin_numeric, x, count, frac),
                     _outcome(_ref_prebin_numeric, x, count, frac))


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.kind)
def test_empty_prebins_match_the_restart_loop(kind):
    rng = np.random.default_rng(len(kind.kind))
    for _ in range(150):
        size = int(rng.integers(0, 200))
        x, y = _column(rng, size), _target(rng, kind, size)
        hi = float(x.max()) if size else 1.0
        cuts = rng.uniform(-0.5, 1.5 * hi, int(rng.integers(0, 25)))
        if cuts.size and rng.random() < 0.3:
            cuts = np.concatenate([cuts, cuts[:2]])    # repeated splits
        new = _outcome(build_prebin_table, x, y, kind, splits=tuple(cuts))
        _assert_same(new, _outcome(_ref_build_numeric, x, y, kind, cuts))
        if isinstance(new, PrebinTable):
            assert new.count.min() >= 1 or size == 0


def _random_table(rng, kind, n, categorical):
    zeros = rng.uniform(0.0, 0.8)
    if kind.is_binary:
        ev = rng.integers(0, 6, n) * (rng.random(n) > zeros)
        ne = rng.integers(0, 6, n) * (rng.random(n) > zeros)
        count = ev + ne
        arrays = dict(event=ev, nonevent=ne)
    else:
        ce = rng.integers(0, 5, (kind.n_classes, n)) * \
            (rng.random((kind.n_classes, n)) > zeros)
        if rng.random() < 0.2:
            ce[int(rng.integers(kind.n_classes))] = 0     # an absent class
        count = ce.sum(axis=0)
        arrays = dict(class_events=ce)
    if categorical:
        labels = ["c{}".format(i) for i in range(n)]
        layout = dict(groups=tuple((lab,) for lab in labels))
    else:
        layout = dict(splits=tuple(np.sort(rng.uniform(0, 100, n - 1)).tolist()))
    return PrebinTable(target=kind, count=count.astype(np.int64),
                       **{k: v.astype(np.int64) for k, v in arrays.items()},
                       **layout)


@pytest.mark.parametrize("categorical", [False, True],
                         ids=["splits", "groups"])
def test_binary_refinement_matches_the_restart_loop(categorical):
    rng = np.random.default_rng(5 + categorical)
    raised = 0
    for _ in range(400):
        table = _random_table(rng, TargetKind.binary(),
                              int(rng.integers(1, 30)), categorical)
        new = _outcome(refine_prebins, table)
        _assert_same(new, _outcome(_ref_refine, table))
        raised += not isinstance(new, PrebinTable)
    assert raised > 0                         # columns without events occur


@pytest.mark.parametrize("categorical", [False, True],
                         ids=["splits", "groups"])
def test_multiclass_refinement_matches_the_restart_loop(categorical):
    rng = np.random.default_rng(7 + categorical)
    raised = 0
    for _ in range(400):
        kind = TargetKind.multiclass(int(rng.integers(3, 6)))
        table = _random_table(rng, kind, int(rng.integers(1, 30)), categorical)
        new = _outcome(refine_prebins_multiclass, table)
        _assert_same(new, _outcome(_ref_refine_multiclass, table))
        raised += not isinstance(new, PrebinTable)
    assert raised > 0                         # absent classes occur


def test_refinement_of_built_tables_matches_the_restart_loop():
    rng = np.random.default_rng(11)
    for kind, refine, ref in ((TargetKind.binary(), refine_prebins, _ref_refine),
                              (TargetKind.multiclass(3),
                               refine_prebins_multiclass,
                               _ref_refine_multiclass)):
        for _ in range(100):
            size = int(rng.integers(2, 300))
            x, y = _column(rng, size), _target(rng, kind, size)
            table = build_prebin_table(
                x, y, kind, splits=tuple(rng.uniform(0, x.max(), 15)))
            _assert_same(_outcome(refine, table), _outcome(ref, table))


def test_wrong_kinds_raise_alike():
    binary = _random_table(np.random.default_rng(0), TargetKind.binary(), 4,
                           False)
    multi = _random_table(np.random.default_rng(0), TargetKind.multiclass(3),
                          4, False)
    _assert_same(_outcome(refine_prebins, multi), _outcome(_ref_refine, multi))
    _assert_same(_outcome(refine_prebins_multiclass, binary),
                 _outcome(_ref_refine_multiclass, binary))


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.kind)
def test_merge_runs_sums_each_interval_as_np_sum(kind):
    """The fit's per-bin counts: one np.sum over each solved interval."""
    rng = np.random.default_rng(3)
    for _ in range(100):
        size = int(rng.integers(20, 400))
        x, y = _column(rng, size), _target(rng, kind, size)
        table = build_prebin_table(x, y, kind,
                                   splits=tuple(rng.uniform(0, x.max(), 20)))
        cuts = np.flatnonzero(rng.random(table.n - 1) < 0.4) + 1
        starts = [0, *cuts.tolist()]
        intervals = list(zip(starts, [*cuts.tolist(), table.n]))
        merged = merge_runs(table, starts)
        for f in ARRAYS:
            arr = getattr(table, f)
            if arr is None:
                assert getattr(merged, f) is None
                continue
            expect = np.stack([np.sum(arr[..., s:e], axis=-1)
                               for s, e in intervals], axis=-1)
            got = getattr(merged, f)
            assert got.dtype == arr.dtype and got.tobytes() == expect.tobytes()
        assert merged.splits == tuple(table.splits[s - 1] for s in starts[1:])
