"""Categorical pre-binning against the three-pass path it replaced.

``preprocess.prebin_categorical`` codes the clean column once and returns the
pre-bin table of the kept categories and a one-row table of the Others pool.
The reference below is the earlier code: ``prebin_categorical`` ordering the
categories, the records of the Others pool split off through ``table_rows``,
the kept records tabulated by ``build_prebin_table(groups=...)`` and the
pool's stats summed by ``cli._pool_stats`` (``_ref_pool_stats``, which also
checks the Special and Missing stats that ``cli._pool_stats`` now tabulates
as one table row).  Both must give the same arrays, dtypes, groups and stats
bit for bit, and raise the same errors, on seeded random columns.
"""

import numpy as np
import pytest

from binopt import (
    BinningConfig, DegenerateColumnError, TargetKind, prebin_categorical,
)
from binopt import cli, preprocess
from binopt.preprocess import PrebinTable, label_codes, table_rows

ARRAYS = ("count", "nonevent", "event", "total", "class_events")
KINDS = (TargetKind.binary(), TargetKind.continuous(), TargetKind.multiclass(4))


# --------------------------------------------------------------------------- #
# the three-pass path
# --------------------------------------------------------------------------- #

def _ref_order(values, target, cutoff):
    n_total = len(values)
    if n_total == 0:
        raise DegenerateColumnError("no clean records to pre-bin")
    labels, codes = label_codes(values)
    if len(labels) <= 1:
        raise DegenerateColumnError(
            "column has a single distinct category {!r}".format(labels[0]))
    counts = np.bincount(codes).tolist()
    sums = np.bincount(codes, weights=np.asarray(target, dtype=float)).tolist()
    others = sorted(str(c) for c, n in zip(labels, counts)
                    if n < cutoff * n_total)
    kept = [k for k, c in enumerate(labels) if str(c) not in set(others)]
    if not kept:
        raise DegenerateColumnError("every category fell below the others cutoff")
    kept.sort(key=lambda k: (sums[k] / counts[k], str(labels[k])))
    return tuple(str(labels[k]) for k in kept), tuple(others)


def _ref_table(values, target, kind, groups):
    y = np.asarray(target, dtype=float)
    n = len(groups)
    idx = table_rows(values, groups=groups)
    count = np.bincount(idx, minlength=n).astype(np.int64)
    arrays = dict(count=count)
    if kind.is_binary:
        event = np.bincount(idx, weights=y, minlength=n).astype(np.int64)
        arrays.update(event=event, nonevent=count - event)
    elif kind.is_continuous:
        arrays["total"] = np.bincount(idx, weights=y, minlength=n).astype(float)
    else:
        arrays["class_events"] = np.stack([
            np.bincount(idx[y == c], minlength=n).astype(np.int64)
            for c in range(kind.n_classes)])
    return PrebinTable(target=kind, groups=groups, **arrays)


def _ref_pool_stats(ys, kind, ne_total, e_total):
    if kind.is_binary:
        target = int(np.sum(ys))
    elif kind.is_continuous:
        target = 0                      # a left-to-right sum
        for v in ys.tolist():
            target += v
    else:
        target = np.bincount(ys, minlength=kind.n_classes).tolist()
    return cli._bin_stats(kind, len(ys), target, ne_total, e_total)


def _reference(values, target, kind, cutoff):
    """(table, others, stats of the Others pool or None)."""
    cats, others = _ref_order(values, target, cutoff)
    groups = tuple((c,) for c in cats)
    x, y = np.asarray(values, dtype=object), np.asarray(target)
    stats = None
    if others:
        in_pool = table_rows(x, groups=groups, others=True) == len(groups)
        stats = _ref_pool_stats(y[in_pool], kind, 3.0, 5.0)
        x, y = x[~in_pool], y[~in_pool]
    return _ref_table(x, y, kind, groups), others, stats


# --------------------------------------------------------------------------- #
# comparisons
# --------------------------------------------------------------------------- #

def _new(values, target, kind, cutoff):
    table, pool = prebin_categorical(values, target, kind, cutoff)
    if pool is None:
        return table, (), None
    assert pool.n == 1 and len(pool.groups) == 1
    return table, pool.groups[0], cli._row_stats(pool, 3.0, 5.0)[0]


def _outcome(fn, *args):
    try:
        return fn(*args)
    except DegenerateColumnError as exc:
        return type(exc), str(exc)


def _assert_same(new, ref):
    if not isinstance(ref[0], PrebinTable):
        assert new == ref
        return
    (table, others, stats), (ref_table, ref_others, ref_stats) = new, ref
    for f in ARRAYS:
        a, b = getattr(table, f), getattr(ref_table, f)
        assert (a is None) == (b is None), f
        if a is not None:
            assert a.dtype == b.dtype and a.shape == b.shape, f
            assert a.tobytes() == b.tobytes(), f
    assert table.groups == ref_table.groups and table.splits == ()
    assert others == ref_others
    assert repr(stats) == repr(ref_stats)       # repr tells -0.0 from 0.0


def _column(rng, size):
    """Labels of skewed frequencies: strings, and a few ints that share no
    string form with them."""
    words = ["a", "bb", "c", "k07", "z", "é", "x y", "10", 7, 42]
    k = int(rng.integers(1, len(words) + 1))
    p = rng.random(k) ** 3 + 1e-3
    picks = rng.choice(k, size=size, p=p / p.sum())
    return np.array([words[i] for i in picks], dtype=object)


def _target(rng, kind, size):
    if kind.is_binary:
        return rng.integers(0, 2, size)
    if kind.is_continuous:
        # magnitudes far apart, so the order of addition shows in the bits
        return rng.standard_normal(size) * 10.0 ** rng.integers(-3, 9, size)
    return rng.integers(0, kind.n_classes, size)


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.kind)
@pytest.mark.parametrize("pooling", [False, True], ids=["cutoff0", "cutoff"])
def test_one_coding_matches_the_three_passes(kind, pooling):
    rng = np.random.default_rng(len(kind.kind) + 10 * pooling)
    pooled = raised = 0
    for _ in range(300):
        size = int(rng.integers(0, 300))
        values, target = _column(rng, size), _target(rng, kind, size)
        cutoff = float(rng.choice([0.01, 0.05, 0.2, 0.6])) if pooling else 0.0
        new = _outcome(_new, values, target, kind, cutoff)
        _assert_same(new, _outcome(_reference, values, target, kind, cutoff))
        pooled += isinstance(new[0], PrebinTable) and bool(new[1])
        raised += not isinstance(new[0], PrebinTable)
    assert raised > 0
    assert (pooled > 0) == pooling


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.kind)
def test_pool_stats_match_the_running_sums(kind):
    """Special and Missing, tabulated as one table row each."""
    rng = np.random.default_rng(17)
    for _ in range(200):
        ys = _target(rng, kind, int(rng.integers(0, 200)))
        ne_total, e_total = rng.integers(0, 300, 2).astype(float)
        assert repr(cli._pool_stats(ys, kind, ne_total, e_total)) == \
            repr(_ref_pool_stats(ys, kind, ne_total, e_total))


def test_a_categorical_fit_codes_its_column_once(monkeypatch):
    calls = []

    def counted(values):
        calls.append(len(values))
        return label_codes(values)

    monkeypatch.setattr(preprocess, "label_codes", counted)
    rng = np.random.default_rng(3)
    values = np.array(["a", "b", "c", "d", "rare"], dtype=object)[
        rng.choice(5, 500, p=[0.3, 0.3, 0.2, 0.19, 0.01])]
    values[:20] = None
    target = rng.integers(0, 2, 500)
    model = cli._fit(values, target, TargetKind.binary(),
                     BinningConfig(min_bins=1, cat_others_cutoff=0.05),
                     "x", "categorical")
    assert model.others == ("rare",)
    assert calls == [480]


@pytest.mark.parametrize("kind", KINDS[:2], ids=lambda k: k.kind)
def test_labels_with_one_string_form_are_one_category(kind):
    """The int ``1`` and the label ``"1"`` are one category, as
    ``table_rows`` and model files match labels by their string form."""
    rng = np.random.default_rng(9)
    words = np.array([1, "1", "a", "b", "c"], dtype=object)
    values = words[rng.integers(0, 5, 300)]
    target = _target(rng, kind, 300)
    cfg = BinningConfig(min_bins=1)
    mixed = cli._fit(values, target, kind, cfg, "x", "categorical")
    text = cli._fit(values.astype(str), target, kind, cfg, "x", "categorical")
    assert sorted(lab for g in mixed.groups for lab in g) == ["1", "a", "b", "c"]
    assert mixed.to_json() == text.to_json()
