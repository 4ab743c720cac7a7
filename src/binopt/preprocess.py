"""Column preprocessing: record routing, pre-binning, refinement.

The optimizer never sees raw records.  ``table_rows`` routes each one to its
row of the binning table (the bins, then Others, Special, Missing) for the
fit's clean / special / missing streams, Others pool and pre-bin counts, and
for transform.  The clean stream is discretized into a modest number of
ordered "pre-bins" (equal-frequency for numeric columns, one per category for
categorical ones), and per-pre-bin counts are tabulated.  The solver then
merges contiguous runs of pre-bins.

Every merge of adjacent pre-bins is one fold, ``merge_runs``.  The pre-bin
floor, empty pre-bins and refinement pick its runs in one greedy pass
(``_runs``); the fit folds the refined table over the solved bins.

Numeric intervals are half-open: with splits s0 < s1 < ... the pre-bins are
(-inf, s0), [s0, s1), ..., [s_last, inf); a value equal to a split falls in the
bin to the split's right.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace

import numpy as np

from .core import (
    TargetKind, DegenerateColumnError, InfeasibleError, InputError,
)


def _column(values) -> np.ndarray:
    """``values`` as a float array when numeric, else as an object array."""
    x = np.asarray(values)
    if x.dtype.kind in "fiub":
        return x.astype(float, copy=False)
    return x if x.dtype == object else np.asarray(values, dtype=object)


def label_codes(values):
    """The distinct values in order of first appearance, and each record's
    position among them."""
    labels = list(dict.fromkeys(values))
    position = {v: k for k, v in enumerate(labels)}
    codes = np.fromiter(map(position.__getitem__, values), dtype=np.intp,
                        count=len(values))
    return labels, codes


def table_rows(values, special_values=(), *, splits=None, groups=None,
               others: bool = False) -> np.ndarray:
    """Each record's row in the binning table: the bins, then Others (when
    ``others``), then Special, then Missing.

    None and NaN are missing; any other record equal (``==``) to a special
    value is special, so ``0`` and ``-0`` are one value and the label ``3`` is
    not ``"3"``.  A numeric column passes ascending ``splits`` (a value equal
    to a split goes right); a categorical one passes ``groups`` of labels,
    matched as strings, and a label in none goes to Others or, with no Others
    row, raises InputError.  With neither, the column keeps its dtype and is
    one bin: rows 0, 1 and 2 are clean, special and missing.
    """
    if groups is not None:
        labels, codes = label_codes(values)         # route each label once
        x = np.fromiter(labels, dtype=object, count=len(labels))
        n = len(groups)
        # the first group that lists a label wins; -1 marks a label in none
        bin_of = {str(lab): k for k in reversed(range(n)) for lab in groups[k]}
        rows = np.array([bin_of.get(str(v), n if others else -1)
                         for v in labels], dtype=np.intp)
    elif splits is None:
        x = _column(values)
        n, rows = 1, np.zeros(x.size, dtype=np.intp)
    else:
        x = np.asarray(values, dtype=float)
        n = len(splits) + 1
        rows = np.searchsorted(np.asarray(splits, dtype=float), x,
                               side="right")
    if x.dtype == object:
        missing = np.equal(x, None) | np.not_equal(x, x)   # None or NaN
        special = np.zeros(x.size, dtype=bool)
        for s in special_values:
            special |= np.equal(x, s)
    else:
        missing = np.isnan(x)
        special = np.isin(x, np.asarray(special_values, dtype=float))
    rows[special] = n + others
    rows[missing] = n + others + 1          # missing beats special
    if groups is None:
        return rows
    if rows.min(initial=0) < 0:
        raise InputError("unknown category {!r} and the model has no others "
                         "pool".format(str(labels[rows.argmin()])))
    return rows[codes]


def split_missing_special(values, target, special_values=()):
    """Route records into clean / special / missing streams, the rows of a
    one-bin table (``table_rows``).  ``values`` may be numeric or object
    (categorical); ``target`` is numeric.  Returns ((x_clean, y_clean),
    (x_special, y_special), (x_missing, y_missing)) as arrays, with
    positional pairing preserved.
    """
    x, y = _column(values), np.asarray(target)
    rows = table_rows(x, special_values)
    streams = [rows == k for k in range(3)]     # clean, special, missing
    return tuple((x[r], y[r]) for r in streams)


# --------------------------------------------------------------------------- #
# pre-binning
# --------------------------------------------------------------------------- #

def prebin_numeric(values, prebin_count: int = 20, prebin_min_frac: float = 0.05):
    """Equal-frequency pre-binning of a clean numeric column.

    Returns the ascending tuple of interior split points.  Pre-bins under
    the quantile candidates that are empty (massive ties) or undersized
    (< prebin_min_frac of records) are merged rightward (the last one
    leftward) until every pre-bin is large enough.  At most ``prebin_count``
    pre-bins result, each holding at least one record.
    """
    x = np.asarray(values, dtype=float)
    if x.size == 0:
        raise DegenerateColumnError("no clean records to pre-bin")
    if x.min() == x.max():
        raise DegenerateColumnError(
            "column has a single distinct value {!r}".format(x[0]))
    if prebin_count <= 1:
        return ()

    splits = np.unique(
        np.quantile(x, np.linspace(0.0, 1.0, prebin_count + 1)[1:-1]))
    min_count = max(1, math.ceil(prebin_min_frac * x.size))
    counts = np.bincount(table_rows(x, splits=splits),
                         minlength=splits.size + 1)
    starts = _count_runs(counts, min_count)
    return tuple(splits[np.asarray(starts[1:], dtype=np.intp) - 1].tolist())


def prebin_categorical(values, target, cutoff: float = 0.0):
    """Order categories for ordinal treatment; pool rare ones.

    Categories whose frequency share is strictly below ``cutoff`` go to the
    "others" pool.  The rest are sorted ascending by event rate (binary) or by
    target mean (continuous and multi-class, the latter on the numeric class
    codes), ties broken by label.  Returns (ordered_categories, others).
    """
    n_total = len(values)
    if n_total == 0:
        raise DegenerateColumnError("no clean records to pre-bin")
    labels, codes = label_codes(values)
    if len(labels) <= 1:
        raise DegenerateColumnError(
            "column has a single distinct category {!r}".format(labels[0]))
    counts = np.bincount(codes).tolist()
    # np.bincount adds the weights in record order, as a running sum would
    sums = np.bincount(codes, weights=np.asarray(target, dtype=float)).tolist()
    others = sorted(str(c) for c, n in zip(labels, counts)
                    if n < cutoff * n_total)
    others_set = set(others)
    kept = [k for k, c in enumerate(labels) if str(c) not in others_set]
    if not kept:
        raise DegenerateColumnError("every category fell below the others cutoff")
    kept.sort(key=lambda k: (sums[k] / counts[k], str(labels[k])))
    return tuple(str(labels[k]) for k in kept), tuple(others)


# --------------------------------------------------------------------------- #
# pre-bin tables
# --------------------------------------------------------------------------- #

_COUNTS = ("count", "nonevent", "event", "total", "class_events")


@dataclass(frozen=True)
class PrebinTable:
    """Per-pre-bin counts for one column, ordered left to right.

    ``count`` always holds total records.  Binary targets fill ``nonevent`` /
    ``event``; continuous targets fill ``total`` (per-pre-bin target sums);
    multi-class targets fill ``class_events`` with shape (n_classes, n).
    Numeric columns carry ``splits`` (len n-1); categorical ones carry
    ``groups`` (one tuple of category labels per pre-bin).
    """

    target: TargetKind
    count: np.ndarray
    nonevent: np.ndarray | None = None
    event: np.ndarray | None = None
    total: np.ndarray | None = None
    class_events: np.ndarray | None = None
    splits: tuple = ()
    groups: tuple = ()

    def __post_init__(self):
        for arr in (getattr(self, f) for f in _COUNTS):
            if arr is not None:
                arr.setflags(write=False)

    @property
    def n(self) -> int:
        return int(self.count.size)

    @property
    def n_records(self) -> int:
        return int(self.count.sum())

    def means(self) -> np.ndarray:
        return np.asarray(self.total, dtype=float) / self.count


def build_prebin_table(values, target, target_kind: TargetKind, *,
                       splits=None, groups=None) -> PrebinTable:
    """Tabulate per-pre-bin counts from clean records.

    Numeric path: pass ``splits`` (possibly empty: one pre-bin holds all
    records); any split with no records on its left is dropped so every
    pre-bin is nonempty.  Categorical path: pass ``groups`` (ordered tuples of
    labels); a value in no group raises InputError.  Both route through
    ``table_rows``.
    """
    y = np.asarray(target, dtype=float)
    if groups is not None:
        n, splits, groups = len(groups), (), tuple(tuple(g) for g in groups)
        idx = table_rows(values, groups=groups)
    else:
        s = np.sort(np.asarray(() if splits is None else splits, dtype=float))
        n, splits, groups = s.size + 1, tuple(s.tolist()), ()
        idx = table_rows(values, splits=s)

    count = np.bincount(idx, minlength=n).astype(np.int64)

    nonevent = event = total = class_events = None
    if target_kind.is_binary:
        event = np.bincount(idx, weights=y, minlength=n).astype(np.int64)
        nonevent = count - event
    elif target_kind.is_continuous:
        total = np.bincount(idx, weights=y, minlength=n).astype(float)
    else:
        class_events = np.stack([
            np.bincount(idx[y == c], minlength=n).astype(np.int64)
            for c in range(target_kind.n_classes)
        ])
    table = PrebinTable(target=target_kind, count=count, nonevent=nonevent,
                        event=event, total=total, class_events=class_events,
                        splits=splits, groups=groups)
    # a run holds one nonempty pre-bin: its sums add zeros to that one's
    return merge_runs(table, _count_runs(count, 1)) if splits else table


# --------------------------------------------------------------------------- #
# run merging and refinement
# --------------------------------------------------------------------------- #

def _runs(n: int, ok) -> list:
    """Run starts of one left-to-right pass over ``n`` pre-bins: the run
    from ``start`` closes at the first ``i`` where ``ok(start, i)`` holds, and
    a tail that never does joins the run before it (``[0]`` if none closes).
    """
    starts, start = [], 0
    for i in range(n):
        if ok(start, i):
            starts.append(start)
            start = i + 1
    return starts or [0]


def _count_runs(counts, min_count: int) -> list:
    """Run starts that give every run at least ``min_count`` records."""
    p = [0, *np.cumsum(counts).tolist()]      # pre-bins s..i: p[i + 1] - p[s]
    return _runs(len(p) - 1, lambda s, i: p[i + 1] - p[s] >= min_count)


def merge_runs(table: PrebinTable, starts) -> PrebinTable:
    """Fold ``table`` over the runs of pre-bins that begin at ``starts``.

    ``starts`` ascends from 0.  Each run's counts are its pre-bins' sums
    (numpy's pairwise sum, as ``np.sum`` adds), the splits between runs are
    kept and each run's groups are concatenated.  With one run per pre-bin
    the table itself is returned.
    """
    if len(starts) == table.n:
        return table
    bounds = list(zip(starts, [*starts[1:], table.n]))

    def fold(arr):
        return None if arr is None else np.stack(
            [arr[..., s:e].sum(axis=-1, dtype=arr.dtype) for s, e in bounds],
            axis=-1)

    return replace(
        table, **{f: fold(getattr(table, f)) for f in _COUNTS},
        splits=tuple(table.splits[s - 1] for s in starts[1:])
        if table.splits else (),
        groups=tuple(tuple(lab for g in table.groups[s:e] for lab in g)
                     for s, e in bounds) if table.groups else ())


def _merge_unmixed(table: PrebinTable, classes) -> PrebinTable:
    """Merge runs of pre-bins until each holds, for every class (row of
    ``classes``), a record in it and one outside it.  A run that meets this
    keeps meeting it as it grows, so the greedy pass merges the first pre-bin
    that fails into its right neighbour (the last into its left) until none
    fails."""
    rows = np.concatenate([classes, table.count - classes])
    p = [[0] * len(rows), *np.cumsum(rows, axis=1).T.tolist()]
    return merge_runs(table, _runs(
        table.n, lambda s, i: all(map(operator.lt, p[s], p[i + 1]))))


def refine_prebins(table: PrebinTable) -> PrebinTable:
    """Ensure every pre-bin has at least one event and one non-event.

    Binary targets only.  Raises InfeasibleError when the whole column lacks
    events or non-events (no amount of merging can help).  Idempotent.
    """
    if not table.target.is_binary:
        raise ValueError("refine_prebins expects a binary-target table")
    if int(table.event.sum()) == 0 or int(table.nonevent.sum()) == 0:
        raise InfeasibleError("column has zero events or zero non-events")
    return _merge_unmixed(table, table.event[None])


def refine_prebins_multiclass(table: PrebinTable) -> PrebinTable:
    """Joint one-vs-rest refinement: a merge for one class merges for all.

    Every pre-bin ends up with >= 1 record of each class and >= 1 record of
    its complement.  Raises InfeasibleError when a class is absent from the
    data or some class owns the entire column.
    """
    if not table.target.is_multiclass:
        raise ValueError("refine_prebins_multiclass expects a multi-class table")
    totals = table.class_events.sum(axis=1)
    n_rec = table.n_records
    for c, tot in enumerate(totals):
        if tot == 0:
            raise InfeasibleError("class {} is absent from the data".format(c))
        if tot == n_rec:
            raise InfeasibleError("class {} owns every record".format(c))
    return _merge_unmixed(table, table.class_events)
