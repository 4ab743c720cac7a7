"""Column preprocessing: record routing, pre-binning, refinement.

The optimizer never sees raw records.  ``table_rows`` routes each one to its
row of the binning table (the bins, then Others, Special, Missing) for the
fit's clean / special / missing streams and numeric pre-bin counts, and for
transform.  The clean stream is discretized into ordered "pre-bins"
(equal-frequency for numeric columns; for categorical ones one per category,
coded once, with Others as one extra row), counted by one bincount block
(``_tabulate``).  The solver then merges contiguous runs of pre-bins.

Every merge of adjacent pre-bins is one fold, ``merge_runs``.  The pre-bin
floor, empty pre-bins and refinement pick its runs in one greedy pass
(``_runs``); the fit folds the refined table over the solved bins.

Numeric intervals are half-open: with splits s0 < s1 < ... the pre-bins are
(-inf, s0), [s0, s1), ..., [s_last, inf); a value equal to a split falls in the
bin to the split's right, and an infinite value in an end bin.
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
    position among them.  Values equal under ``==`` that print differently
    are distinct, as categories are keyed by their string form: ``1``,
    ``1.0`` and ``True`` are three values, and so are ``0.0`` and ``-0.0``.
    """
    keys = values
    distinct = list(dict.fromkeys(keys))
    if not all(v is None or isinstance(v, str) for v in distinct):
        keys = list(zip(values, map(str, values)))
        distinct = list(dict.fromkeys(keys))
    position = {v: k for k, v in enumerate(distinct)}
    codes = np.fromiter(map(position.__getitem__, keys), dtype=np.intp,
                        count=len(values))
    return (distinct if keys is values else [v for v, _ in distinct]), codes


def table_rows(values, special_values=(), *, splits=None, groups=None,
               others: bool = False) -> np.ndarray:
    """Each record's row in the binning table: the bins, then Others (when
    ``others``), then Special, then Missing.

    None and NaN are missing; any other record equal (``==``) to a special
    value is special, so ``0`` and ``-0`` are one value and the label ``3`` is
    not ``"3"``.  A numeric column passes ascending ``splits`` (a value equal
    to a split goes right); a categorical model passes its ``groups`` of
    labels, matched as strings (``prebin_categorical`` keys categories so
    too), and a label in none goes to Others or, with no Others row, raises
    InputError.  With neither, the column keeps its dtype and is
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

    Returns the ascending tuple of interior split points.  The quantile
    candidates come from the finite values, so an infinite value falls in an
    end pre-bin.  Pre-bins under the candidates that are empty (massive
    ties) or undersized (< prebin_min_frac of records) are merged rightward
    (the last one leftward) until every pre-bin is large enough.  At most
    ``prebin_count`` pre-bins result, each holding at least one record.
    """
    x = np.asarray(values, dtype=float)
    if x.size == 0:
        raise DegenerateColumnError("no clean records to pre-bin")
    if x.min() == x.max():
        raise DegenerateColumnError(
            "column has a single distinct value {!r}".format(x[0]))
    if prebin_count <= 1:
        return ()

    finite = x[np.isfinite(x)]
    if not finite.size:
        return ()
    splits = np.unique(
        np.quantile(finite, np.linspace(0.0, 1.0, prebin_count + 1)[1:-1]))
    min_count = max(1, math.ceil(prebin_min_frac * x.size))
    counts = np.bincount(table_rows(x, splits=splits),
                         minlength=splits.size + 1)
    starts = _count_runs(counts, min_count)
    return tuple(splits[np.asarray(starts[1:], dtype=np.intp) - 1].tolist())


def prebin_categorical(values, target, target_kind: TargetKind,
                       cutoff: float = 0.0):
    """One pre-bin per category of a clean column, in ordinal order; rare
    categories pooled.

    Categories are keyed by their string form (the int ``1`` is ``"1"``).
    Those whose frequency share is strictly below ``cutoff`` are pooled; the
    rest are sorted ascending by event rate (binary) or by target mean
    (continuous and multi-class, the latter on the numeric class codes),
    ties broken by label.  Returns (table, pool): the kept categories'
    pre-bin table, and a one-row table of the pooled records whose group
    lists their labels (sorted), or None.
    """
    if len(values) == 0:
        raise DegenerateColumnError("no clean records to pre-bin")
    objects, codes = label_codes(values)
    position = {}                       # labels of one string form merge
    codes = np.array([position.setdefault(str(v), len(position))
                      for v in objects], dtype=np.intp)[codes]
    labels = list(position)
    if len(labels) <= 1:
        raise DegenerateColumnError(
            "column has a single distinct category {!r}".format(objects[0]))
    y = np.asarray(target, dtype=float)
    counts = np.bincount(codes).tolist()
    # np.bincount adds the weights in record order, as a running sum would
    sums = np.bincount(codes, weights=y).tolist()
    pooled = [n < cutoff * len(values) for n in counts]
    kept = [k for k, p in enumerate(pooled) if not p]
    if not kept:
        raise DegenerateColumnError("every category fell below the others cutoff")
    kept.sort(key=lambda k: (sums[k] / counts[k], labels[k]))
    n = len(kept)
    row = np.full(len(labels), n, dtype=np.intp)    # Others is row n
    row[kept] = np.arange(n)
    arrays = _tabulate(row[codes], y, target_kind, n + 1)
    others = tuple(sorted(lab for lab, p in zip(labels, pooled) if p))
    groups = (*((labels[k],) for k in kept), others)
    table, pool = (PrebinTable(target=target_kind, groups=groups[part],
                               **{f: a[..., part] for f, a in arrays.items()})
                   for part in (slice(n), slice(n, None)))
    return table, pool if others else None


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


def _tabulate(rows, y, target_kind: TargetKind, n: int) -> dict:
    """The count arrays of a ``PrebinTable`` of ``n`` rows, for records
    routed to ``rows`` with float targets ``y``."""
    count = np.bincount(rows, minlength=n).astype(np.int64)
    if target_kind.is_binary:
        event = np.bincount(rows, weights=y, minlength=n).astype(np.int64)
        return dict(count=count, nonevent=count - event, event=event)
    if target_kind.is_continuous:
        return dict(count=count,
                    total=np.bincount(rows, weights=y, minlength=n))
    return dict(count=count, class_events=np.stack([
        np.bincount(rows[y == c], minlength=n).astype(np.int64)
        for c in range(target_kind.n_classes)]))


def build_prebin_table(values, target, target_kind: TargetKind, *,
                       splits=None) -> PrebinTable:
    """Tabulate per-pre-bin counts from the clean records of a numeric
    column under ``splits`` (None or empty: one pre-bin holds all records).
    Any split with no records on its left is dropped so every pre-bin is
    nonempty.  Categorical tables come from ``prebin_categorical``.
    """
    s = np.sort(np.asarray(() if splits is None else splits, dtype=float))
    table = PrebinTable(target=target_kind, splits=tuple(s.tolist()),
                        **_tabulate(table_rows(values, splits=s),
                                    np.asarray(target, dtype=float),
                                    target_kind, s.size + 1))
    # a run holds one nonempty pre-bin: its sums add zeros to that one's
    return merge_runs(table, _count_runs(table.count, 1)) if s.size else table


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
