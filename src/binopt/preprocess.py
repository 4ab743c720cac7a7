"""Column preprocessing: missing/special routing, pre-binning, refinement.

The optimizer never sees raw records.  A column is first split into clean /
special / missing streams; the clean stream is discretized into a modest number
of ordered "pre-bins" (equal-frequency for numeric columns, one per category
for categorical ones), and per-pre-bin counts are tabulated.  The solver then
merges contiguous runs of pre-bins.

Numeric intervals are half-open: with splits s0 < s1 < ... the pre-bins are
(-inf, s0), [s0, s1), ..., [s_last, inf); a value equal to a split falls in the
bin to the split's right.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import (
    TargetKind, DegenerateColumnError, InfeasibleError,
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


def split_missing_special(values, target, special_values=()):
    """Route records into clean / special / missing streams.

    ``values`` may be numeric or object (categorical); ``target`` is numeric.
    Returns ((x_clean, y_clean), (x_special, y_special), (x_missing, y_missing))
    as arrays, with positional pairing preserved.  A record is missing when
    its value is None or NaN; special when it equals a member of
    ``special_values``.
    """
    x = _column(values)
    y = np.asarray(target)
    if x.dtype == object:
        missing = np.equal(x, None) | np.not_equal(x, x)   # None or NaN
        special = np.zeros(x.size, dtype=bool)
        for s in special_values:
            special |= np.equal(x, s)
    else:
        missing = np.isnan(x)
        special = np.isin(x, np.asarray(special_values, dtype=float))
    special &= ~missing
    clean = ~(missing | special)
    return (x[clean], y[clean]), (x[special], y[special]), \
        (x[missing], y[missing])


# --------------------------------------------------------------------------- #
# pre-binning
# --------------------------------------------------------------------------- #

def prebin_numeric(values, prebin_count: int = 20, prebin_min_frac: float = 0.05):
    """Equal-frequency pre-binning of a clean numeric column.

    Returns the ascending tuple of interior split points.  Quantile candidates
    that would create an empty pre-bin (massive ties) are dropped, then
    undersized pre-bins (< prebin_min_frac of records) are merged rightward
    (the last one leftward) until every pre-bin is large enough.  At most
    ``prebin_count`` pre-bins result, each holding at least one record.
    """
    x = np.asarray(values, dtype=float)
    if x.size == 0:
        raise DegenerateColumnError("no clean records to pre-bin")
    distinct = np.unique(x)
    if distinct.size <= 1:
        raise DegenerateColumnError(
            "column has a single distinct value {!r}".format(
                distinct[0] if distinct.size else None)
        )
    if prebin_count <= 1:
        return ()

    qs = np.quantile(x, np.linspace(0.0, 1.0, prebin_count + 1)[1:-1])
    splits = np.unique(qs)
    # a split at or below the minimum (or above the maximum) makes an empty
    # outer pre-bin; quantile ties do this routinely
    splits = splits[(splits > distinct[0]) & (splits <= distinct[-1])]

    min_count = max(1, math.ceil(prebin_min_frac * x.size))
    counts = np.bincount(np.searchsorted(splits, x, side="right"),
                         minlength=splits.size + 1)
    return tuple(_merge_small(splits, counts, min_count).tolist())


def _merge_small(splits, counts, min_count: int) -> np.ndarray:
    """Drop splits until every pre-bin holds at least ``min_count`` records.

    ``counts`` are the per-pre-bin record counts under ``splits``.  The
    leftmost undersized pre-bin loses the split on its right (the last
    pre-bin the one on its left), which adds its count to its neighbour's,
    so no record is looked at again.
    """
    splits, counts = list(splits), counts.tolist()
    while splits:
        small = next((i for i, c in enumerate(counts) if c < min_count), None)
        if small is None:
            break
        drop = min(small, len(splits) - 1)
        del splits[drop]
        counts[drop] += counts.pop(drop + 1)
    return np.asarray(splits, dtype=float)


def prebin_categorical(values, target, cutoff: float = 0.0,
                       target_kind: TargetKind = TargetKind.binary()):
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
        for arr in (self.count, self.nonevent, self.event, self.total,
                    self.class_events):
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
    labels); every value must belong to one group.
    """
    y = np.asarray(target, dtype=float)
    if groups is not None:
        pos = {}
        for g, labels in enumerate(groups):
            for lab in labels:
                pos[str(lab)] = g
        distinct, codes = label_codes(values)
        idx = np.array([pos[str(v)] for v in distinct], dtype=np.intp)[codes]
        n = len(groups)
        kept_groups = tuple(tuple(g) for g in groups)
        kept_splits = ()
    else:
        s = np.asarray(sorted(splits or ()), dtype=float)
        x = np.asarray(values, dtype=float)
        idx = np.searchsorted(s, x, side="right")
        kept = _merge_small(s, np.bincount(idx, minlength=s.size + 1), 1)
        if kept.size < s.size:
            idx = np.searchsorted(kept, x, side="right")
        n = kept.size + 1
        kept_splits = tuple(kept.tolist())
        kept_groups = ()

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
    return PrebinTable(target=target_kind, count=count, nonevent=nonevent,
                       event=event, total=total, class_events=class_events,
                       splits=kept_splits, groups=kept_groups)


# --------------------------------------------------------------------------- #
# refinement (zero-count merging)
# --------------------------------------------------------------------------- #

def _merge_adjacent(table: PrebinTable, i: int) -> PrebinTable:
    """Merge pre-bins i and i+1 into one."""

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

    splits = table.splits
    groups = table.groups
    if splits:
        splits = splits[:i] + splits[i + 1:]
    if groups:
        groups = groups[:i] + (groups[i] + groups[i + 1],) + groups[i + 2:]
    return replace(
        table,
        count=fold(table.count),
        nonevent=fold(table.nonevent),
        event=fold(table.event),
        total=fold(table.total),
        class_events=fold(table.class_events),
        splits=splits,
        groups=groups,
    )


def _refine(table: PrebinTable, violates) -> PrebinTable:
    """Merge pre-bins flagged by ``violates`` rightward until a fixpoint.

    Repeated left-to-right passes: the first violating pre-bin merges with its
    right neighbor (the last one with its left neighbor), then the scan
    restarts.  Terminates because each merge reduces the pre-bin count.
    """
    while True:
        n = table.n
        bad = next((i for i in range(n) if violates(table, i)), None)
        if bad is None:
            return table
        table = _merge_adjacent(table, bad if bad < n - 1 else n - 2)


def refine_prebins(table: PrebinTable) -> PrebinTable:
    """Ensure every pre-bin has at least one event and one non-event.

    Binary targets only.  Raises InfeasibleError when the whole column lacks
    events or non-events (no amount of merging can help).  Idempotent.
    """
    if not table.target.is_binary:
        raise ValueError("refine_prebins expects a binary-target table")
    if int(table.event.sum()) == 0 or int(table.nonevent.sum()) == 0:
        raise InfeasibleError("column has zero events or zero non-events")
    return _refine(
        table, lambda t, i: t.event[i] == 0 or t.nonevent[i] == 0
    )


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

    def violates(t, i):
        ev = t.class_events[:, i]
        return bool(np.any(ev == 0) or np.any(ev == t.count[i]))

    return _refine(table, violates)
