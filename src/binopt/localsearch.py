"""Bit-vector local search over partitions, for instances too big to solve exactly.

A partition of n pre-bins is encoded as a 0/1 vector x of length n whose set
bits mark the pre-bins that close a bin (the last bit is always set).  Two
helper sequences are derived from x by linear recurrences:

- ``a[i]``: how many consecutive zeros end at position i (run length of open
  pre-bins), a[i] = (a[i-1] + 1) * (1 - x[i]);
- ``z[i]``: the width extension of the bin closing at i, z[i] =
  a[i-1] * (1 - x[i-1]) * x[i], so a set bit at i closes the bin spanning
  pre-bins (i - z[i]) .. i.

The search is steepest descent over single-bit flips and boundary shifts with
random restarts; it never claims optimality, and is deterministic for a fixed
seed when no wall-clock cap cuts it short.  A move replaces one or two bins of
the current partition X, and its neighbour gets the key the whole-partition
checks and objective give it, read from per-bin tables and from what is
computed once per step for X's prefixes: each trend's branch-and-bound gate
state (``solver._gate``) after every prefix, where X's first and last blocked
adjacent pair lie, and X's gain sums in path order.  The neighbour's
gates start from X's state before the move and step over its new bins, then
over the kept bins only until a state equals X's after the same bin, since the
rest is X's; its p-value check reads the pairs next to the new bins; and its
gain continues X's prefix sum.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .core import (
    BinningConfig, Solution, InvalidConfigError, MalformedEncodingError,
    validate_config, _is_count, FEASIBLE, INFEASIBLE, TIME_LIMIT,
)
from .aggregate import AggregateSet, PValuePairs
from .solver import (
    evaluate_partition, _gate, _in_units, _objective, _penalized, _resolve,
    _search_count, _tables, _violated_groups,
)


@dataclass(frozen=True)
class DiagonalEncoding:
    """A validated encoding with its derived run lengths and intervals."""

    x: tuple
    a: tuple
    z: tuple
    intervals: tuple


def decode(x) -> DiagonalEncoding:
    """Expand a bit vector into run lengths, widths and explicit intervals.

    Raises MalformedEncodingError unless every entry is 0/1 and the last
    entry is 1 (the final pre-bin always closes a bin).
    """
    x = tuple(int(v) for v in x)
    n = len(x)
    if n == 0:
        raise MalformedEncodingError("empty encoding")
    if any(v not in (0, 1) for v in x):
        raise MalformedEncodingError("encoding entries must be 0 or 1: {}".format(x))
    if x[-1] != 1:
        raise MalformedEncodingError("last encoding entry must be 1: {}".format(x))
    a = []
    z = []
    prev_a = 0
    prev_x = 0
    intervals = []
    for i, xi in enumerate(x):
        zi = prev_a * (1 - prev_x) * xi
        ai = (prev_a + 1) * (1 - xi)
        a.append(ai)
        z.append(zi)
        if xi:
            intervals.append((i - zi, i))
        prev_a, prev_x = ai, xi
    return DiagonalEncoding(x=x, a=tuple(a), z=tuple(z),
                            intervals=tuple(intervals))


def encode(intervals, n: int) -> tuple:
    """Inverse of decode: set a bit at each interval end."""
    x = [0] * n
    for _, e in intervals:
        x[e] = 1
    return tuple(x)


def ls_objective(x, agg: AggregateSet, cfg: BinningConfig,
                 pairs: PValuePairs | None = None):
    """Objective of an encoded partition, or None when infeasible."""
    enc = decode(x)
    if len(enc.x) != agg.n:
        raise MalformedEncodingError(
            "encoding length {} != {} pre-bins".format(len(enc.x), agg.n))
    feasible, obj = evaluate_partition(enc.intervals, agg, cfg, pairs)
    return obj if feasible else None


# --------------------------------------------------------------------------- #
# search
# --------------------------------------------------------------------------- #

def _moves(intervals: tuple):
    """The neighbours of a partition, as ``(i, drop, add)``: the bins
    ``intervals[i:i + drop]`` give way to the bins in ``add``.

    The order is that of the bit vector's moves: a flip of each bit 0..n-2
    (a split inside a bin, or at a bin's end a merge with the next bin),
    then for each inner boundary a shift one pre-bin left, then right.
    """
    last = len(intervals) - 1
    for i, (s, e) in enumerate(intervals):
        for c in range(s, e):
            yield i, 1, ((s, c), (c + 1, e))
        if i < last:
            yield i, 2, ((s, intervals[i + 1][1]),)
    for i in range(last):
        (s, e), (s2, e2) = intervals[i], intervals[i + 1]
        if s < e:
            yield i, 2, ((s, e - 1), (e, e2))
        if s2 < e2:
            yield i, 2, ((s, e + 1), (e + 2, e2))


def _score(intervals, tab):
    """(key, gain) of a partition: ``(1, gain)`` when feasible, else
    ``(0, -violations)`` with the gain NaN."""
    broken = sum(_violated_groups(intervals, tab))
    if broken:
        return (0, -float(broken)), math.nan
    gain = _objective(intervals, tab)
    return (1, gain), gain


def _neighbours(intervals: tuple, bad_bins: int, tab):
    """``(key, gain, move, bad_bins)`` of each neighbour of the
    partition X = ``intervals``, in ``_moves`` order; the move ``(i, drop,
    add)`` makes the neighbour ``X[:i] + add + X[i + drop:]``, and
    ``bad_bins`` is its bins' total of broken per-bin bounds.  The key is
    the one ``_score`` gives the whole neighbour.

    X's gate states, blocked pairs and gain sums are read once per
    call, as the module docstring says.  A gate that stops before the last
    bin takes X's final state as its own, a neighbour's p-value check reads
    X's blocked pairs before bin ``i`` and from bin ``i + drop`` on, and
    only a feasible neighbour sums its gain.
    """
    m = len(intervals)
    cfg = tab.cfg
    obj, bad, records = tab.obj, tab.bad, tab.records
    # bins short of or over the bin-count bounds, by the change in count
    short_or_over = {d: max(cfg.min_bins - m - d, 0)
                     + max(m + d - tab.b_max, 0) for d in (-1, 0, 1)}
    gates = []
    for trend, table in zip(tab.trends, tab.rates):
        gate = _gate(trend, intervals[-1][1] + 1, cfg.min_diff)
        if gate is None:
            continue
        step, state = gate
        states = [state]                  # states[r]: after the bins X[:r]
        for s, e in intervals:
            if state is not None:
                state = step(state, table[e][s], e)
            states.append(state)
        gates.append((step, table, states))
    masks = None
    if tab.pvalue is not None:
        # masks[l][j, k - l]: bin j..l-1 may not precede bin l..k; the
        # memoryviews index like the arrays at a fraction of the cost
        masks = [memoryview(mask) for mask in tab.pvalue.masks]
        joint = [r for r, ((s1, _), (s2, e2)) in
                 enumerate(zip(intervals, intervals[1:]))
                 if masks[s2][s1, e2 - s2]]
        # X[:r] holds no blocked pair for r <= lo, X[r:] none for r >= hi
        lo, hi = (joint[0] + 1, joint[-1] + 1) if joint else (m, 0)
    sums = [0.0]                          # sums[r]: X[:r]'s gain
    for s, e in intervals:
        sums.append(sums[-1] + obj[e][s])
    if tab.gamma:
        counts = [records[e][s] for s, e in intervals]

    for i, drop, add in _moves(intervals):
        j = i + drop
        y_bad = bad_bins
        for s, e in intervals[i:j]:
            y_bad -= bad[e][s]
        for s, e in add:
            y_bad += bad[e][s]
        broken = y_bad + short_or_over[len(add) - drop]
        for step, table, states in gates:
            state = states[i]
            for s, e in add:
                if state is None:
                    break
                state = step(state, table[e][s], e)
            r = j
            while state is not None and r < m:
                s, e = intervals[r]
                r += 1
                state = step(state, table[e][s], e)
                if state == states[r]:
                    state = states[m]
                    break
            broken += state is None
        if masks is not None:
            seq = intervals[max(i - 1, 0):i] + add + intervals[j:j + 1]
            broken += not (lo >= i and hi <= j and not any(
                masks[s2][s1, e2 - s2]
                for (s1, _), (s2, e2) in zip(seq, seq[1:])))
        if broken:
            yield (0, -float(broken)), math.nan, (i, drop, add), y_bad
            continue
        total = sums[i]
        for s, e in add:
            total += obj[e][s]
        for s, e in intervals[j:]:
            total += obj[e][s]
        if tab.gamma:
            total = _penalized(
                total, counts[:i] + [records[e][s] for s, e in add]
                + counts[j:], tab)
        yield (1, total), total, (i, drop, add), y_bad


def _check_time_limit(time_limit: float | None) -> None:
    """Raise InvalidConfigError unless ``time_limit`` is None or >= 0."""
    if time_limit is not None and not time_limit >= 0:
        raise InvalidConfigError(
            ["the time budget must be >= 0 seconds; got {!r}".format(time_limit)])


def ls_solve(agg: AggregateSet, cfg: BinningConfig,
             pairs: PValuePairs | None = None, *,
             seed: int = 0, restarts: int = 12,
             time_limit: float | None = None) -> Solution:
    """Steepest-descent local search with random restarts.

    Starts from the all-singletons and single-bin encodings, then from random
    encodings with bin counts drawn inside the configured bounds.  Each
    restart walks to a local optimum of (feasibility, gain), moving only
    on strict improvement and at most 10 n times; the best feasible
    partition across restarts is returned with status FEASIBLE (never a
    claim of optimality).  With nothing feasible met the status is
    INFEASIBLE when every search ran to its end, and TIME_LIMIT when the time
    ran out first.  Auto trends are resolved with local-search sub-solves
    before the main run, as ``solve`` resolves them.  ``time_limit``
    (seconds, >= 0) caps all of these runs together: each one may use the
    time left split evenly over the runs still to come.
    """
    validate_config(cfg)
    _check_time_limit(time_limit)
    if not _is_count(seed):
        raise InvalidConfigError(
            ["the seed must be a nonnegative integer; got {!r}".format(seed)])
    deadline = None if time_limit is None else time.monotonic() + time_limit
    left = _search_count(agg, cfg)

    def search(sub_agg, sub_cfg, sub_pairs):
        nonlocal left
        cap = None
        if deadline is not None:
            now = time.monotonic()
            cap = now + (deadline - now) / left
        left -= 1
        return _descend(sub_agg, sub_cfg, sub_pairs, seed, restarts, cap)

    return _resolve(agg, cfg, pairs, search)


def _descend(agg: AggregateSet, cfg: BinningConfig, pairs: PValuePairs | None,
             seed: int, restarts: int, deadline: float | None) -> Solution:
    """The local search for concrete trends, stopping at ``deadline``.

    Each step scores every neighbour with ``_neighbours`` and builds the
    bins of the best one only.  The keys are the ones ``_violated_groups``
    and ``_objective`` give whole partitions, and ``evaluate_partition``
    rechecks the partition returned.  The solution's objective is the gain.
    """
    n = agg.n
    tab = _tables(agg, cfg, pairs)
    rng = np.random.default_rng(seed)
    b_min = max(1, cfg.min_bins)
    b_max = min(n, cfg.max_bins if cfg.max_bins is not None else n)

    def start(k: int) -> list:
        if k == 0:
            return [1] * n
        if k == 1:
            return [0] * (n - 1) + [1]
        want = int(rng.integers(b_min, b_max + 1)) if b_max >= b_min else 1
        x = [0] * n
        x[-1] = 1
        if want > 1 and n > 1:
            ends = rng.choice(n - 1, size=min(want - 1, n - 1), replace=False)
            for e in sorted(int(v) for v in ends):
                x[e] = 1
        return x

    def out_of_time():
        return deadline is not None and time.monotonic() > deadline

    best = None          # (score_key, n_bins, intervals, gain)
    cut = False
    for k in range(max(1, restarts)):
        if out_of_time():
            cut = True
            break
        intervals = decode(start(k)).intervals
        bad_bins = sum(tab.bad[e][s] for s, e in intervals)
        key, gain = _score(intervals, tab)
        for _ in range(10 * n):
            if out_of_time():
                cut = True
                break
            move = None
            for y in _neighbours(intervals, bad_bins, tab):
                if move is None or y[0] > move[0]:
                    move = y
            if move is None or move[0] <= key:
                break
            key, gain, (i, drop, add), bad_bins = move
            intervals = intervals[:i] + add + intervals[i + drop:]
        if key[0] == 1:
            cand = (key, len(intervals), intervals, gain)
            if best is None or cand[0] > best[0] or (
                    cand[0] == best[0] and cand[1] < best[1]):
                best = cand

    if best is None:
        return Solution(status=TIME_LIMIT if cut else INFEASIBLE,
                        trend_used=cfg.trend, n_prebins=n)
    _, _, intervals, gain = best
    feasible, recheck = evaluate_partition(intervals, agg, cfg, pairs)
    if not feasible or recheck != _in_units(agg, gain):
        raise AssertionError(
            "local search returned a partition failing its own recheck: {} "
            "gain={} recheck=({}, {})".format(intervals, gain, feasible, recheck))
    return Solution(status=FEASIBLE, intervals=intervals, objective=gain,
                    trend_used=cfg.trend, n_prebins=n)
