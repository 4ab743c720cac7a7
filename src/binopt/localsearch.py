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
random restarts; it scores candidates with the same whole-partition evaluator
the oracle uses, never claims optimality, and is deterministic for a fixed
seed when no wall-clock cap cuts it short.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .core import (
    BinningConfig, Solution, MalformedEncodingError, validate_config,
    FEASIBLE, INFEASIBLE,
)
from .aggregate import AggregateSet, PValuePairs
from .solver import (
    evaluate_partition, _violated_groups, _resolve, _search_count,
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

def _neighbors(x: list, n: int):
    """Bit flips plus boundary shifts, in a fixed deterministic order."""
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


def ls_solve(agg: AggregateSet, cfg: BinningConfig,
             pairs: PValuePairs | None = None, *,
             seed: int = 0, restarts: int = 12, max_moves: int | None = None,
             time_limit: float | None = None) -> Solution:
    """Steepest-descent local search with random restarts.

    Starts from the all-singletons and single-bin encodings, then from random
    encodings with bin counts drawn inside the configured bounds.  Each
    restart walks to a local optimum of (feasibility, objective), moving only
    on strict improvement; the best feasible partition across restarts is
    returned with status FEASIBLE (never a claim of optimality), or an
    INFEASIBLE solution when nothing feasible was met.  Auto trends are
    resolved with local-search sub-solves before the main run, as ``solve``
    resolves them.  ``time_limit`` caps all of these runs together: each one
    may use the time left split evenly over the runs still to come.
    """
    validate_config(cfg)
    deadline = None if time_limit is None else time.monotonic() + time_limit
    left = _search_count(agg, cfg)

    def search(sub_agg, sub_cfg, sub_pairs):
        nonlocal left
        cap = None
        if deadline is not None:
            now = time.monotonic()
            cap = now + (deadline - now) / left
        left -= 1
        return _descend(sub_agg, sub_cfg, sub_pairs, seed, restarts,
                        max_moves, cap)

    return _resolve(agg, cfg, pairs, search)


def _descend(agg: AggregateSet, cfg: BinningConfig, pairs: PValuePairs | None,
             seed: int, restarts: int, max_moves: int | None,
             deadline: float | None) -> Solution:
    """The local search for concrete trends, stopping at ``deadline``."""
    n = agg.n
    minimize = agg.target.is_continuous
    rng = np.random.default_rng(seed)
    b_min = max(1, cfg.min_bins)
    b_max = min(n, cfg.max_bins if cfg.max_bins is not None else n)
    if max_moves is None:
        max_moves = 10 * n

    def score(x_list):
        intervals = decode(x_list).intervals
        feasible, obj = evaluate_partition(intervals, agg, cfg, pairs)
        if feasible:
            return (1, -obj if minimize else obj), intervals, obj
        bad = sum(_violated_groups(intervals, agg, cfg, pairs))
        return (0, -float(bad)), intervals, obj

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

    best = None          # (score_key, n_bins, intervals, objective)
    for k in range(max(1, restarts)):
        if deadline is not None and time.monotonic() > deadline:
            break
        x = start(k)
        key, intervals, obj = score(x)
        for _ in range(max_moves):
            if deadline is not None and time.monotonic() > deadline:
                break
            move = None
            for y in _neighbors(x, n):
                y_key, y_iv, y_obj = score(y)
                if move is None or y_key > move[0]:
                    move = (y_key, y, y_iv, y_obj)
            if move is None or move[0] <= key:
                break
            key, x, intervals, obj = move[0], move[1], move[2], move[3]
        if key[0] == 1:
            cand = (key, len(intervals), intervals, obj)
            if best is None or cand[0] > best[0] or (
                    cand[0] == best[0] and cand[1] < best[1]):
                best = cand

    if best is None:
        return Solution(status=INFEASIBLE, trend_used=cfg.trend, n_prebins=n)
    _, _, intervals, obj = best
    return Solution(status=FEASIBLE, intervals=intervals, objective=obj,
                    trend_used=cfg.trend, n_prebins=n)
