"""Aggregate matrices over every contiguous pre-bin merge.

All candidate bins are merges of consecutive pre-bins, so every quantity the
solver needs is precomputed into lower-triangular matrices: entry ``[i, j]``
(for ``i >= j``) describes the merge of pre-bins ``j..i`` inclusive.  With
these in hand, any candidate partition is scored by plain lookups.

Matrices:

- ``R``, ``R_ne``, ``R_e``: record / non-event / event counts of each merge.
- ``V``: divergence contribution of each merge (Jeffreys "information value"
  or Jensen-Shannon, per config).  For multi-class, ``V`` is the sum of the
  per-class one-vs-rest contributions.
- ``D``: event rate of each merge (binary); ``class_D`` per class.
- ``U``: merged mean, ``L``: p-norm deviation of pre-bin means from the merged
  mean (continuous).

The adjacent-bin two-proportion z statistic is written once, in ``_zstat``:
it builds the solver's p-value masks (``pvalue_pairs``) and the quality
report's p-values (``quality.adjacent_pvalues``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import TargetKind, ZeroCountError, DIV_IV, DIV_JSD
from .preprocess import PrebinTable, refine_prebins_multiclass

# A TriMatrix is a plain (n, n) float array whose lower triangle (i >= j) is
# meaningful; entries above the diagonal are zero and never read.
TriMatrix = np.ndarray


def woe(nonevent, event, total_nonevent, total_event) -> float:
    """Weight of evidence of one bin: log of its non-event/event share ratio."""
    if min(nonevent, event, total_nonevent, total_event) <= 0:
        raise ZeroCountError(
            "WoE undefined for zero counts: ne={}, e={}, ne_total={}, e_total={}"
            .format(nonevent, event, total_nonevent, total_event))
    return math.log((nonevent / total_nonevent) / (event / total_event))


def _log(x: np.ndarray) -> np.ndarray:
    """``math.log`` of each element of a 1-D array: ``np.log`` may differ
    from it in the last bit."""
    return np.fromiter(map(math.log, x.tolist()), float, count=x.size)


def _check_shares(p, q, bad, what: str) -> None:
    """Raise ZeroCountError naming the first pair of shares that ``bad``
    flags."""
    if bad.any():
        k = int(bad.argmax())
        raise ZeroCountError("{}: p={}, q={}".format(what, float(p[k]),
                                                     float(q[k])))


def divergence_contrib(p, q, kind: str = DIV_IV):
    """One bin's divergence between non-event share ``p`` and event share ``q``.

    ``iv`` is the Jeffreys contribution (p - q) * log(p / q) and needs p, q > 0;
    ``jsd`` is the Jensen-Shannon contribution and tolerates zeros
    (0 * log 0 == 0).  Both are nonnegative.  ``p`` and ``q`` are floats or
    1-D arrays of equal length; an array gives, element by element, the
    float the same call gives for that element, and a bad share raises for
    the first bad element.
    """
    ps = np.atleast_1d(np.asarray(p, dtype=float))
    qs = np.atleast_1d(np.asarray(q, dtype=float))
    if kind == DIV_IV:
        _check_shares(ps, qs, (ps <= 0) | (qs <= 0),
                      "IV contribution undefined for zero shares")
        out = (ps - qs) * _log(ps / qs)
    elif kind == DIV_JSD:
        _check_shares(ps, qs, (ps < 0) | (qs < 0), "negative shares")
        m = 0.5 * (ps + qs)
        # a zero share takes log(1) == 0, so its term is 0.0
        terms = [x * _log(np.divide(x, m, out=np.ones_like(x), where=x > 0))
                 for x in (ps, qs)]
        out = 0.5 * (0.0 + terms[0] + terms[1])
    else:
        raise ValueError("unknown divergence kind {!r}".format(kind))
    return out if np.ndim(p) else float(out[0])


@dataclass(frozen=True)
class AggregateSet:
    """The precomputed triangular matrices for one column."""

    n: int
    target: TargetKind
    divergence: str | None
    R: TriMatrix
    R_ne: TriMatrix | None = None
    R_e: TriMatrix | None = None
    V: TriMatrix | None = None
    D: TriMatrix | None = None
    U: TriMatrix | None = None
    L: TriMatrix | None = None
    class_V: tuple = ()
    class_D: tuple = ()

    def __post_init__(self):
        for arr in (self.R, self.R_ne, self.R_e, self.V, self.D, self.U,
                    self.L, *self.class_V, *self.class_D):
            if arr is not None:
                arr.setflags(write=False)

    @cached_property
    def lookups(self) -> dict:
        """Lookup tables derived from these matrices by the code that reads
        them (``solver._tables``), built on first use and kept while the set
        lives."""
        return {}

    @property
    def n_records(self) -> int:
        return int(self.R[self.n - 1, 0])

    def objective_matrix(self) -> TriMatrix:
        """Matrix summed over a partition's intervals by the solver."""
        return self.L if self.target.is_continuous else self.V

    def rate_matrices(self) -> tuple:
        """Per-trend rate matrices: one for binary/continuous, K for classes."""
        if self.target.is_multiclass:
            return self.class_D
        return (self.U if self.target.is_continuous else self.D,)


def _merge_counts(values: np.ndarray) -> TriMatrix:
    """Lower-triangular sums: out[i, j] = values[j] + ... + values[i]."""
    csum = np.concatenate(([0.0], np.cumsum(values, dtype=float)))
    return np.tril(csum[1:, None] - csum[None, :-1])


def _share_matrices(R_ne: TriMatrix, R_e: TriMatrix, R: TriMatrix,
                    divergence: str):
    """Divergence and event-rate matrices (V, D) of a binary or one-vs-rest
    problem, filled over the lower triangle in row order."""
    n = R.shape[0]
    rows, cols = np.tril_indices(n)
    ne, ev = R_ne[rows, cols], R_e[rows, cols]
    V = np.zeros((n, n))
    D = np.zeros((n, n))
    V[rows, cols] = divergence_contrib(ne / R_ne[n - 1, 0], ev / R_e[n - 1, 0],
                                       divergence)
    D[rows, cols] = ev / R[rows, cols]
    return V, D


def build_binary(table: PrebinTable, divergence: str = DIV_IV) -> AggregateSet:
    """Divergence, event-rate and count matrices for a binary target.

    The table must be refined (>= 1 event and non-event per pre-bin), which
    makes every merge's counts positive and every entry well defined.
    """
    R_ne = _merge_counts(np.asarray(table.nonevent, dtype=float))
    R_e = _merge_counts(np.asarray(table.event, dtype=float))
    R = R_ne + R_e
    V, D = _share_matrices(R_ne, R_e, R, divergence)
    return AggregateSet(n=table.n, target=table.target, divergence=divergence,
                        R=R, R_ne=R_ne, R_e=R_e, V=V, D=D)


def build_continuous(table: PrebinTable, norm_p: int = 2) -> AggregateSet:
    """Merged means and p-norm deviation matrices for a continuous target.

    ``L[i, j]`` is the unweighted p-norm of the deviations of the pre-bin
    means inside the merge from the merged mean ``U[i, j]``.
    """
    mu = table.means()
    n = table.n
    R = _merge_counts(np.asarray(table.count, dtype=float))
    S = _merge_counts(np.asarray(table.total, dtype=float))
    U = np.divide(S, R, out=np.zeros((n, n)), where=np.tri(n, dtype=bool))
    L = np.zeros((n, n))
    # two-pass deviations: the expanded sum-of-squares form cancels badly when
    # the means inside a merge are nearly equal.  One merge at a time: np.dot
    # adds the squares in an order of its own, neither left to right nor
    # numpy's pairwise sum, so summing them any other way changes bits of L
    for i in range(n):
        for j in range(i + 1):
            d = mu[j: i + 1] - U[i, j]
            if norm_p == 2:
                L[i, j] = math.sqrt(float(np.dot(d, d)))
            else:
                L[i, j] = float(np.abs(d).sum())
    return AggregateSet(n=n, target=table.target, divergence=None,
                        R=R, U=U, L=L)


def build_multiclass(table: PrebinTable, divergence: str = DIV_IV) -> AggregateSet:
    """One-vs-rest matrices per class over a shared partition.

    Applies the joint zero-count refinement first (a merge for one class
    merges for all), then builds per-class divergence and event-rate matrices;
    ``V`` holds their sum, which is the solver's objective matrix.
    """
    table = refine_prebins_multiclass(table)
    n = table.n
    R = _merge_counts(np.asarray(table.count, dtype=float))
    class_V = []
    class_D = []
    for c in range(table.target.n_classes):
        R_e = _merge_counts(np.asarray(table.class_events[c], dtype=float))
        Vc, Dc = _share_matrices(R - R_e, R_e, R, divergence)
        class_V.append(Vc)
        class_D.append(Dc)
    V = np.sum(class_V, axis=0)
    return AggregateSet(n=n, target=table.target, divergence=divergence,
                        R=R, V=V, class_V=tuple(class_V), class_D=tuple(class_D))


# --------------------------------------------------------------------------- #
# p-value separation
# --------------------------------------------------------------------------- #

@dataclass(frozen=True)
class PValuePairs:
    """Adjacent bins whose event rates are *not* separated at level alpha.

    ``masks[l]`` is an (l, n - l) boolean array for the boundary before
    pre-bin l: ``masks[l][j, k - l]`` is True when bin j..l-1 may not be
    followed by bin l..k.  A partition may not contain both bins of a blocked
    pair.  ``masks[0]`` is empty, as no bin ends before pre-bin 0.
    """

    alpha: float
    threshold: float
    masks: tuple

    def __post_init__(self):
        for mask in self.masks:
            mask.setflags(write=False)

    @cached_property
    def pairs(self) -> frozenset:
        """Every blocked pair as a quadruple (i, j, k, l) of ints: bin j..i
        followed by bin l..k, l = i + 1.  Built on first use, for readers
        outside the solver; the solver reads ``masks``."""
        return frozenset((l - 1, j, k + l, l)
                         for l, mask in enumerate(self.masks)
                         for j, k in np.argwhere(mask).tolist())


def _zstat(e1, ne1, e2, ne2):
    """Two-proportion pooled z statistic of a bin of ``e1`` events and
    ``ne1`` non-events against one of ``e2`` and ``ne2``; 0 where the pooled
    variance is not positive.  Works the same on floats and, elementwise, on
    numpy arrays."""
    with np.errstate(divide="ignore", invalid="ignore"):
        n1 = e1 + ne1
        n2 = e2 + ne2
        d1 = e1 / n1
        d2 = e2 / n2
        pbar = (e1 + e2) / (n1 + n2)
        var = pbar * (1.0 - pbar) * (1.0 / n1 + 1.0 / n2)
        z = np.where(var <= 0.0, 0.0, (d1 - d2) / np.sqrt(var))
    return z[()]        # a float for floats: [()] unwraps a 0-d array


def pvalue_pairs(R_ne: TriMatrix, R_e: TriMatrix, alpha: float) -> PValuePairs:
    """Mark the adjacent merge pairs failing the two-proportion z test.

    Bin j..l-1 followed by bin l..k is blocked (``masks[l][j, k - l]``) when
    the pooled z statistic of the two merges is below the normal quantile for
    ``alpha`` two-sided, i.e. the rates are insufficiently separated (p-value
    above alpha).
    """
    from scipy.special import ndtri     # here, so that importing binopt skips scipy

    threshold = float(ndtri(1.0 - alpha / 2.0))
    n = R_e.shape[0]
    masks = [np.zeros((0, n), dtype=bool)]
    for l in range(1, n):
        # every first bin j..l-1 against every second bin l..k at once
        z = _zstat(R_e[l - 1, :l, None], R_ne[l - 1, :l, None],
                   R_e[l:, l], R_ne[l:, l])
        masks.append(np.abs(z) < threshold)
    return PValuePairs(alpha=alpha, threshold=threshold, masks=tuple(masks))
