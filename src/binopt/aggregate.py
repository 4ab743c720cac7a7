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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

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


def divergence_contrib(p: float, q: float, kind: str = DIV_IV) -> float:
    """One bin's divergence between non-event share ``p`` and event share ``q``.

    ``iv`` is the Jeffreys contribution (p - q) * log(p / q) and needs p, q > 0;
    ``jsd`` is the Jensen-Shannon contribution and tolerates zeros
    (0 * log 0 == 0).  Both are nonnegative.
    """
    if kind == DIV_IV:
        if p <= 0 or q <= 0:
            raise ZeroCountError(
                "IV contribution undefined for zero shares: p={}, q={}".format(p, q))
        return (p - q) * math.log(p / q)
    if kind == DIV_JSD:
        if p < 0 or q < 0:
            raise ZeroCountError("negative shares: p={}, q={}".format(p, q))
        m = 0.5 * (p + q)
        term = 0.0
        if p > 0:
            term += p * math.log(p / m)
        if q > 0:
            term += q * math.log(q / m)
        return 0.5 * term
    raise ValueError("unknown divergence kind {!r}".format(kind))


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
    n = values.size
    csum = np.concatenate(([0.0], np.cumsum(values, dtype=float)))
    out = np.zeros((n, n))
    for i in range(n):
        out[i, : i + 1] = csum[i + 1] - csum[: i + 1]
    return out


def build_binary(table: PrebinTable, divergence: str = DIV_IV) -> AggregateSet:
    """Divergence, event-rate and count matrices for a binary target.

    The table must be refined (>= 1 event and non-event per pre-bin), which
    makes every merge's counts positive and every entry well defined.
    """
    ne = np.asarray(table.nonevent, dtype=float)
    ev = np.asarray(table.event, dtype=float)
    ne_total, e_total = float(ne.sum()), float(ev.sum())
    R_ne = _merge_counts(ne)
    R_e = _merge_counts(ev)
    R = R_ne + R_e
    n = table.n
    V = np.zeros((n, n))
    D = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1):
            p = R_ne[i, j] / ne_total
            q = R_e[i, j] / e_total
            V[i, j] = divergence_contrib(p, q, divergence)
            D[i, j] = R_e[i, j] / R[i, j]
    return AggregateSet(n=n, target=table.target, divergence=divergence,
                        R=R, R_ne=R_ne, R_e=R_e, V=V, D=D)


def build_continuous(table: PrebinTable, norm_p: int = 2) -> AggregateSet:
    """Merged means and p-norm deviation matrices for a continuous target.

    ``L[i, j]`` is the unweighted p-norm of the deviations of the pre-bin
    means inside the merge from the merged mean ``U[i, j]``.
    """
    r = np.asarray(table.count, dtype=float)
    s = np.asarray(table.total, dtype=float)
    mu = s / r
    n = table.n
    R = _merge_counts(r)
    S = _merge_counts(s)
    U = np.zeros((n, n))
    L = np.zeros((n, n))
    for i in range(n):
        js = np.arange(i + 1)
        U[i, js] = S[i, js] / R[i, js]
        # two-pass deviations: the expanded sum-of-squares form cancels badly
        # when the means inside a merge are nearly equal
        for j in js:
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
        ev = np.asarray(table.class_events[c], dtype=float)
        ne = np.asarray(table.count, dtype=float) - ev
        e_total, ne_total = float(ev.sum()), float(ne.sum())
        R_e = _merge_counts(ev)
        Vc = np.zeros((n, n))
        Dc = np.zeros((n, n))
        for i in range(n):
            for j in range(i + 1):
                e_ij = R_e[i, j]
                ne_ij = R[i, j] - e_ij
                Vc[i, j] = divergence_contrib(ne_ij / ne_total, e_ij / e_total,
                                              divergence)
                Dc[i, j] = e_ij / R[i, j]
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
    """Adjacent merge pairs whose event rates are *not* separated at level alpha.

    Each element is a quadruple (i, j, k, l): the candidate bin j..i followed
    by the adjacent candidate bin l..k (l == i + 1).  A partition may not
    contain both halves of any quadruple.
    """

    alpha: float
    threshold: float
    pairs: frozenset

    def blocks(self, prev_end: int, prev_start: int, end: int, start: int) -> bool:
        return (prev_end, prev_start, end, start) in self.pairs


def _pooled_zstat(e1: float, ne1: float, e2: float, ne2: float) -> float:
    """Two-proportion pooled z statistic between adjacent merges."""
    n1 = e1 + ne1
    n2 = e2 + ne2
    d1 = e1 / n1
    d2 = e2 / n2
    pbar = (e1 + e2) / (n1 + n2)
    var = pbar * (1.0 - pbar) * (1.0 / n1 + 1.0 / n2)
    if var <= 0.0:
        return 0.0
    return (d1 - d2) / math.sqrt(var)


def pvalue_pairs(R_ne: TriMatrix, R_e: TriMatrix, alpha: float) -> PValuePairs:
    """Enumerate adjacent merge pairs failing the two-proportion z test.

    A quadruple (i, j, k, l) lands in the set when the pooled z statistic of
    merge j..i against the adjacent merge l..k (l = i + 1) is below the normal
    quantile for ``alpha`` two-sided, i.e. the rates are insufficiently
    separated (p-value above alpha).
    """
    threshold = float(ndtri(1.0 - alpha / 2.0))
    n = R_e.shape[0]
    found = set()
    for i in range(n - 1):
        l = i + 1
        for j in range(i + 1):
            e1, ne1 = R_e[i, j], R_ne[i, j]
            for k in range(l, n):
                z = _pooled_zstat(e1, ne1, R_e[k, l], R_ne[k, l])
                if abs(z) < threshold:
                    found.add((i, j, k, l))
    return PValuePairs(alpha=alpha, threshold=threshold, pairs=frozenset(found))
