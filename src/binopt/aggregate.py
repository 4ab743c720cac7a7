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
report's p-values (``quality.adjacent_pvalues``).  The normal quantile the
masks compare it with (``_ndtri``) and the tail the report reads
(``_ndtr``) live here too: transcriptions of the Cephes routines that
``scipy.special`` runs, equal to them bit for bit, so binopt needs no
scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import TargetKind, ZeroCountError, DIV_IV, DIV_JSD
# no code here reads refine_prebins_multiclass: bench/tracing.py wraps it on
# this module, and tests/test_traced_names.py requires the name
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
    lower = np.tri(n, dtype=bool)
    ne, ev = R_ne[lower], R_e[lower]
    V = np.zeros((n, n))
    D = np.zeros((n, n))
    V[lower] = divergence_contrib(ne / R_ne[n - 1, 0], ev / R_e[n - 1, 0],
                                  divergence)
    D[lower] = ev / R[lower]
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

    The table must be refined (``refine_prebins_multiclass``: >= 1 record of
    each class and of the rest per pre-bin), which makes every merge's counts
    positive and every entry well defined.  Builds per-class divergence and
    event-rate matrices; ``V`` holds their sum, which is the solver's
    objective matrix.
    """
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


# Cephes ndtr.c and ndtri.c (Stephen L. Moshier) as scipy.special runs them:
# the same coefficient tables, Horner order and branch cut-offs.  exp, log
# and sqrt go through ``math`` (libm), since numpy's vectorized exp may round
# differently.

_SQRT1_2 = 0.70710678118654752440       # 1 / sqrt(2)
_MAXLOG = 7.09782712893383996843E2      # log(DBL_MAX)
_EXP_M2 = 0.13533528323661269189        # exp(-2)
_S2PI = 2.50662827463100050242E0        # sqrt(2 pi)

# erfc(x) = exp(-x^2) P(x) / Q(x), 1 <= x < 8
_NDTR_P = (2.46196981473530512524E-10, 5.64189564831068821977E-1,
           7.46321056442269912687E0, 4.86371970985681366614E1,
           1.96520832956077098242E2, 5.26445194995477358631E2,
           9.34528527171957607540E2, 1.02755188689515710272E3,
           5.57535335369399327526E2)
_NDTR_Q = (1.0, 1.32281951154744992508E1, 8.67072140885989742329E1,
           3.54937778887819891062E2, 9.75708501743205489753E2,
           1.82390916687909736289E3, 2.24633760818710981792E3,
           1.65666309194161350182E3, 5.57535340817727675546E2)
# erfc(x) = exp(-x^2) R(x) / S(x), x >= 8
_NDTR_R = (5.64189583547755073984E-1, 1.27536670759978104416E0,
           5.01905042251180477414E0, 6.16021097993053585195E0,
           7.40974269950448939160E0, 2.97886665372100240670E0)
_NDTR_S = (1.0, 2.26052863220117276590E0, 9.39603524938001434673E0,
           1.20489539808096656605E1, 1.70814450747565897222E1,
           9.60896809063285878198E0, 3.36907645100081516050E0)
# erf(x) = x T(x^2) / U(x^2), |x| <= 1
_NDTR_T = (9.60497373987051638749E0, 9.00260197203842689217E1,
           2.23200534594684319226E3, 7.00332514112805075473E3,
           5.55923013010394962768E4)
_NDTR_U = (1.0, 3.35617141647503099647E1, 5.21357949780152679795E2,
           4.59432382970980127987E3, 2.26290000613890934246E4,
           4.92673942608635921086E4)

# ndtri, |y - 0.5| <= 1/2 - exp(-2)
_NDTRI_P0 = (-5.99633501014107895267E1, 9.80010754185999661536E1,
             -5.66762857469070293439E1, 1.39312609387279679503E1,
             -1.23916583867381258016E0)
_NDTRI_Q0 = (1.0, 1.95448858338141759834E0, 4.67627912898881538453E0,
             8.63602421390890590575E1, -2.25462687854119370527E2,
             2.00260212380060660359E2, -8.20372256168333339912E1,
             1.59056225126211695515E1, -1.18331621121330003142E0)
# ndtri, z = sqrt(-2 log y) in [2, 8): y in [exp(-32), exp(-2)]
_NDTRI_P1 = (4.05544892305962419923E0, 3.15251094599893866154E1,
             5.71628192246421288162E1, 4.40805073893200834700E1,
             1.46849561928858024014E1, 2.18663306850790267539E0,
             -1.40256079171354495875E-1, -3.50424626827848203418E-2,
             -8.57456785154685413611E-4)
_NDTRI_Q1 = (1.0, 1.57799883256466749731E1, 4.53907635128879210584E1,
             4.13172038254672030440E1, 1.50425385692907503408E1,
             2.50464946208309415979E0, -1.42182922854787788574E-1,
             -3.80806407691578277194E-2, -9.33259480895457427372E-4)
# ndtri, z in [8, 64): y below exp(-32)
_NDTRI_P2 = (3.23774891776946035970E0, 6.91522889068984211695E0,
             3.93881025292474443415E0, 1.33303460815807542389E0,
             2.01485389549179081538E-1, 1.23716634817820021358E-2,
             3.01581553508235416007E-4, 2.65806974686737550832E-6,
             6.23974539184983293730E-9)
_NDTRI_Q2 = (1.0, 6.02427039364742014255E0, 3.67983563856160859403E0,
             1.37702099489081330271E0, 2.16236993594496635890E-1,
             1.34204006088543189037E-2, 3.28014464682127739104E-4,
             2.89247864745380683936E-6, 6.79019408009981274425E-9)


def _polevl(x: float, coef: tuple) -> float:
    """Cephes ``polevl``: coef[0] x^N + ... + coef[N] by Horner's rule.
    The denominators' tables start with Cephes ``p1evl``'s implied 1.0:
    1.0 * x is exactly x, so the bits are ``p1evl``'s."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _erf(x: float) -> float:
    """Cephes ``erf`` for |x| < 1, the only range ``_ndtr`` and ``_erfc``
    pass."""
    if x < 0.0:
        return -_erf(-x)
    z = x * x
    return x * _polevl(z, _NDTR_T) / _polevl(z, _NDTR_U)


def _erfc(x: float) -> float:
    """Cephes ``erfc`` for x >= 0, the only range ``_ndtr`` passes; 0.0
    past underflow."""
    if x < 1.0:
        return 1.0 - _erf(x)
    z = -x * x
    if z < -_MAXLOG:
        return 0.0
    z = math.exp(z)
    if x < 8.0:
        return z * _polevl(x, _NDTR_P) / _polevl(x, _NDTR_Q)
    return z * _polevl(x, _NDTR_R) / _polevl(x, _NDTR_S)


def _ndtr(a: float) -> float:
    """Standard normal distribution function at ``a``:
    ``scipy.special.ndtr(a)`` bit for bit."""
    if math.isnan(a):
        return math.nan
    x = a * _SQRT1_2
    z = abs(x)
    if z < _SQRT1_2:
        return 0.5 + 0.5 * _erf(x)
    y = 0.5 * _erfc(z)
    return 1.0 - y if x > 0.0 else y


def _ndtri(y0: float) -> float:
    """Standard normal quantile of ``y0`` (nan outside [0, 1]):
    ``scipy.special.ndtri(y0)`` bit for bit."""
    if y0 == 0.0:
        return -math.inf
    if y0 == 1.0:
        return math.inf
    if y0 < 0.0 or y0 > 1.0:
        return math.nan
    negate = True
    y = y0
    if y > 1.0 - _EXP_M2:
        y = 1.0 - y
        negate = False
    if y > _EXP_M2:
        y = y - 0.5
        y2 = y * y
        x = y + y * (y2 * _polevl(y2, _NDTRI_P0) / _polevl(y2, _NDTRI_Q0))
        return x * _S2PI
    x = math.sqrt(-2.0 * math.log(y))
    x0 = x - math.log(x) / x
    z = 1.0 / x
    if x < 8.0:                         # y > exp(-32)
        x1 = z * _polevl(z, _NDTRI_P1) / _polevl(z, _NDTRI_Q1)
    else:
        x1 = z * _polevl(z, _NDTRI_P2) / _polevl(z, _NDTRI_Q2)
    x = x0 - x1
    return -x if negate else x


def pvalue_pairs(R_ne: TriMatrix, R_e: TriMatrix, alpha: float) -> PValuePairs:
    """Mark the adjacent merge pairs failing the two-proportion z test.

    Bin j..l-1 followed by bin l..k is blocked (``masks[l][j, k - l]``) when
    the pooled z statistic of the two merges is below the normal quantile for
    ``alpha`` two-sided, i.e. the rates are insufficiently separated (p-value
    above alpha).
    """
    threshold = _ndtri(1.0 - alpha / 2.0)
    n = R_e.shape[0]
    masks = [np.zeros((0, n), dtype=bool)]
    for l in range(1, n):
        # every first bin j..l-1 against every second bin l..k at once
        z = _zstat(R_e[l - 1, :l, None], R_ne[l - 1, :l, None],
                   R_e[l:, l], R_ne[l:, l])
        masks.append(np.abs(z) < threshold)
    return PValuePairs(alpha=alpha, threshold=threshold, masks=tuple(masks))
