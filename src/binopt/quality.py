"""Closed-form quality score for a fitted binary binning.

A binning is considered healthy when its total divergence sits inside a
target band (too little means no signal, too much usually means leakage or
over-fitting), adjacent bins are statistically distinguishable, and records
are spread evenly across bins.  The score multiplies three [0, 1] factors:

- a Rayleigh-shaped bump in the divergence, scaled so the band endpoints
  score equally and the peak (exactly 1) falls between them;
- the product of (1 - p) over adjacent-bin two-proportion tests, whose z
  statistic (``aggregate._zstat``) is the one the solver's p-value masks
  read, and whose normal tail is ``aggregate._ndtr``;
- a normalized evenness term, 1 at uniform bin sizes and 0 when a single
  bin holds everything.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .aggregate import _ndtr, _zstat

# divergence band considered healthy for a predictive grouping
BAND_LOW = 0.3
BAND_HIGH = 0.5

# strength labels for total IV, by half-open lower edge
IV_LABELS = (
    (0.5, "over-prediction"),
    (0.3, "strong"),
    (0.1, "medium"),
    (0.02, "weak"),
    (0.0, "not useful"),
)


def c_star(a: float, b: float) -> float:
    """Rayleigh scale at which the density is equal at a and b (0 < a < b)."""
    if not 0.0 < a < b:
        raise ValueError("band must satisfy 0 < a < b; got ({}, {})".format(a, b))
    return math.sqrt(b * b - a * a) / math.sqrt(2.0 * math.log(b / a))


def rayleigh_factor(value: float, scale: float) -> float:
    """Rayleigh density at ``value``, normalized so the mode scores 1.0."""
    if value < 0.0:
        raise ValueError("divergence must be non-negative; got {}".format(value))
    if scale <= 0.0:
        raise ValueError("scale must be positive; got {}".format(scale))
    return (value / scale) * math.exp(-value * value / (2.0 * scale * scale) + 0.5)


def iv_label(iv: float) -> str:
    """Conventional strength label for a total IV value."""
    if iv < 0.0:
        raise ValueError("IV cannot be negative; got {}".format(iv))
    for low, label in IV_LABELS:
        if iv >= low:
            return label
    return IV_LABELS[-1][1]


def adjacent_pvalues(nonevents, events) -> tuple:
    """Two-sided pooled two-proportion p-values for consecutive bin pairs,
    from the z statistic that also builds the solver's p-value masks."""
    ne = np.asarray(nonevents, dtype=float)
    e = np.asarray(events, dtype=float)
    if ne.shape != e.shape:
        raise ValueError("nonevent and event lists differ in length")
    empty = np.flatnonzero(ne + e == 0.0)
    if empty.size:
        raise ValueError("bin {} holds no records".format(int(empty[0])))
    z = _zstat(e[:-1], ne[:-1], e[1:], ne[1:])
    return tuple(2.0 * (1.0 - _ndtr(abs(v))) for v in z.tolist())


def quality_score(divergence: float, pvalues, sizes) -> float:
    """Multiplicative quality of a binning, in [0, 1].

    ``divergence`` is the total divergence of the optimized bins, ``pvalues``
    the adjacent-pair separation p-values, and ``sizes`` the record share of
    each optimized bin (summing to 1).  A single bin carries no information
    and scores 0.  The maximum 1.0 needs the divergence at the Rayleigh mode,
    all p-values 0, and perfectly uniform bin sizes.
    """
    sizes = [float(s) for s in sizes]
    n = len(sizes)
    if n <= 1:
        return 0.0
    bump = rayleigh_factor(float(divergence), c_star(BAND_LOW, BAND_HIGH))
    separation = 1.0
    for p in pvalues:
        if not 0.0 <= p <= 1.0:
            raise ValueError("p-values must lie in [0, 1]; got {}".format(p))
        separation *= 1.0 - float(p)
    evenness = (1.0 - sum(s * s for s in sizes)) / (1.0 - 1.0 / n)
    return bump * separation * evenness


@dataclass(frozen=True)
class QualityReport:
    """Quality factors of a fitted binary binning, plus the combined score."""

    score: float
    divergence: float
    label: str
    pvalues: tuple
    size_shares: tuple


def assess(nonevents, events, divergence: float, *,
           divergence_kind: str = "iv") -> QualityReport:
    """Build a QualityReport from per-bin counts of the optimized bins only."""
    counts = [float(ne) + float(e) for ne, e in zip(nonevents, events)]
    total = sum(counts)
    shares = tuple(c / total for c in counts) if total > 0 else ()
    pvals = adjacent_pvalues(nonevents, events)
    label = iv_label(float(divergence)) if divergence_kind == "iv" else "n/a"
    return QualityReport(
        score=quality_score(float(divergence), pvals, shares),
        divergence=float(divergence),
        label=label,
        pvalues=pvals,
        size_shares=shares,
    )
