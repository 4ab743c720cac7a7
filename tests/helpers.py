"""Shared builders for solver/local-search tests.

Instances are built straight from count arrays: a PrebinTable constructed in
memory, never from raw records, so every test controls its cells exactly.
"""

import numpy as np

from binopt import (
    BinningConfig, TargetKind, TrendSpec,
    build_binary, build_continuous, build_multiclass, pvalue_pairs,
)
from binopt.preprocess import PrebinTable


def binary_agg(nonevent, event, divergence="iv"):
    ne = np.asarray(nonevent, dtype=np.int64)
    ev = np.asarray(event, dtype=np.int64)
    table = PrebinTable(target=TargetKind.binary(), count=ne + ev,
                        nonevent=ne, event=ev,
                        splits=tuple(float(i) + 0.5 for i in range(ne.size - 1)))
    return build_binary(table, divergence=divergence)


def continuous_agg(count, total, norm_p=2):
    c = np.asarray(count, dtype=np.int64)
    table = PrebinTable(target=TargetKind.continuous(), count=c,
                        total=np.asarray(total, dtype=float),
                        splits=tuple(float(i) + 0.5 for i in range(c.size - 1)))
    return build_continuous(table, norm_p=norm_p)


def multiclass_agg(class_events, divergence="iv"):
    ce = np.asarray(class_events, dtype=np.int64)
    table = PrebinTable(target=TargetKind.multiclass(ce.shape[0]),
                        count=ce.sum(axis=0), class_events=ce,
                        splits=tuple(float(i) + 0.5 for i in range(ce.shape[1] - 1)))
    return build_multiclass(table, divergence=divergence)


def random_binary_agg(rng, n, divergence="iv", high=30):
    return binary_agg(rng.integers(1, high, size=n),
                      rng.integers(1, high, size=n), divergence)


def random_continuous_agg(rng, n, norm_p=2):
    count = rng.integers(1, 25, size=n)
    total = rng.normal(loc=1.0, scale=2.0, size=n) * count
    return continuous_agg(count, total, norm_p=norm_p)


def random_multiclass_agg(rng, n, divergence="iv"):
    k = int(rng.integers(3, 5))
    return multiclass_agg(rng.integers(1, 15, size=(k, n)), divergence)


# the ten trend families exercised throughout; pinned change points get a
# fresh random position per instance
TREND_FAMILIES = (
    "none", "ascending", "descending", "concave", "convex",
    "peak", "valley", "peak:pinned", "valley:pinned", "auto",
)


def family_trend(family, rng, n):
    if family.endswith(":pinned"):
        kind = family.split(":")[0]
        return TrendSpec(kind, int(rng.integers(0, n)))
    return TrendSpec(family)


def random_instance(rng, family, flavor, n_max=12, n_min=3):
    """One (agg, cfg, pairs) triple with a randomized constraint mix.

    ``flavor`` cycles the target kind: 0 binary/iv, 1 binary/jsd,
    2 continuous, 3 multi-class.  The constraint mix spans bin-count bounds,
    record bounds, rate separation, p-value separation (binary only), and
    every concentration kind.  Tables have ``n_min`` to ``n_max`` pre-bins.
    """
    n = int(rng.integers(n_min, n_max + 1))
    if flavor == 0:
        agg = random_binary_agg(rng, n, "iv")
    elif flavor == 1:
        agg = random_binary_agg(rng, n, "jsd")
    elif flavor == 2:
        agg = random_continuous_agg(rng, n)
    else:
        agg = random_multiclass_agg(rng, n)
    n = agg.n   # multi-class refinement can shrink the table

    trend = family_trend(family, rng, n)

    min_bins = int(rng.integers(1, 3))
    max_bins = None
    if rng.random() < 0.5:
        max_bins = int(rng.integers(min_bins, n + 1))

    total = agg.n_records
    min_bin_size = None
    max_bin_size = None
    if rng.random() < 0.3:
        min_bin_size = int(rng.integers(1, max(2, total // n)))
    if rng.random() < 0.15:
        max_bin_size = int(rng.integers(total // 2, total + 1))

    kw = {}
    if flavor in (0, 1) and rng.random() < 0.2:
        kw["min_nonevent"] = 1
        kw["min_event"] = 1
        if rng.random() < 0.5:
            kw["max_event"] = int(rng.integers(total // 2, total + 1))

    conc = ("off", "std", "hhi", "maxmin")[int(rng.integers(0, 4))]
    gamma = 0.0 if conc == "off" else float(rng.choice([0.0, 0.1]))

    cfg = BinningConfig(
        min_bins=min_bins, max_bins=max_bins,
        min_bin_size=min_bin_size, max_bin_size=max_bin_size,
        min_diff=float(rng.choice([0.0, 0.01])),
        concentration=conc, gamma=gamma,
        trend=trend,
        divergence=agg.divergence or "iv",
        **kw,
    )

    pairs = None
    if flavor in (0, 1) and rng.random() < 0.5:
        pairs = pvalue_pairs(agg.R_ne, agg.R_e, alpha=0.05)
    return agg, cfg, pairs
