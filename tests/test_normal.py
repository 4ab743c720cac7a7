"""``aggregate._ndtr`` and ``_ndtri`` against ``scipy.special``, bit for bit.

binopt carries its own transcription of the Cephes normal distribution
function and quantile so that no command imports scipy; scipy stays the
independent reference here.  Floats are compared by their bits, so the sign
of a zero (and of a NaN) counts.  Each branch of the two routines gets a
seeded dense grid of its own, and every cut-off float is checked with its
two neighbours.
"""

import math
import struct

import numpy as np
import pytest
from scipy.special import ndtr, ndtri

from binopt.aggregate import _ndtr, _ndtri

MAXLOG = 7.09782712893383996843E2       # erfc underflows past sqrt(MAXLOG)
SQRT2 = math.sqrt(2.0)
EXP_M2 = 0.13533528323661269189
EXP_M32 = math.exp(-32.0)
N = 20000


def _bits(v) -> bytes:
    return struct.pack("<d", float(v))


def _neighbours(values) -> list:
    return [w for v in values
            for w in (v, math.nextafter(v, -math.inf),
                      math.nextafter(v, math.inf))]


def _assert_bits(ours, theirs, xs):
    xs = np.asarray(xs, dtype=float)
    with np.errstate(all="ignore"):
        want = theirs(xs).tolist()
    bad = [(x, ours(x), w) for x, w in zip(xs.tolist(), want)
           if _bits(ours(x)) != _bits(w)]
    assert not bad, "{} of {} differ, first {}".format(len(bad), xs.size,
                                                        bad[:3])


def _symmetric(rng, low, high):
    """N values with |x| in [low, high), half of them negative."""
    x = rng.uniform(low, high, N)
    x[::2] *= -1.0
    return x


# ndtr's branches, by |x| / sqrt(2): erf below 1/sqrt(2); 1 - erf up to 1;
# erfc's P/Q fit up to 8 and R/S fit beyond; underflow past sqrt(MAXLOG)
NDTR_BRANCHES = {
    "erf": (0.0, 1.0),
    "one-minus-erf": (1.0, SQRT2),
    "erfc-below-8": (SQRT2, 8.0 * SQRT2),
    "erfc-from-8": (8.0 * SQRT2, math.sqrt(MAXLOG) * SQRT2),
    "underflow": (math.sqrt(MAXLOG) * SQRT2, 1e3),
}


@pytest.mark.parametrize("branch", sorted(NDTR_BRANCHES))
def test_ndtr_matches_scipy_on_each_branch(branch):
    low, high = NDTR_BRANCHES[branch]
    rng = np.random.default_rng(sorted(NDTR_BRANCHES).index(branch))
    _assert_bits(_ndtr, ndtr, _symmetric(rng, low, high))


def test_ndtr_matches_scipy_on_the_edges():
    cuts = [0.0, 0.5, 1.0, 5e-324, SQRT2, 8.0 * SQRT2,
            math.sqrt(MAXLOG) * SQRT2, math.sqrt(MAXLOG / 2.0) * 2.0,
            math.sqrt(0.5), 8.0, 1e300]
    edges = _neighbours(cuts + [-c for c in cuts])
    _assert_bits(_ndtr, ndtr,
                 edges + [-0.0, math.inf, -math.inf, math.nan, -math.nan])


# ndtri's branches: the far tails sqrt(-2 log y) >= 8 (y < exp(-32)), the
# tails' 2..8 fit, and the middle polynomial, each reached from both sides
NDTRI_BRANCHES = {
    "low-far": lambda rng: np.exp(rng.uniform(-745.0, -32.0, N)),
    "low-near": lambda rng: np.exp(rng.uniform(-32.0, -2.0, N)),
    "middle": lambda rng: rng.uniform(EXP_M2, 1.0 - EXP_M2, N),
    "high": lambda rng: 1.0 - np.exp(rng.uniform(-37.0, -2.0, N)),
    "threshold": lambda rng: 1.0 - rng.uniform(0.0, 1.0, N) / 2.0,
}


@pytest.mark.parametrize("branch", sorted(NDTRI_BRANCHES))
def test_ndtri_matches_scipy_on_each_branch(branch):
    rng = np.random.default_rng(100 + sorted(NDTRI_BRANCHES).index(branch))
    _assert_bits(_ndtri, ndtri, NDTRI_BRANCHES[branch](rng))


def test_ndtri_matches_scipy_on_the_edges():
    cuts = [0.5, EXP_M2, 1.0 - EXP_M2, EXP_M32, 1.0 - EXP_M32, 5e-324,
            0.975, 0.995, 1.0 - 5e-301]
    edges = _neighbours(cuts) + [0.0, -0.0, 1.0, math.nextafter(1.0, 2.0),
                                 -5e-324, 2.0, math.inf, -math.inf,
                                 math.nan, -math.nan]
    _assert_bits(_ndtri, ndtri, edges)


def test_ndtri_matches_scipy_on_every_mask_threshold():
    """The quantile ``pvalue_pairs`` takes, 1 - alpha / 2, for alpha over
    (0, 1] on a log grid and at the usual levels."""
    alphas = np.concatenate((np.logspace(-320, 0, N),
                             [1e-300, 0.001, 0.01, 0.05, 0.1, 0.5, 1.0]))
    _assert_bits(_ndtri, ndtri, 1.0 - alphas / 2.0)
