"""The trend checks against their loop references.

Monotone and peak/valley trends are chains of bin rates compared by one
threshold rule; these tests hold the running-extreme chain check, the numpy
presolve and the branch and bound's bin-by-bin gates to plain loops and to
the whole-sequence oracle, on rates that tie to within a fraction of EPS.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from binopt import TrendSpec, check_trend, presolve_monotonic
from binopt.solver import EPS, _follows, _gate, _trend_feasible

from helpers import TREND_FAMILIES, binary_agg, random_binary_agg

MIN_DIFFS = (0.0, EPS, 0.001)


def _near_ties(rng, size):
    """Rates 0.3 apart by multiples of 0.001 and of a quarter of EPS."""
    return (0.3 + rng.integers(-2, 3, size=size) * 0.001
            + rng.integers(-6, 7, size=size) * (EPS / 4))


# --------------------------------------------------------------------------- #
# check_trend against all pairs
# --------------------------------------------------------------------------- #

def _pairwise_chain(rates, up, min_diff):
    for a in range(len(rates)):
        for b in range(a + 1, len(rates)):
            if up and rates[b] < rates[a] + min_diff - EPS:
                return False
            if not up and rates[b] > rates[a] - min_diff + EPS:
                return False
    return True


def _pairwise_trend(rates, kind, min_diff):
    if kind in ("ascending", "descending"):
        return _pairwise_chain(rates, kind == "ascending", min_diff)
    up = kind == "peak"
    return any(_pairwise_chain(rates[:p + 1], up, min_diff)
               and _pairwise_chain(rates[p:], not up, min_diff)
               for p in range(len(rates)))


def test_chains_match_a_pairwise_loop():
    rng = np.random.default_rng(11)
    for i in range(4000):
        rates = _near_ties(rng, int(rng.integers(1, 8))).tolist()
        kind = ("ascending", "descending", "peak", "valley")[i % 4]
        min_diff = MIN_DIFFS[i // 4 % 3]
        assert check_trend(rates, TrendSpec(kind), min_diff) == \
            _pairwise_trend(rates, kind, min_diff), (rates, kind, min_diff)


# --------------------------------------------------------------------------- #
# presolve against a loop over intervals
# --------------------------------------------------------------------------- #

def _presolve_loop(D, up, min_diff):
    n = D.shape[0]
    succ = [max(D[e + 1:, e + 1]) if up else min(D[e + 1:, e + 1])
            for e in range(n - 1)] + [np.inf if up else -np.inf]
    pred = [-np.inf if up else np.inf] + [
        min(D[s - 1, :s]) if up else max(D[s - 1, :s]) for s in range(1, n)]
    forbidden = set()
    for s in range(n):
        for e in range(s, n):
            d = D[e, s]
            if up:
                dead = (succ[e] < d + min_diff - EPS
                        or pred[s] > d - min_diff + EPS)
            else:
                dead = (succ[e] > d - min_diff + EPS
                        or pred[s] < d + min_diff - EPS)
            if dead:
                forbidden.add((s, e))
    return frozenset(forbidden)


def _presolve_inputs():
    rng = np.random.default_rng(12)
    for i in range(60):
        n = int(rng.integers(1, 16))
        yield random_binary_agg(rng, n).D                    # random
        yield binary_agg(rng.integers(1, 3, size=n),         # many exact ties
                         rng.integers(1, 3, size=n)).D
        yield np.tril(_near_ties(rng, (n, n)))               # ties within EPS


def test_presolve_matches_a_loop_reference():
    for i, D in enumerate(_presolve_inputs()):
        for kind in ("ascending", "descending"):
            min_diff = MIN_DIFFS[i % 3]
            got = presolve_monotonic(D, TrendSpec(kind), min_diff).forbidden
            assert got == _presolve_loop(D, kind == "ascending", min_diff), \
                (i, kind)


# --------------------------------------------------------------------------- #
# the branch and bound's gates against the whole-sequence check
# --------------------------------------------------------------------------- #

def _gate_accepts(rates, intervals, trend, min_diff):
    """Fold the branch and bound's gate for ``trend`` over the bins."""
    gate = _gate(trend, intervals[-1][1] + 1, min_diff)
    if gate is None:
        return True
    step, state = gate
    for d, (_, e) in zip(rates, intervals):
        state = step(state, d, e)
        if state is None:
            return False
    return True


@pytest.mark.parametrize("kind, rates, min_diff", [
    ("concave", [0.30000000000099997, 0.30000000000099997, 0.300000000002],
     0.0),
    ("convex", [0.300000000003, 0.30000000000099997, 0.3, 0.299999999999,
                0.299999999998], 1e-12),
])
def test_curvature_gate_takes_the_oracles_ties(kind, rates, min_diff):
    intervals = tuple((i, i) for i in range(len(rates)))
    assert check_trend(rates, TrendSpec(kind), min_diff)
    assert _gate_accepts(rates, intervals, TrendSpec(kind), min_diff)


@pytest.mark.parametrize("kind, sign", [("concave", 1), ("convex", -1)])
def test_curvature_gate_keeps_pairs_that_may_still_reject(kind, sign):
    # bin 1's pair rejects the last rate and bin 2's, whose rate is half an
    # EPS further out, does not: bin 1's pair must outlive bin 2
    rates = [0.3, 0.3, 0.3 + sign * EPS / 2, 0.3 + sign * 1.5 * EPS]
    intervals = tuple((i, i) for i in range(len(rates)))
    assert not check_trend(rates, TrendSpec(kind))
    assert not _gate_accepts(rates, intervals, TrendSpec(kind), 0.0)


@st.composite
def _binned_rates(draw, family):
    """Bins of 1-3 pre-bins whose rates sit on a lattice of EPS, EPS/2 or
    EPS/4 around 0.3, half of the time spread over 0.001 steps too."""
    widths = draw(st.lists(st.integers(1, 3), min_size=1, max_size=6))
    fine = EPS / draw(st.sampled_from((1, 2, 4)))
    coarse = draw(st.sampled_from((0.0, 0.001)))
    steps = st.tuples(st.integers(-1, 1), st.integers(-4, 4))
    rates = [0.3 + j * coarse + k * fine
             for j, k in draw(st.lists(steps, min_size=len(widths),
                                       max_size=len(widths)))]
    ends = np.cumsum(widths).tolist()
    intervals = tuple(zip([0] + ends[:-1], [end - 1 for end in ends]))
    kind, _, pinned = family.partition(":")
    t = draw(st.integers(0, ends[-1] - 1)) if pinned else None
    return rates, intervals, TrendSpec(kind, t)


@pytest.mark.parametrize("family", [f for f in TREND_FAMILIES if f != "auto"])
def test_gates_accept_exactly_what_the_oracle_accepts(family):
    # every min_diff, on every prefix that holds the pinned change point
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(_binned_rates(family))
    def check(case):
        rates, intervals, trend = case
        for m in range(1, len(rates) + 1):
            if (trend.change_point or 0) > intervals[m - 1][1]:
                continue
            for min_diff in MIN_DIFFS:
                assert _gate_accepts(rates[:m], intervals[:m], trend,
                                     min_diff) == \
                    _trend_feasible(intervals[:m], rates[:m], trend, min_diff)

    check()


# --------------------------------------------------------------------------- #
# concave/convex as the completion bound reads them
# --------------------------------------------------------------------------- #

@st.composite
def _curved_rates(draw):
    """Rates on a lattice around a base of any magnitude and sign, with a
    step of a fraction of EPS or of the base's own spacing."""
    base = draw(st.sampled_from((0.3, 1.0, 4095.0, 4096.0, 12345.678, 1e6,
                                 1e9))) * draw(st.sampled_from((1, -1)))
    step = draw(st.sampled_from((EPS / 4, EPS / 2, EPS, 2 * EPS,
                                 float(np.spacing(base)),
                                 2 * float(np.spacing(base)))))
    ks = draw(st.lists(st.integers(-3, 3), min_size=2, max_size=7))
    return [base + k * step for k in ks]


@pytest.mark.parametrize("kind", ["concave", "convex"])
def test_curves_are_chains_with_gap_zero(kind):
    # every sequence check_trend passes splits at its first extreme into
    # chains whose adjacent bins _follows with gap 0, which is what the
    # completion bound enforces for concave (peak) and convex (valley)
    up = kind == "concave"

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(_curved_rates())
    def check(rates):
        if not check_trend(rates, TrendSpec(kind)):
            return
        p = rates.index(max(rates) if up else min(rates))
        for i in range(len(rates) - 1):
            assert _follows(rates[i], rates[i + 1], up == (i < p), 0.0), \
                (rates, i)

    check()
