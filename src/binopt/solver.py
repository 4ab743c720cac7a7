"""Exact constrained bin-merging solver.

Searches over all partitions of the pre-bins into contiguous intervals for the
one maximizing total divergence (binary / multi-class targets) or minimizing
total mean deviation (continuous targets), subject to:

- bin-count bounds,
- per-bin record / non-event / event count bounds,
- a trend shape on the sequence of bin event rates or means (monotonic,
  concave/convex, peak/valley with free or pinned change point, or automatic
  trend selection),
- minimum rate separation between bins (``min_diff``),
- a two-proportion z-test separation constraint between adjacent bins,
- an optional concentration penalty (std / HHI / max-min of bin sizes) scaled
  by ``gamma`` and folded into the objective.

Every search maximizes one gain (``_gain_matrix``): the divergence, or a
continuous target's deviation negated.  IEEE negation is exact, so each sum,
bound and key is the deviation's own negated.  The objective goes back to its
own units as ``0.0 - gain`` (``_in_units``, which keeps a zero deviation
``0.0``) in ``evaluate_partition`` and where ``_resolve`` finishes an answer.

Monotone and peak/valley trends are read as chains of bin rates (``_chain``),
and one threshold rule (``_follows``) says whether a rate may follow another:
the oracle's ``check_trend``, presolve, the completion bound and the search's
per-bin gates all compare rates through it.

Every search reads one context (``_tables``): the bins the count bounds
allow, each bin's gain, rate and record count, and the p-value masks, built
once per aggregate set, set of bound values or level.  No presolve runs on
the search path, as the completion bound's adjacent-bin checks rule out every
bin it would mask.

The search is a depth-first branch and bound over "next interval" choices that
checks each trend bin by bin as the path grows; a free peak/valley turns at
the first bin that cannot extend its first chain.  Each node ranks its
children by their cut keys and visits the best first.  A key is the path sum
plus a completion bound from one vectorized interval DP
(``_completion_bound``), which enforces the per-bin and adjacent-bin
constraints and reads concave/convex as peak/valley chains, plus a floor on
the concentration penalty (``_std_floor`` for std).  A leaf is scored by
``_objective``, as ``evaluate_partition`` scores it, and the returned
partition's recheck must give the same objective (``==``).
A brute-force enumerator with independent whole-partition checks
(``brute_force_oracle``) provides reference semantics for testing; both rank
partitions by one key (``_rank_key``): greater gain, then fewer bins, then
lexicographically earliest interval start vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .core import (
    BinningConfig, Solution, TargetKind, TrendSpec, validate_config,
    InvalidConfigError,
    TREND_NONE, ASCENDING, DESCENDING, CONCAVE, CONVEX, PEAK, VALLEY, AUTO,
    CONC_OFF, CONC_STD, CONC_HHI, CONC_MAXMIN,
    OPTIMAL, INFEASIBLE, TIME_LIMIT,
)
from . import aggregate
from .aggregate import AggregateSet, PValuePairs

# Tolerance for rate comparisons: exact ties (equal rates from symmetric
# counts) must count as non-strict satisfaction of <=/>= trend constraints.
EPS = 1e-12

_NEG_INF = float("-inf")
_POS_INF = float("inf")


# --------------------------------------------------------------------------- #
# trend chains and whole-sequence trend predicates (the oracle's route)
# --------------------------------------------------------------------------- #

def _follows(ref, d, up: bool, beta: float):
    """May rate ``d`` come after rate ``ref`` in an ascending (``up``) or
    descending chain with gap ``beta``?  A shortfall of up to ``EPS`` passes.
    Works the same on floats and, elementwise, on numpy arrays."""
    return d >= ref + beta - EPS if up else d <= ref - beta + EPS


def _chain(trend: TrendSpec, n: int):
    """A monotone or peak/valley trend over ``n`` pre-bins as
    ``(first_up, t)``: the bins up to the one holding pre-bin ``t`` form a
    chain, ascending when ``first_up``, and that bin and the ones after it
    form the opposite chain.  Monotone trends have ``t = n`` (one chain), a
    free peak or valley ``t = -1`` (any bin may be the change bin).  None for
    the other trends."""
    if trend.kind in (ASCENDING, DESCENDING):
        return trend.kind == ASCENDING, n
    if trend.kind in (PEAK, VALLEY):
        t = trend.change_point
        return trend.kind == PEAK, -1 if t is None else t
    return None


def _chain_len(rates, up: bool, min_diff: float) -> int:
    """How many leading rates form a chain, each following every earlier
    one.  The running maximum (minimum) stands for all earlier rates,
    because the threshold ``fl(fl(x + min_diff) - EPS)`` is monotone in x."""
    ref = _NEG_INF if up else _POS_INF
    for i, d in enumerate(rates):
        if not _follows(ref, d, up, min_diff):
            return i
        if d > ref if up else d < ref:
            ref = d
    return len(rates)


def _splits(rates, p: int, up: bool, min_diff: float) -> bool:
    """Does bin p split the rates into a chain rates[:p+1], ascending when
    ``up``, and the opposite chain rates[p:]?"""
    return (p < _chain_len(rates, up, min_diff)
            and _chain_len(rates[p:], not up, min_diff) == len(rates) - p)


def _change_bin(rates, up: bool, min_diff: float):
    """The first bin that ``_splits`` the rates; None when no bin does."""
    return next((p for p in range(len(rates))
                 if _splits(rates, p, up, min_diff)), None)


def check_trend(rates, trend: TrendSpec, min_diff: float = 0.0) -> bool:
    """Does a complete sequence of bin rates satisfy the trend shape?

    Monotone trends need every bin to follow every earlier bin with the
    ``min_diff`` separation; concave/convex is checked over all index triples
    (a, b, c): 2*rates[b] >= rates[a] + rates[c] for concave (mirrored for
    convex), with no ``min_diff``.  Peak (valley) holds when some bin p splits
    the sequence into an ascending chain rates[:p+1] and a descending chain
    rates[p:] (mirrored), ``min_diff`` applying within each phase; a pinned
    change point is a solver-side restriction, so here it checks the same
    shape.
    """
    rates = list(rates)
    m = len(rates)
    kind = trend.kind
    if kind == TREND_NONE:
        return True
    if kind in (ASCENDING, DESCENDING):
        return _chain_len(rates, kind == ASCENDING, min_diff) == m
    if kind in (CONCAVE, CONVEX):
        sign = 1.0 if kind == CONCAVE else -1.0
        for b in range(1, m - 1):
            mid = 2.0 * sign * rates[b]
            for a in range(b):
                for c in range(b + 1, m):
                    if mid + EPS < sign * (rates[a] + rates[c]):
                        return False
        return True
    if kind in (PEAK, VALLEY):
        return _change_bin(rates, kind == PEAK, min_diff) is not None
    raise InvalidConfigError(
        ["check_trend needs a concrete trend; got {!r}".format(kind)])


def _locate_bin(intervals, prebin: int) -> int:
    for idx, (s, e) in enumerate(intervals):
        if s <= prebin <= e:
            return idx
    raise ValueError("pre-bin {} not covered by intervals".format(prebin))


def _trend_feasible(intervals, rates, trend: TrendSpec, min_diff: float) -> bool:
    """check_trend, plus exact change-point pinning when one is given."""
    if trend.kind in (PEAK, VALLEY) and trend.change_point is not None:
        t = trend.change_point
        if not intervals or t > intervals[-1][1]:
            return False
        return _splits(rates, _locate_bin(intervals, t), trend.kind == PEAK,
                       min_diff)
    return check_trend(rates, trend, min_diff)


# --------------------------------------------------------------------------- #
# constraint pieces shared by solver, oracle and recheck
# --------------------------------------------------------------------------- #

def concentration_penalty(intervals, R, kind: str) -> float:
    """Concentration of records across bins: sample std, HHI, or max-min.

    Computed on total record counts per bin.  A single bin has zero std by
    convention.  Always nonnegative.
    """
    return _penalty([float(R[e, s]) for s, e in intervals], kind)


def _penalty(counts, kind: str) -> float:
    """``concentration_penalty`` of the bins' record counts, in bin order."""
    if kind == CONC_OFF:
        return 0.0
    if kind == CONC_STD:
        m = len(counts)
        if m <= 1:
            return 0.0
        mean = sum(counts) / m
        return math.sqrt(sum((c - mean) ** 2 for c in counts) / (m - 1))
    if kind == CONC_HHI:
        total = sum(counts)
        return sum(c * c for c in counts) / (total * total)
    if kind == CONC_MAXMIN:
        return max(counts) - min(counts)
    raise ValueError("unknown concentration kind {!r}".format(kind))


def apply_pvalue_constraint(intervals, pairs: PValuePairs | None) -> bool:
    """True iff no two adjacent bins form an insufficiently-separated pair."""
    if pairs is None:
        return True
    masks = pairs.masks
    for (s1, e1), (s2, e2) in zip(intervals, intervals[1:]):
        if s2 == e1 + 1 and masks[s2][s1, e2 - s2]:
            return False
    return True


def _resolved_trends(agg: AggregateSet, cfg: BinningConfig):
    """One concrete-or-auto TrendSpec per rate matrix (1 or n_classes)."""
    if agg.target.is_multiclass:
        k = agg.target.n_classes
        if isinstance(cfg.trend, TrendSpec):
            return (cfg.trend,) * k
        if len(cfg.trend) != k:
            raise InvalidConfigError(
                ["need one trend per class ({}); got {}".format(k, len(cfg.trend))])
        return tuple(cfg.trend)
    if not isinstance(cfg.trend, TrendSpec):
        raise InvalidConfigError(
            ["a tuple of trends is only valid for multi-class targets"])
    return (cfg.trend,)


def _bin_bounds(agg: AggregateSet, cfg: BinningConfig):
    """(matrix, lo, hi) for each per-bin count bound: records, and for binary
    targets non-events and events.  An unset bound is 0 below, inf above."""
    bounds = [(agg.R, cfg.min_bin_size, cfg.max_bin_size)]
    if agg.R_ne is not None:
        bounds += [(agg.R_ne, cfg.min_nonevent, cfg.max_nonevent),
                   (agg.R_e, cfg.min_event, cfg.max_event)]
    return [(mat, lo or 0, _POS_INF if hi is None else hi)
            for mat, lo, hi in bounds]


def _gain_matrix(agg: AggregateSet) -> np.ndarray:
    """The gain of each bin, which every search maximizes: its divergence,
    or a continuous target's deviation negated."""
    obj = agg.objective_matrix()
    return -obj if agg.target.is_continuous else obj


def _in_units(agg: AggregateSet, gain: float) -> float:
    """A gain in the objective's own units.  ``0.0 - gain`` turns a zero
    deviation into ``0.0``, where a unary minus would give ``-0.0``."""
    return 0.0 - gain if agg.target.is_continuous else gain


@dataclass(frozen=True)
class _Tables:
    """What the whole-partition checks, the objective and the exact search
    read for one ``(agg, cfg, pairs)``.  Each table is a nested list indexed
    ``[e][s]``, like the matrix it copies, so scoring a bin is one list
    lookup."""

    cfg: BinningConfig
    pvalue: PValuePairs | None
    trends: tuple          # one TrendSpec per rate matrix
    chains: list           # each trend as the completion bound enforces it
    b_max: int
    gamma: float           # the penalty weight; 0 when no penalty applies
    obj: list              # gain of bin s..e
    rates: tuple           # one table per rate matrix
    records: list          # record count of bin s..e, for the penalty
    bad: list              # how many per-bin count bounds bin s..e breaks
    ok: np.ndarray         # ok[s, e]: bin s..e breaks none (read-only)
    ends: list             # ends[s]: the e with ok[s, e], ascending


def _tables(agg: AggregateSet, cfg: BinningConfig,
            pairs: PValuePairs | None) -> _Tables:
    """The tables of ``(agg, cfg, pairs)``.

    The copied matrices are built once per aggregate set, and the bound
    counts with the allowed bins once per set of bound values; both are kept
    in ``agg.lookups``, so a search, the recheck of its answer and later
    searches with other trends share them.  With no ``pairs`` given, a set
    with event counts (a binary target) takes the masks of
    ``cfg.max_pvalue``, built once per level and kept there too; other sets
    have no separation to check.
    """
    memo = agg.lookups
    if pairs is None and cfg.max_pvalue is not None and agg.R_ne is not None:
        level = ("pvalue", cfg.max_pvalue)
        if level not in memo:
            # through the module, where the benchmark's tracer wraps it
            memo[level] = aggregate.pvalue_pairs(agg.R_ne, agg.R_e,
                                                 cfg.max_pvalue)
        pairs = memo[level]
    if "lists" not in memo:
        memo["lists"] = (_gain_matrix(agg).tolist(),
                         tuple(mat.tolist() for mat in agg.rate_matrices()),
                         agg.R.tolist())
    obj, rates, records = memo["lists"]
    bounds = _bin_bounds(agg, cfg)
    key = tuple((lo, hi) for _, lo, hi in bounds)
    if key not in memo:
        bad = np.zeros((agg.n, agg.n), dtype=np.intp)
        for mat, lo, hi in bounds:
            bad += ~((mat >= lo) & (mat <= hi))
        ok = np.triu(bad.T == 0)
        ok.flags.writeable = False
        memo[key] = (bad.tolist(), ok,
                     [[e for e, good in enumerate(row) if good]
                      for row in ok.tolist()])
    bad, ok, ends = memo[key]
    trends = _resolved_trends(agg, cfg)
    return _Tables(
        cfg=cfg, pvalue=pairs, trends=trends,
        chains=_bound_chains(trends, agg.n, cfg.min_diff),
        b_max=cfg.max_bins if cfg.max_bins is not None else agg.n,
        gamma=cfg.gamma if cfg.concentration != CONC_OFF else 0.0,
        obj=obj, rates=rates, records=records, bad=bad, ok=ok, ends=ends)


def _violated_groups(intervals, tab: _Tables):
    """Yield a positive weight for each constraint group a partition breaks.

    The weights are the bins short of or over the bin-count bounds, the
    per-bin count bounds each bin breaks, and 1 for each rate matrix whose
    trend fails and for a broken p-value separation.  Their sum is the
    violation count the local search descends on; the bin-bound group
    yields per bin, so that ``evaluate_partition`` stops at the first bad
    bin.  Trends must be concrete.
    """
    cfg = tab.cfg
    m = len(intervals)
    if m < cfg.min_bins:
        yield cfg.min_bins - m
    if m > tab.b_max:
        yield m - tab.b_max
    bad = tab.bad
    for s, e in intervals:
        if bad[e][s]:
            yield bad[e][s]
    for table, trend in zip(tab.rates, tab.trends):
        rates = [table[e][s] for s, e in intervals]
        if not _trend_feasible(intervals, rates, trend, cfg.min_diff):
            yield 1
    if not apply_pvalue_constraint(intervals, tab.pvalue):
        yield 1


def _objective(intervals, tab: _Tables):
    """The bins' gains summed in path order, less the weighted concentration
    penalty."""
    obj = tab.obj
    total = 0.0
    for s, e in intervals:
        total += obj[e][s]
    if tab.gamma:
        records = tab.records
        return _penalized(total, [records[e][s] for s, e in intervals], tab)
    return total


def _penalized(total: float, counts, tab: _Tables) -> float:
    """``total`` less the weighted concentration penalty of bins with record
    ``counts``, in bin order."""
    return total - tab.gamma * _penalty(counts, tab.cfg.concentration)


def evaluate_partition(intervals, agg: AggregateSet, cfg: BinningConfig,
                       pairs: PValuePairs | None = None):
    """Direct whole-partition feasibility check and objective.

    Returns (feasible, objective), in the objective's units, not as a gain.
    This is the reference scorer: it looks at the complete partition with no
    incremental state, and is what the returned-solution rechecks of the
    exact solver and the local search use.  A contiguous cover is feasible
    when ``_violated_groups`` yields nothing.  Trends must be concrete.
    """
    intervals = tuple(intervals)
    if not intervals or intervals[0][0] != 0 or intervals[-1][1] != agg.n - 1:
        return False, math.nan
    for (s1, e1), (s2, e2) in zip(intervals, intervals[1:]):
        if e1 + 1 != s2:
            return False, math.nan
    tab = _tables(agg, cfg, pairs)
    if next(_violated_groups(intervals, tab), 0):
        return False, math.nan
    return True, _in_units(agg, _objective(intervals, tab))


# --------------------------------------------------------------------------- #
# presolve
# --------------------------------------------------------------------------- #

@dataclass(frozen=True)
class PresolveMask:
    """Intervals excluded from branching: (start, end) pairs fixed to zero."""

    forbidden: frozenset


def presolve_monotonic(D, trend: TrendSpec, min_diff: float = 0.0) -> PresolveMask:
    """Mask intervals that no monotone-feasible partition can contain.

    For ascending trends, the interval s..e (with e not last) needs a
    successor bin whose rate ``_follows`` its own; the best any successor
    starting at e+1 can offer is max_f D[f, e+1].  Symmetrically, a non-first
    interval needs a predecessor ending at s-1 whose rate its own follows;
    the best available is min_g D[s-1, g].  An interval failing either
    comparison appears in no feasible solution, so masking it is sound under
    any constraint mix.  Descending is the mirror image.  Empty for other
    trends.  The exact search does not apply it: the completion bound's
    adjacent-bin checks already rule out every bin it masks.
    """
    if trend.kind not in (ASCENDING, DESCENDING):
        return PresolveMask(forbidden=frozenset())
    n = D.shape[0]
    up = trend.kind == ASCENDING
    lo, hi = (_NEG_INF, _POS_INF) if up else (_POS_INF, _NEG_INF)
    lower = np.tri(n, dtype=bool)                 # D[e, s] is bin s..e
    # succ[e]: the best rate of a bin starting at e+1 (hi after the last);
    # pred[s]: the best rate of a bin ending at s-1 (lo before the first)
    succ = (np.max if up else np.min)(np.where(lower, D, lo), axis=0)
    pred = (np.min if up else np.max)(np.where(lower, D, hi), axis=1)
    succ = np.append(succ[1:], hi)
    pred = np.insert(pred[:-1], 0, lo)
    dead = lower & ~(_follows(D, succ[:, None], up, min_diff)
                     & _follows(D, pred[None, :], not up, min_diff))
    ends, starts = np.nonzero(dead)
    return PresolveMask(forbidden=frozenset(zip(starts.tolist(), ends.tolist())))


# --------------------------------------------------------------------------- #
# per-bin trend gates for the branch and bound
# --------------------------------------------------------------------------- #

def _gate(trend: TrendSpec, n: int, beta: float):
    """One rate matrix's trend as ``(step, state)`` for the branch and bound:
    ``step(state, d, e)`` takes the rate ``d`` of the next bin, which ends at
    pre-bin ``e``, and returns the next state, or None when no completion of
    the path can meet the trend.  None for trend none."""
    if trend.kind == TREND_NONE:
        return None
    chain = _chain(trend, n)
    if chain is None:
        sign = 1.0 if trend.kind == CONCAVE else -1.0
        return partial(_curve_step, sign), (-sign * _POS_INF, None, ())
    first_up, t = chain
    return (partial(_chain_step, first_up, t, beta),
            (False, _NEG_INF if first_up else _POS_INF))


def _chain_step(first_up: bool, t: int, beta: float, state, d: float, e: int):
    """One bin on a ``_chain`` trend.  The state is (in the second chain?, the
    running maximum or minimum of the current chain).  A free change point
    falls on the previous bin when ``d`` cannot extend the first chain."""
    second, ref = state
    up = first_up != second
    if _follows(ref, d, up, beta):
        if not second and 0 <= t <= e:            # the pinned change bin
            return True, d
        return second, (max(ref, d) if up else min(ref, d))
    if t < 0 and not second and _follows(ref, d, not up, beta):
        return True, d
    return None


def _curve_step(sign: float, state, d: float, e: int):
    """One bin on a concave (``sign`` 1) or convex (-1) trend, compared in
    ``check_trend``'s form.  The state is (the highest or lowest rate before
    the last bin, the last bin's rate, one ``(2*sign*r_b + EPS, that extreme
    before b)`` pair per middle bin b).  The extreme stands for every rate
    before b, because rounding ``r_a + d`` is monotone in ``r_a``."""
    ext, last, mids = state
    if last is not None:
        mids += ((2.0 * sign * last + EPS, ext),)
        ext = max(ext, last) if sign > 0 else min(ext, last)
    for mid, before in mids:
        if mid < sign * (before + d):
            return None
    return ext, d, mids


# --------------------------------------------------------------------------- #
# the completion bound
# --------------------------------------------------------------------------- #

# The completion bound follows the change bins of at most this many free
# chains (free peaks/valleys, concave/convex), since its table doubles with
# each, and relaxes the others.
_PHASE_BITS = 2


def _bound_chains(trends, n: int, min_diff: float):
    """Each trend as the completion bound enforces it: ``(first_up, t,
    gap)``, the ``_chain`` with gap ``min_diff`` for monotone and peak/valley
    trends, and for concave (convex) a free peak (valley) chain with gap 0.
    None for trend none and for the free chains beyond the first
    ``_PHASE_BITS``, which the bound relaxes.

    The curve chains are sound.  Let p be the first maximum of a concave
    sequence r that ``check_trend`` passes.  For i + 1 < p its triple
    (i, i+1, p) gives fl(2*r[i+1] + EPS) >= fl(r[i] + r[p]) >= 2*r[i], since
    rounding is monotone and r[p] >= r[i]; past p, the triple (p, i, i+1)
    gives fl(2*r[i] + EPS) >= 2*r[i+1].  Doubling is exact, so
    fl(2*x + EPS) = 2*fl(x + EPS/2).  Then fl(r[i+1] + EPS/2) >= r[i], and a
    float rounds to at least r[i] only from r[i] - g/2 or above, g being the
    gap below r[i]: with g <= EPS that puts r[i+1] at r[i] - EPS or above,
    and with g > EPS above r[i] - g, so at r[i] or above.  Either way
    r[i+1] >= fl(r[i] - EPS), which is ``_follows`` with gap 0 ascending;
    and r[i+1] <= fl(r[i] + EPS/2) <= fl(r[i] + EPS) descending.  This holds
    for rates of any magnitude and sign, and convex is the same argument on
    the negated rates, which ``check_trend`` and ``_follows`` round alike.
    """
    chains = []
    for tr in trends:
        chain = _chain(tr, n)
        if chain is not None:
            chain += (min_diff,)
        elif tr.kind in (CONCAVE, CONVEX):
            chain = (tr.kind == CONCAVE, -1, 0.0)
        chains.append(chain)
    free = [i for i, chain in enumerate(chains) if chain and chain[1] < 0]
    for i in free[_PHASE_BITS:]:
        chains[i] = None
    return chains


def _completion_bound(agg: AggregateSet, tab: _Tables):
    """Bound on the best completion of every partial partition: an interval DP.

    ``G[s, p, r, ph]`` is the greatest gain sum over ways to cover pre-bins
    s..n-1 with at most ``r`` bins, right after a bin that starts at pre-bin
    ``p`` (``p`` is 0 when s is 0) and has phase ``ph``, and -inf when no way
    exists.  Bit i of the phase turns from 0 to 1, never back, after
    the change bin of the i-th free chain that ``tab.chains`` keeps.  The
    DP enforces the bins allowed by ``tab.ok``, ``max_bins``, and every check
    between two adjacent bins: p-value separation, by ANDing the negated mask
    ``tab.pvalue.masks[s]`` into the (previous start, end) pairs it allows at each
    boundary s, and on each rate matrix with a kept chain, that each bin
    ``_follows`` the one before it in its chain's direction with the chain's
    gap (weaker than whole chains, as a bound must be).  A concave (convex)
    trend is kept as a peak (valley) chain with gap 0, which every concave
    (convex) sequence is.  The bound relaxes ``min_bins``, the rest of
    concave/convex, the free chains beyond ``_PHASE_BITS`` and the std and
    max-min penalties, which the search floors on its own, and charges each
    bin its own HHI share ``gamma * R**2 / T**2``, which is exact.  With
    nothing relaxed, the bound is the optimum.

    Table size is (n + 1) * n * (B + 1) * 2**f with B = ``max_bins`` and f
    kept free chains; the ``r`` axis has length 1 when ``max_bins`` is
    None.
    """
    n, cfg = agg.n, tab.cfg
    val = _gain_matrix(agg).T                     # val[s, e]: bin s..e
    if cfg.concentration == CONC_HHI and cfg.gamma:
        share = agg.R.T / agg.R[n - 1, 0]         # gamma * R**2 could overflow
        val = val - cfg.gamma * (share * share)
    val = np.where(tab.ok, val, _NEG_INF)

    # adjacent-bin trend checks on each rate matrix with a chain: a bin
    # follows its predecessor in the first chain's direction while it starts
    # at or before a pinned t or has a free chain's phase bit 0
    chains = [(mat,) + chain
              for mat, chain in zip(agg.rate_matrices(), tab.chains)
              if chain is not None]
    phases = 1 << sum(t < 0 for _, _, t, _ in chains)
    masks = tab.pvalue.masks if tab.pvalue is not None else ()

    width = cfg.max_bins + 1 if cfg.max_bins is not None else 1
    G = np.full((n + 1, n, width, phases), _NEG_INF)
    G[n] = 0.0
    for s in range(n - 1, -1, -1):
        tail = G[s + 1:, s]                       # after bin s..e, for every e
        if width == 1:
            w = val[s, s:, None, None] + tail
        else:
            w = np.full((n - s, width, phases), _NEG_INF)
            w[:, 1:] = val[s, s:, None, None] + tail[:, :-1]
        if s == 0 or not (chains or masks):
            G[s] = np.maximum.reduce(w[..., :1], axis=0)  # first bin: phase 0
            continue
        allowed = ~masks[s] if masks else True    # allowed[p, e - s]
        turns = []                                # per free chain: by its bit
        for mat, first_up, t, gap in chains:      # bin p..s-1, then bin s..e
            ways = [_follows(mat[s - 1, :s, None], mat[s:, s], first_up != b,
                             gap) for b in ((s > t,) if t >= 0 else (0, 1))]
            if t >= 0:
                allowed = allowed & ways[0]
            else:
                turns.append(ways)
        for ph in range(phases):
            a = allowed
            for i, ways in enumerate(turns):
                a = a & ways[ph >> i & 1]
            G[s, :s, :, ph] = np.maximum.reduce(
                np.where(a[..., None], w[..., ph], _NEG_INF), axis=1)
        # after a bin of phase ph, a bin of any phase holding ph may follow
        for i in range(len(turns)):
            h = G[s, :s].reshape(s, width, -1, 2, 1 << i)
            np.maximum(h[..., 0, :], h[..., 1, :], out=h[..., 0, :])
    return G


def _least_squares(agg: AggregateSet, tab: _Tables, width: int):
    """``Q[s, r]``: the least sum of squared record counts over the covers of
    pre-bins s..n-1 by exactly r bins that ``tab.ok`` allows, inf when there
    is none.  ``r`` runs up to ``width - 1``."""
    n = agg.n
    sq = np.where(tab.ok, agg.R.T * agg.R.T, _POS_INF)  # sq[s, e]: bin s..e
    Q = np.full((n + 1, width), _POS_INF)
    Q[n, 0] = 0.0
    for s in range(n - 1, -1, -1):
        Q[s, 1:] = np.min(sq[s, s:, None] + Q[s + 1:, :-1], axis=0)
    return Q


def _std_floor(Q, starts, sq, used: int, total: float, b_min: int, b_max):
    """A floor on the sample std of the bins' record counts, for each node
    ``k`` with its next bin at ``starts[k]`` after ``used`` bins whose counts
    have squares summing to ``sq[k]``: the least over the allowed bin counts
    m of sqrt((sum c**2 - T**2/m) / (m - 1)), with the least completion
    ``Q`` (``_least_squares``), as T is fixed.  0 when m = 1 is allowed,
    inf when no m is.

    The floor must not exceed the penalty ``_penalty`` computes, even for a
    variance near 0, where rounding error is all there is.  With u = 2**-53
    and S = ``sq + Q`` (at least T**2/m): the m squares and sums in S, T**2,
    the division by m and the subtraction put ``S - T**2/m`` at most
    (2m + 4) u S above its exact value, and ``_penalty``'s two-pass sum of
    squared deviations falls at most (m + 3) u below its exact value, which
    costs at most 2(m + 3) u S on any completion whose own S is within twice
    the least (a larger one has that much variance to spare).  Lowering S by
    (m + 4) * 2**-51 of itself, (4m + 16) u S, covers both; the division and
    the sqrt round monotonically.
    """
    r_lo = max(1, b_min - used)
    r_hi = Q.shape[1] - 1 if b_max is None else min(Q.shape[1] - 1, b_max - used)
    if r_lo > r_hi:
        return np.full(len(starts), _POS_INF)
    m = np.arange(used + r_lo, used + r_hi + 1, dtype=float)
    S = np.asarray(sq)[:, None] + Q[starts, r_lo:r_hi + 1]
    var = S * (1.0 - (m + 4.0) * 2.0 ** -51) - total * total / m
    return np.min(np.sqrt(np.maximum(var, 0.0) / np.maximum(m - 1.0, 1.0)),
                  axis=1)


# --------------------------------------------------------------------------- #
# the branch and bound
# --------------------------------------------------------------------------- #

def _rank_key(intervals, gain: float):
    """The order that picks the answer among feasible partitions: greater
    gain, then fewer bins, then the lexicographically earliest start vector,
    smallest key first.  The exact search and the oracle both rank by it."""
    return -gain, len(intervals), tuple(s for s, _ in intervals)


def _branch_and_bound(agg: AggregateSet, tab: _Tables):
    """Best-first depth-first search on an explicit stack, so a table of any
    depth solves.  Returns (intervals, gain) of the best feasible
    partition by ``_rank_key``, or None.  Every trend of ``tab`` must be
    concrete; only the bins of ``tab.ends`` may appear.

    A node is a path of bins and the start ``s`` of its next bin.  When a
    node is first visited its children, one per end of the next bin, pass
    the p-value check against the last bin and each trend's ``_gate``.  The
    leaf among them, the bin that ends at the last pre-bin, is scored at
    once by ``_objective``.  Each other child gets the key its cut compares:
    ``-(path sum + G)`` plus the floor of the concentration penalty, with
    ``G`` from ``_completion_bound``, so a larger key is worse.  A
    child is dropped when it cannot reach ``min_bins`` or the key says no
    completion exists.  The others are pushed one at a time, best key first,
    each when the one before it is done, and the node ends at the first
    child whose key reaches the incumbent's plus a 1e-9 relative margin, so
    a path that could tie is never cut.  Since the
    incumbent is chosen by ``_rank_key``, the answer does not depend on the
    visit order.

    The penalty floor is the part the path already fixes: the path's HHI
    shares (the bound charges the rest bin by bin), the path's max-min
    spread, or ``_std_floor``.  The bound is read at the phase the gates of
    the free peaks/valleys it keeps reached, and at phase 0 for the chains
    of concave/convex; phase 0 is sound because it may still turn.
    """
    n, cfg, pairs = agg.n, tab.cfg, tab.pvalue
    obj, records, ends = tab.obj, tab.records, tab.ends

    b_min = cfg.min_bins
    b_max = cfg.max_bins
    gamma = tab.gamma
    conc = cfg.concentration if gamma else CONC_OFF
    total = records[n - 1][0]
    total_sq = total * total                      # for HHI shares

    G = _completion_bound(agg, tab)
    if conc == CONC_STD:
        Q = _least_squares(agg, tab, min(b_max or n, n) + 1)

    gates, init_states, free = [], [], []
    bits = 0
    for tr, table, chain in zip(tab.trends, tab.rates, tab.chains):
        gate = _gate(tr, n, cfg.min_diff)
        if gate is None:
            continue
        if chain and chain[1] < 0:
            if tr.kind in (PEAK, VALLEY):         # curve chains: read at phase 0
                free.append((bits, len(gates)))   # (phase bit, gate)
            bits += 1
        gates.append((gate[0], table))
        init_states.append(gate[1])

    path, counts = [], []                         # the bins and their record counts
    incumbent = None                              # (rank key, intervals, gain)
    limit = _POS_INF                              # keys from here on are cut
    stack = [(0, init_states, 0.0, None)]         # (start, states, path sum, children)
    while stack:
        s, states, v_sum, children = stack.pop()
        if children is None:                      # first visit: rank the children
            used = len(path)
            bound = G[:, s, b_max - used - 1 if b_max else 0].tolist()
            # blocked[e - s]: bin s..e may not follow the path's last bin
            blocked = (pairs.masks[s][path[-1][0]].tolist()
                       if pairs is not None and path else ())
            ranked = []
            for e in ends[s]:
                if blocked and blocked[e - s]:
                    continue
                new_states = []
                for (step, table), state in zip(gates, states):
                    state = step(state, table[e][s], e)
                    if state is None:
                        break
                    new_states.append(state)
                else:
                    if e == n - 1:
                        leaf = (*path, (s, e))
                        if len(leaf) >= b_min:
                            gain = _objective(leaf, tab)
                            key = _rank_key(leaf, gain)
                            if incumbent is None or key < incumbent[0]:
                                incumbent = (key, leaf, gain)
                                limit = key[0] + 1e-9 * max(1.0, abs(gain))
                    elif used + n - e >= b_min:     # bins enough left
                        ph = (sum(new_states[i][0] << b for b, i in free)
                              if free else 0)
                        v = v_sum + obj[e][s]
                        ranked.append((-(v + bound[e + 1][ph]), e,
                                       new_states, v))
            if conc != CONC_OFF and ranked:      # add the penalty floors
                cs = [records[e][s] for _, e, _, _ in ranked]
                if conc == CONC_MAXMIN:
                    lo = min(counts, default=_POS_INF)
                    hi = max(counts, default=0.0)
                    floors = [max(hi, c) - min(lo, c) for c in cs]
                else:
                    sq = sum(c * c for c in counts)
                    if conc == CONC_HHI:
                        floors = [(sq + c * c) / total_sq for c in cs]
                    else:
                        floors = _std_floor(
                            Q, [e + 1 for _, e, _, _ in ranked],
                            [sq + c * c for c in cs], used + 1, total,
                            b_min, b_max).tolist()
                ranked = [(key + gamma * floor, *rest)
                          for (key, *rest), floor in zip(ranked, floors)]
            ranked.sort()
            children = iter(ranked)
        else:                                     # a child returned: drop its bin
            path.pop()
            counts.pop()
        for key, e, new_states, v in children:
            if key >= limit:                      # so is every key after it
                break
            path.append((s, e))
            counts.append(records[e][s])
            stack.append((s, states, v_sum, children))
            stack.append((e + 1, new_states, v, None))
            break
    return incumbent and incumbent[1:]


def _exact_search(agg: AggregateSet, cfg: BinningConfig,
                  pairs: PValuePairs | None):
    """The exact search for concrete trends on one or K rate matrices: one
    branch and bound.  A returned partition is rechecked from scratch by
    ``evaluate_partition``, which must give the same objective, bit for bit.
    The solution's objective is the gain.
    """
    hit = _branch_and_bound(agg, _tables(agg, cfg, pairs))
    if hit is None:
        return Solution(status=INFEASIBLE, trend_used=cfg.trend)
    intervals, gain = hit
    feas, recheck = evaluate_partition(intervals, agg, cfg, pairs)
    if not feas or recheck != _in_units(agg, gain):
        raise AssertionError(
            "solver returned a partition failing its own recheck: {} gain={} "
            "recheck=({}, {})".format(intervals, gain, feas, recheck))
    return Solution(status=OPTIMAL, intervals=intervals, objective=gain,
                    trend_used=cfg.trend)


# --------------------------------------------------------------------------- #
# trend resolution: automatic and per-class automatic trends
# --------------------------------------------------------------------------- #

# relative-improvement threshold for preferring peak/valley over monotone
AUTO_MARGIN = 0.10


def _pick(solutions):
    """Best of a candidate list: gain, then fewer bins, then list order."""
    return min((sol for sol in solutions if sol is not None and sol.is_feasible),
               key=lambda sol: (-sol.objective, sol.n_bins), default=None)


def _auto_pick(solve_one) -> Solution:
    """The automatic-trend rule over a base solver that returns gains.

    Solves descending/ascending and peak/valley; the peak/valley winner is
    kept only when it improves on the monotone winner by at least
    ``AUTO_MARGIN`` relative gain, mirroring "prefer the simpler shape
    unless the reversal buys a clearly better fit".  Ties inside each pair:
    fewer bins, then the listed order (descending before ascending, peak
    before valley).  With no feasible candidate the result is TIME_LIMIT
    when some candidate's search ran out of time, else INFEASIBLE.
    """
    sols = [solve_one(TrendSpec(kind))
            for kind in (DESCENDING, ASCENDING, PEAK, VALLEY)]
    mono = _pick(sols[:2])
    bent = _pick(sols[2:])
    if mono is None and bent is None:
        timed_out = any(sol.status == TIME_LIMIT for sol in sols)
        return Solution(status=TIME_LIMIT if timed_out else INFEASIBLE,
                        trend_used=TrendSpec(AUTO))
    if bent is None:
        return mono
    if mono is None:
        return bent
    if mono.objective != 0.0:
        lift = (bent.objective - mono.objective) / abs(mono.objective)
    else:
        lift = _POS_INF if bent.objective > 0.0 else 0.0
    return bent if lift >= AUTO_MARGIN else mono


def _class_view(agg: AggregateSet, c: int) -> AggregateSet:
    """One class's one-vs-rest problem as a standalone aggregate set."""
    return AggregateSet(n=agg.n, target=TargetKind.binary(),
                        divergence=agg.divergence, R=agg.R,
                        V=agg.class_V[c], D=agg.class_D[c])


def _finish(sol: Solution, agg: AggregateSet, min_diff: float) -> Solution:
    """A search's answer in the objective's units, with the change point of
    one peak/valley: its pin, or else the start of its first change bin."""
    if not sol.is_feasible:
        return sol
    trend, intervals = sol.trend_used, sol.intervals
    point = None
    if not agg.target.is_multiclass and trend.kind in (PEAK, VALLEY):
        point = trend.change_point
        if point is None:
            rates = [agg.rate_matrices()[0][e, s] for s, e in intervals]
            p = _change_bin(rates, trend.kind == PEAK, min_diff)
            point = intervals[p][0]
    return replace(sol, objective=_in_units(agg, sol.objective),
                   change_point=point)


def _resolve(agg: AggregateSet, cfg: BinningConfig,
             pairs: PValuePairs | None, search) -> Solution:
    """Run a solver's own ``search`` once every trend is concrete, and
    ``_finish`` its answer.

    ``search(agg, cfg, pairs)`` solves a config whose trends are all
    concrete, as a gain; the exact solver, the oracle and the local search
    each pass theirs, so all three resolve and finish identically.  A pinned
    change point must lie inside the pre-bins.  A single auto trend is ``_auto_pick`` over
    ``search``.  Each auto class of a multi-class target is resolved the
    same way on its own one-vs-rest view (same size and record constraints,
    no other classes), and the joint search then runs with the winners; when
    some class admits no trend at all the joint problem, which only adds
    constraints, is INFEASIBLE (TIME_LIMIT when that class's searches ran
    out of time).  ``cfg`` must be validated.
    """
    n = agg.n
    multi = agg.target.is_multiclass
    trends = list(_resolved_trends(agg, cfg))
    for tr in trends:
        if tr.change_point is not None and tr.change_point >= n:
            raise InvalidConfigError(
                ["change_point {} out of range for {} pre-bins".format(
                    tr.change_point, n)])
    for c, tr in enumerate(trends):
        if tr.kind != AUTO:
            continue
        view = _class_view(agg, c) if multi else agg
        won = _auto_pick(lambda t: search(view, replace(cfg, trend=t), pairs))
        if not multi:
            return _finish(won, agg, cfg.min_diff)
        if not won.is_feasible:
            return Solution(status=won.status, trend_used=cfg.trend)
        trends[c] = won.trend_used
    if multi:
        cfg = replace(cfg, trend=tuple(trends))
    return _finish(search(agg, cfg, pairs), agg, cfg.min_diff)


def _search_count(agg: AggregateSet, cfg: BinningConfig) -> int:
    """How many searches ``_resolve`` runs at most: the four ``_auto_pick``
    candidates per auto trend, and the joint search unless the only trend
    is auto."""
    trends = _resolved_trends(agg, cfg)
    autos = sum(tr.kind == AUTO for tr in trends)
    return 4 * autos + int(agg.target.is_multiclass or not autos)


# --------------------------------------------------------------------------- #
# public solve entry point
# --------------------------------------------------------------------------- #

def solve(agg: AggregateSet, cfg: BinningConfig,
          pairs: PValuePairs | None = None, *,
          use_presolve: bool = False) -> Solution:
    """Solve the constrained bin-merging problem exactly.

    Covers every target kind and trend, automatic and per-class ones
    included; returns an OPTIMAL solution, or an INFEASIBLE one when no
    partition satisfies the constraints.  Deterministic: identical inputs
    give identical solutions (ties resolved by fewer bins, then earliest
    interval start vector).  With no ``pairs``, a binary target's separation
    is that of ``cfg.max_pvalue``.  ``use_presolve`` has no effect: the
    completion bound's adjacent-bin checks already rule out every bin that
    ``presolve_monotonic`` would mask.
    """
    validate_config(cfg)
    return _resolve(agg, cfg, pairs, _exact_search)


# --------------------------------------------------------------------------- #
# brute-force reference
# --------------------------------------------------------------------------- #

def _all_partitions(n: int):
    """Every partition of 0..n-1 into contiguous intervals, as a generator."""
    for bits in range(1 << (n - 1)):
        intervals = []
        start = 0
        for pos in range(n - 1):
            if bits >> pos & 1:
                intervals.append((start, pos))
                start = pos + 1
        intervals.append((start, n - 1))
        yield tuple(intervals)


def _enumerate(agg: AggregateSet, cfg: BinningConfig,
               pairs: PValuePairs | None) -> Solution:
    """The oracle's search for concrete trends: score every partition with
    the checks and objective of ``evaluate_partition``, from tables built
    once."""
    n = agg.n
    tab = _tables(agg, cfg, pairs)
    best = None
    for intervals in _all_partitions(n):
        if next(_violated_groups(intervals, tab), 0):
            continue
        gain = _objective(intervals, tab)
        key = _rank_key(intervals, gain)
        if best is None or key < best[0]:
            best = (key, gain, intervals)
    if best is None:
        return Solution(status=INFEASIBLE, trend_used=cfg.trend)
    _, gain, intervals = best
    return Solution(status=OPTIMAL, intervals=intervals, objective=gain,
                    trend_used=cfg.trend)


def brute_force_oracle(agg: AggregateSet, cfg: BinningConfig,
                       pairs: PValuePairs | None = None) -> Solution:
    """Reference solver: enumerate all 2^(n-1) partitions and score directly.

    Independent of the branch-and-bound path: each partition is checked as a
    whole, as evaluate_partition checks it.  Trends are resolved as in solve(), and
    ties are broken the same way.  Only for small n (<= 20).
    """
    validate_config(cfg)
    if agg.n > 20:
        raise ValueError("oracle is exponential; n={} is too large".format(agg.n))
    return _resolve(agg, cfg, pairs, _enumerate)
