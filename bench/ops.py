"""The in-memory operations of the exact-corpus and ls-wide workloads.

Each operation is what ``binopt fit`` does once its pre-bin table exists:
refine the table, build the aggregate matrices, build the p-value pairs when
``max_pvalue`` is set on a binary target, then search.  Functions are looked
up through their modules at call time, so the traced run sees every call.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import replace

import numpy as np

from binopt import aggregate, localsearch, preprocess, solver
from binopt.core import BinningConfig, TargetKind, TrendSpec


def prepare(spec: dict):
    """The spec's pre-bin table and config as program objects (not timed)."""
    t = spec["table"]
    count = np.asarray(t["count"], dtype=np.int64)
    splits = tuple(float(i) + 0.5 for i in range(count.size - 1))
    kind = spec["kind"]
    if kind.startswith("binary"):
        event = np.asarray(t["event"], dtype=np.int64)
        table = preprocess.PrebinTable(
            target=TargetKind.binary(), count=count, nonevent=count - event,
            event=event, splits=splits)
    elif kind == "continuous":
        table = preprocess.PrebinTable(
            target=TargetKind.continuous(), count=count,
            total=np.asarray(t["total"], dtype=float), splits=splits)
    else:
        ce = np.asarray(t["class_events"], dtype=np.int64)
        table = preprocess.PrebinTable(
            target=TargetKind.multiclass(ce.shape[0]), count=count,
            class_events=ce, splits=splits)
    kw = dict(spec["config"])
    trends = tuple(TrendSpec.parse(p) for p in kw.pop("trend").split(","))
    cfg = BinningConfig(trend=trends if len(trends) > 1 else trends[0], **kw)
    return table, cfg


def run(table, cfg: BinningConfig, *, ls_seed: int | None = None):
    """One operation; returns (solution, aggregates, config, pairs).

    ``ls_seed=None`` runs the exact solver, anything else the local search
    with no time limit (deterministic for a fixed seed)."""
    target = table.target
    if target.is_binary:
        table = preprocess.refine_prebins(table)
        agg = aggregate.build_binary(table, cfg.divergence)
    elif target.is_continuous:
        agg = aggregate.build_continuous(table, cfg.norm_p)
    else:
        table = preprocess.refine_prebins_multiclass(table)
        agg = aggregate.build_multiclass(table, cfg.divergence)
    if cfg.min_bin_size is None:
        cfg = replace(cfg, min_bin_size=int(math.ceil(0.05 * agg.n_records)))
    pairs = None
    if cfg.max_pvalue is not None and target.is_binary:
        pairs = aggregate.pvalue_pairs(agg.R_ne, agg.R_e, cfg.max_pvalue)
    if ls_seed is None:
        sol = solver.solve(agg, cfg, pairs, use_presolve=True)
    else:
        sol = localsearch.ls_solve(agg, cfg, pairs, seed=ls_seed,
                                   time_limit=None)
    return sol, agg, cfg, pairs


def rescore(sol, agg, cfg, pairs) -> bool:
    """Does the whole-partition evaluator agree with the returned solution?

    Feasible solutions must re-score feasible with an equal (``==``)
    objective.  Auto trends are checked against the trend the solver chose.
    """
    if not sol.is_feasible:
        return True
    if sol.trend_used != cfg.trend:
        cfg = replace(cfg, trend=sol.trend_used)
    feasible, objective = solver.evaluate_partition(sol.intervals, agg, cfg,
                                                    pairs)
    return bool(feasible and objective == sol.objective)


def digest(sol) -> str:
    """Short digest of (status, intervals, objective), objective by repr."""
    text = repr((sol.status, tuple(sol.intervals), repr(float(sol.objective))))
    return hashlib.sha256(text.encode()).hexdigest()[:16]
