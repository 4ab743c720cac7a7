"""Command line: fit a binning from a CSV, transform values, print reports.

Three subcommands:

- ``fit``: read one variable and the target from a CSV file, fit an optimal
  binning under the requested constraints, print the binning table and write
  the model as deterministic JSON (sorted keys, no timestamps — refitting the
  same data byte-identically reproduces the file).
- ``transform``: map raw values through a fitted model to WoE values, bin
  means, or bin indices.
- ``report``: re-print the binning table of a stored model.

Exit codes: 0 success, 2 no feasible binning for the data and constraints
(or, with ``--solver ls``, none found before the time budget ran out), 3 bad
input (unreadable files, unknown columns, malformed values or flags).
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from dataclasses import replace

import numpy as np

from .core import (
    BinningConfig, BinStats, BinningModel, TargetKind, TrendSpec,
    InputError, InvalidConfigError, InfeasibleError, DegenerateColumnError,
    ZeroCountError, BinoptError, MalformedEncodingError, TimeBudgetError,
    validate_config, DIV_IV, TIME_LIMIT,
)
from . import preprocess
from . import aggregate
from .solver import solve
from .localsearch import _check_time_limit, ls_solve
from . import quality as quality_mod

EXIT_OK = 0
EXIT_INFEASIBLE = 2
EXIT_INPUT_ERROR = 3

NUMERIC = "numeric"
CATEGORICAL = "categorical"


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on bad flags; remap to the input-error code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT_ERROR,
                  "{}: error: {}\n".format(self.prog, message))


# --------------------------------------------------------------------------- #
# input handling
# --------------------------------------------------------------------------- #

def _read_columns(path: str, names) -> list:
    """The named columns of an RFC-4180 CSV file, as lists of raw strings.

    The file is read once, one record at a time, keeping only the named
    fields.  Blank lines are skipped; a leading byte-order mark is dropped.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise InputError("{} is empty".format(path))
            # an unknown name is reported after the pass: a read error wins
            cols = [header.index(name) if name in header else 0
                    for name in names]
            pairs = [(col, []) for col in cols]
            need = max(cols) + 1
            short = {}          # column -> first CSV record that lacks it
            for line, row in enumerate(reader, start=2):
                if len(row) >= need:
                    for col, column in pairs:
                        column.append(row[col])
                elif row:
                    for col in cols:
                        if col >= len(row):
                            short.setdefault(col, line)
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise InputError("cannot read {}: {}".format(path, exc)) from exc
    for name, col in zip(names, cols):
        if name not in header:
            raise InputError("no column {!r} in {} (found: {})"
                             .format(name, path, ", ".join(header)))
        if col in short:
            raise InputError("{} line {}: missing field {!r}"
                             .format(path, short[col], name))
    return [column for _, column in pairs]


def _floats(tokens):
    """``tokens`` parsed as Python's ``float()`` parses them, or None when
    one of them is not a number."""
    try:
        return np.array(tokens, dtype=float)
    except ValueError:
        return None


def _first_row(tokens, bad) -> tuple:
    """(1-based row, token) of the first token for which ``bad`` holds."""
    return next((i, tok) for i, tok in enumerate(tokens, start=1) if bad(tok))


def _not_float(tok: str) -> bool:
    try:
        float(tok)
    except ValueError:
        return True
    return False


def _parse_variable(tokens, dtype: str, missing_token: str) -> tuple:
    """The variable column as (values, dtype).

    Numeric values are floats with NaN for missing (so a ``nan`` token is
    missing too); categorical values are the raw strings with None for
    missing.  ``auto`` picks numeric when every non-missing token parses as
    a float.
    """
    if dtype == "auto" and tokens.count(missing_token) == len(tokens):
        raise InputError("variable column holds no non-missing values")
    if dtype != CATEGORICAL:
        values = _floats(["nan" if tok == missing_token else tok
                          for tok in tokens])
        if values is not None:
            return values, NUMERIC
        if dtype == NUMERIC:
            row, tok = _first_row(
                tokens, lambda t: t != missing_token and _not_float(t))
            raise InputError(
                "row {}: cannot parse {!r} as a number".format(row, tok))
    values = np.array([None if tok == missing_token else tok
                       for tok in tokens], dtype=object)
    return values, CATEGORICAL


def _not_class_label(tok: str) -> bool:
    v = float(tok)
    return not math.isfinite(v) or v != int(v)


def _parse_target(tokens, kind: TargetKind, missing_token: str):
    """Parse the target column; returns (values, possibly-updated kind).

    Multi-class targets are recoded to 0..K-1 in sorted label order, and the
    class count is inferred from the data.
    """
    if missing_token in tokens:
        raise InputError("row {}: target value is missing"
                         .format(tokens.index(missing_token) + 1))
    y = _floats(tokens)
    if kind.is_binary:
        if y is None or not np.all((y == 0.0) | (y == 1.0)):
            row, tok = _first_row(
                tokens, lambda t: _not_float(t) or float(t) not in (0.0, 1.0))
            raise InputError(
                "row {}: binary target must be 0 or 1; got {!r}".format(row, tok))
        return y.astype(np.int64), kind
    if kind.is_continuous:
        if y is None:
            row, tok = _first_row(tokens, _not_float)
            raise InputError(
                "row {}: cannot parse target {!r} as a number".format(row, tok))
        return y, kind
    if y is None or not np.all(np.isfinite(y) & (y == np.trunc(y))):
        row, tok = _first_row(
            tokens, lambda t: _not_float(t) or _not_class_label(t))
        if _not_float(tok):
            raise InputError(
                "row {}: cannot parse class label {!r}".format(row, tok))
        raise InputError(
            "row {}: class labels must be integers; got {!r}".format(row, tok))
    classes, codes = np.unique(y, return_inverse=True)
    if classes.size < 3:
        raise InputError(
            "multiclass target has {} distinct labels; use a binary target"
            .format(classes.size))
    return codes, TargetKind.multiclass(int(classes.size))


def _parse_specials(text: str | None, dtype: str) -> tuple:
    if not text:
        return ()
    parts = [p.strip() for p in text.split(",") if p.strip() != ""]
    if dtype == NUMERIC:
        out = []
        for p in parts:
            try:
                out.append(float(p))
            except ValueError:
                raise InputError(
                    "special value {!r} is not a number".format(p)) from None
        return tuple(out)
    return tuple(parts)


def _parse_trend(text: str):
    if "," in text:
        return tuple(TrendSpec.parse(p) for p in text.split(","))
    return TrendSpec.parse(text)


# --------------------------------------------------------------------------- #
# fitting
# --------------------------------------------------------------------------- #

def _bin_stats(target_kind: TargetKind, count: int, target, ne_total: float,
               e_total: float) -> BinStats:
    """Stats of a bin or a pool (special / missing / others) of ``count``
    records; ``target`` is its event count (binary), its target sum
    (continuous) or its class counts (multi-class).

    WoE and divergence columns fall back to 0 whenever a count that the
    formula needs is zero, so empty pools always render as neutral rows.
    """
    if target_kind.is_binary:
        event = int(target)
        nonevent = count - event
        rate = event / count if count else 0.0
        w = iv = js = 0.0
        if nonevent > 0 and event > 0 and ne_total > 0 and e_total > 0:
            w = aggregate.woe(nonevent, event, ne_total, e_total)
            iv = aggregate.divergence_contrib(
                nonevent / ne_total, event / e_total, "iv")
        if ne_total > 0 and e_total > 0:
            js = aggregate.divergence_contrib(
                nonevent / ne_total, event / e_total, "jsd")
        return BinStats(count=count, nonevent=nonevent, event=event,
                        event_rate=rate, woe=w, iv_contrib=iv, js_contrib=js)
    if target_kind.is_continuous:
        total = float(target)
        return BinStats(count=count, sum=total,
                        mean=total / count if count else 0.0)
    return BinStats(count=count, class_counts=tuple(target))


def _pool_stats(ys, target_kind: TargetKind, ne_total: float,
                e_total: float) -> BinStats:
    """Stats of the pool of records whose targets are ``ys``."""
    if target_kind.is_binary:
        target = int(np.sum(ys))
    elif target_kind.is_continuous:
        # a left-to-right sum, as np.bincount gives the pre-bin totals;
        # np.sum's pairwise order could change the last bits
        target = sum(ys.tolist())
    else:
        target = np.bincount(ys, minlength=target_kind.n_classes).tolist()
    return _bin_stats(target_kind, len(ys), target, ne_total, e_total)


def _assess(bins, divergence: str):
    """Quality report of a binary binning's optimized bins."""
    return quality_mod.assess(
        [b.nonevent for b in bins], [b.event for b in bins],
        sum(b.iv_contrib if divergence == DIV_IV else b.js_contrib
            for b in bins),
        divergence_kind=divergence)


def _fit(values, target, target_kind: TargetKind, cfg: BinningConfig,
         variable: str, dtype: str, *, solver_name: str = "exact",
         seed: int = 0, time_budget: float | None = None) -> BinningModel:
    """End-to-end fit: route records, pre-bin, aggregate, solve, tabulate.

    Raises InfeasibleError when no partition satisfies the constraints, and
    TimeBudgetError when the local search's budget ran out before it met a
    feasible one.  A negative or NaN budget, or ``max_pvalue`` on a target
    that is not binary, is an InvalidConfigError.
    """
    validate_config(cfg)
    _check_time_limit(time_budget)
    if cfg.max_pvalue is not None and not target_kind.is_binary:
        raise InvalidConfigError(["--max-pvalue applies to binary targets "
                                  "only, not {}".format(target_kind.kind)])
    (xc, yc), (xs, ys_special), (xm, ys_missing) = \
        preprocess.split_missing_special(values, target, cfg.special_values)
    if not len(xc):
        raise DegenerateColumnError(
            "no records left after routing special and missing values")

    others: tuple = ()
    if dtype == NUMERIC:
        splits = preprocess.prebin_numeric(xc, cfg.prebin_count,
                                           cfg.prebin_min_frac)
        table = preprocess.build_prebin_table(xc, yc, target_kind,
                                              splits=splits)
    else:
        cats, others = preprocess.prebin_categorical(xc, yc,
                                                     cfg.cat_others_cutoff)
        pooled = set(others)
        labels, codes = preprocess.label_codes(xc)
        in_pool = np.array([str(v) in pooled for v in labels], dtype=bool)[codes]
        ys_others = yc[in_pool]
        table = preprocess.build_prebin_table(
            xc[~in_pool], yc[~in_pool], target_kind,
            groups=tuple((c,) for c in cats))

    if target_kind.is_binary:
        table = preprocess.refine_prebins(table)
        agg = aggregate.build_binary(table, cfg.divergence)
    elif target_kind.is_continuous:
        agg = aggregate.build_continuous(table, cfg.norm_p)
    else:
        table = preprocess.refine_prebins_multiclass(table)
        agg = aggregate.build_multiclass(table, cfg.divergence)

    if cfg.min_bin_size is None:
        cfg = replace(cfg, min_bin_size=int(math.ceil(0.05 * agg.n_records)))
        validate_config(cfg)

    pairs = None
    if cfg.max_pvalue is not None:
        pairs = aggregate.pvalue_pairs(agg.R_ne, agg.R_e, cfg.max_pvalue)

    if solver_name == "ls":
        sol = ls_solve(agg, cfg, pairs, seed=seed, time_limit=time_budget)
    else:
        sol = solve(agg, cfg, pairs, use_presolve=True)
    if sol.status == TIME_LIMIT:
        raise TimeBudgetError(
            "the time budget of {} s ran out before the local search found "
            "a feasible binning of {!r}; raise --time-budget or leave it "
            "unset".format(time_budget, variable))
    if not sol.is_feasible:
        raise InfeasibleError(
            "no binning of {!r} satisfies the constraints".format(variable))

    # -- per-bin statistics over the solved partition ------------------------ #
    # Report WoE/IV/JS against the grand totals (special, missing and others
    # rows included), so the printed columns stay mutually consistent however
    # many records sit outside the optimization.
    ne_total = e_total = 0.0
    if target_kind.is_binary:
        e_total = float(np.sum(target))
        ne_total = len(target) - e_total
    binned = preprocess.merge_runs(table, [s for s, _ in sol.intervals])
    targets = (binned.event if target_kind.is_binary else binned.total
               if target_kind.is_continuous else binned.class_events.T).tolist()
    bins = [_bin_stats(target_kind, count, target, ne_total, e_total)
            for count, target in zip(binned.count.tolist(), targets)]

    special = _pool_stats(ys_special, target_kind, ne_total, e_total)
    missing = _pool_stats(ys_missing, target_kind, ne_total, e_total)
    others_stats = None
    if others:
        others_stats = _pool_stats(ys_others, target_kind, ne_total, e_total)

    q = _assess(bins, cfg.divergence).score if target_kind.is_binary else None

    if isinstance(sol.trend_used, TrendSpec):
        trend_text = sol.trend_used.as_text()
    else:
        trend_text = ",".join(t.as_text() for t in sol.trend_used)

    def value(b):
        return b.woe if target_kind.is_binary else b.mean

    return BinningModel(
        variable=variable, dtype=dtype, target_kind=target_kind,
        splits=binned.splits, groups=binned.groups, others=tuple(others),
        bins=tuple(bins), special=special, missing=missing,
        others_stats=others_stats,
        transform_values=() if target_kind.is_multiclass
        else tuple(map(value, bins)),
        special_value=value(special), missing_value=value(missing),
        others_value=value(others_stats) if others_stats else 0.0,
        quality=q, objective=float(sol.objective), trend_used=trend_text,
        config=cfg)


# --------------------------------------------------------------------------- #
# transform
# --------------------------------------------------------------------------- #

def _row_labels(model: BinningModel) -> list:
    """Table row labels: optimized bins, then Others / Special / Missing."""
    labels = []
    if model.dtype == NUMERIC:
        edges = [float("-inf"), *model.splits, float("inf")]
        for i in range(len(edges) - 1):
            lo = "(-inf" if math.isinf(edges[i]) else "[{:g}".format(edges[i])
            hi = "inf)" if math.isinf(edges[i + 1]) else "{:g})".format(edges[i + 1])
            labels.append("{}, {}".format(lo, hi))
    else:
        labels.extend("[{}]".format(", ".join(g)) for g in model.groups)
    if model.others:
        labels.append("Others")
    labels.append("Special")
    labels.append("Missing")
    return labels


def _resolve_mode(model: BinningModel, mode: str) -> str:
    kind = model.target_kind.kind
    if mode == "auto":
        mode = {"binary": "woe", "continuous": "mean",
                "multiclass": "index"}[kind]
    allowed = {"binary": ("woe", "index"), "continuous": ("mean", "index"),
               "multiclass": ("index",)}[kind]
    if mode not in allowed:
        raise InputError("mode {!r} not available for a {} target (use {})"
                         .format(mode, kind, " or ".join(allowed)))
    return mode


def _n_bins(model: BinningModel) -> int:
    return len(model.splits) + 1 if model.dtype == NUMERIC else len(model.groups)


def _row_outputs(model: BinningModel, mode: str) -> list:
    """The transform output of each table row, in ``_row_labels`` order."""
    m = _n_bins(model)
    pools = [model.others_value] if model.others else []
    pools += [model.special_value, model.missing_value]
    if mode == "index":
        return list(range(m + len(pools)))
    if len(model.transform_values) != m:
        raise InputError("model has {} transform values for {} bins"
                         .format(len(model.transform_values), m))
    return [*model.transform_values, *pools]


def _table_rows(model: BinningModel, values) -> np.ndarray:
    """Each value's row in the binning table: optimized bins first, then
    Others (categorical models with a pool), then Special, then Missing."""
    m = _n_bins(model)
    row_others = m
    row_special = m + (1 if model.others else 0)
    row_missing = row_special + 1
    specials = model.config.special_values
    if model.dtype == NUMERIC:
        x = np.asarray(values, dtype=float)
        rows = np.searchsorted(np.asarray(model.splits, dtype=float), x,
                               side="right")
        rows[np.isin(x, np.asarray(specials, dtype=float))] = row_special
        rows[np.isnan(x)] = row_missing
        return rows
    group_of = {}
    for k, group in enumerate(model.groups):
        for label in group:
            group_of.setdefault(label, k)
    labels, codes = preprocess.label_codes(values)
    label_rows = []
    for v in labels:                  # in order of first appearance
        label = str(v)
        if v is None or v != v:       # None or NaN, as in split_missing_special
            label_rows.append(row_missing)
        elif label in specials:
            label_rows.append(row_special)
        elif label in group_of:
            label_rows.append(group_of[label])
        elif model.others:
            # unseen categories are rare by definition: route to the pool
            label_rows.append(row_others)
        else:
            raise InputError("unknown category {!r} and the model has no "
                             "others pool".format(label))
    return np.array(label_rows, dtype=np.intp)[codes]


def transform_values(model: BinningModel, values, mode: str = "auto"):
    """Map raw values through the fitted binning, as one array.

    Index mode numbers the table rows: optimized bins first, then Others
    (categorical models with a pool), then Special, then Missing.
    """
    outputs = _row_outputs(model, _resolve_mode(model, mode))
    return np.take(np.asarray(outputs), _table_rows(model, values))


def transform_value(model: BinningModel, v, mode: str):
    """Map one raw value through the fitted binning."""
    return transform_values(model, [v], mode).tolist()[0]


# --------------------------------------------------------------------------- #
# report rendering
# --------------------------------------------------------------------------- #

def _format_table(rows, header) -> str:
    widths = [max(len(str(r[c])) for r in [header, *rows])
              for c in range(len(header))]
    def line(vals):
        return "  ".join(str(v).rjust(w) if i else str(v).ljust(w)
                         for i, (v, w) in enumerate(zip(vals, widths)))
    sep = "  ".join("-" * w for w in widths)
    return "\n".join([line(header), sep, *map(line, rows)])


def render_table(model: BinningModel) -> str:
    """The binning table: per-bin rows plus Others/Special/Missing.

    A model without per-bin stats (``bins`` empty) gets only the pool rows.
    """
    labels = _row_labels(model)
    pools = [model.others_stats] if model.others else []
    pools += [model.special, model.missing]
    labeled = [*zip(labels, model.bins), *zip(labels[-len(pools):], pools)]
    total = sum(b.count for _, b in labeled)

    def pct(c):
        return "{:.2%}".format(c / total) if total else "0.00%"

    if model.target_kind.is_binary:
        header = ["Bin", "Count", "Count (%)", "Non-event", "Event",
                  "Event rate", "WoE", "IV", "JS"]
        rows = [[lab, b.count, pct(b.count), b.nonevent, b.event,
                 "{:.5f}".format(b.event_rate), "{:.5f}".format(b.woe),
                 "{:.5f}".format(b.iv_contrib), "{:.5f}".format(b.js_contrib)]
                for lab, b in labeled]
    elif model.target_kind.is_continuous:
        header = ["Bin", "Count", "Count (%)", "Sum", "Mean"]
        rows = [[lab, b.count, pct(b.count), "{:.5f}".format(b.sum),
                 "{:.5f}".format(b.mean)]
                for lab, b in labeled]
    else:
        k = model.target_kind.n_classes
        header = ["Bin", "Count", "Count (%)"] + \
                 ["Class {}".format(c) for c in range(k)]
        rows = []
        for lab, b in labeled:
            cc = list(b.class_counts) if b.class_counts else [0] * k
            rows.append([lab, b.count, pct(b.count), *cc])
    return _format_table(rows, header)


def render_summary(model: BinningModel) -> str:
    lines = ["variable: {} ({})".format(model.variable, model.dtype),
             "target: {}".format(model.target_kind.kind),
             "trend: {}".format(model.trend_used),
             "objective: {:.6f}".format(model.objective)]
    if model.quality is not None:
        lines.append("quality: {:.6f}".format(model.quality))
    return "\n".join(lines)


def render_quality(model: BinningModel) -> str:
    """Quality block for a binary model: score, divergence + label, p-values."""
    rep = _assess(model.bins, model.config.divergence)
    lines = ["quality score: {:.6f}".format(rep.score),
             "divergence: {:.6f} ({})".format(rep.divergence, rep.label),
             "adjacent p-values: {}".format(
                 " ".join("{:.4f}".format(p) for p in rep.pvalues) or "-")]
    return "\n".join(lines)


# --------------------------------------------------------------------------- #
# subcommands
# --------------------------------------------------------------------------- #

def cmd_fit(args) -> int:
    kind = {"binary": TargetKind.binary(),
            "continuous": TargetKind.continuous(),
            "multiclass": TargetKind(kind="multiclass", n_classes=0)}[
        args.target_kind]
    values, target = _read_columns(args.data, [args.variable, args.target])
    values, dtype = _parse_variable(values, args.dtype, args.missing_token)
    target, kind = _parse_target(target, kind, args.missing_token)

    cfg = BinningConfig(
        min_bins=args.min_bins, max_bins=args.max_bins,
        min_bin_size=args.min_bin_size, min_diff=args.min_diff,
        concentration=args.concentration, gamma=args.gamma,
        max_pvalue=args.max_pvalue, trend=_parse_trend(args.trend),
        divergence=args.divergence, prebin_count=args.prebins,
        special_values=_parse_specials(args.special_values, dtype),
        cat_others_cutoff=args.others_cutoff)

    model = _fit(values, target, kind, cfg, args.variable, dtype,
                 solver_name=args.solver, seed=args.seed,
                 time_budget=args.time_budget)
    if args.model:
        with open(args.model, "w", encoding="utf-8") as fh:
            fh.write(model.to_json())
            fh.write("\n")
    if args.format == "json":
        print(model.to_json())
    else:
        print(render_summary(model))
        print()
        print(render_table(model))
    return EXIT_OK


def _load_model(path: str) -> BinningModel:
    try:
        with open(path, encoding="utf-8") as fh:
            return BinningModel.from_json(fh.read())
    except OSError as exc:
        raise InputError("cannot read model {}: {}".format(path, exc)) from exc


def cmd_transform(args) -> int:
    model = _load_model(args.model)
    variable = args.variable or model.variable
    values, _ = _parse_variable(*_read_columns(args.data, [variable]),
                                model.dtype, args.missing_token)
    mode = _resolve_mode(model, args.mode)
    rows = transform_values(model, values, "index")
    # each distinct output line is rendered once and looked up by row
    lines = np.array([str(v) if isinstance(v, int) else "{:.6f}".format(v)
                      for v in _row_outputs(model, mode)], dtype=object)
    text = "\n".join(np.take(lines, rows).tolist())
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
            fh.write("\n")
    else:
        print(text)
    return EXIT_OK


def cmd_report(args) -> int:
    model = _load_model(args.model)
    if not model.target_kind.is_binary:
        raise InputError("quality reports need a binary-target model; this one "
                         "is {}".format(model.target_kind.kind))
    if args.format == "json":
        print(model.to_json())
    else:
        print(render_summary(model))
        print()
        print(render_quality(model))
        print()
        print(render_table(model))
    return EXIT_OK


# --------------------------------------------------------------------------- #
# entry point
# --------------------------------------------------------------------------- #

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="binopt",
                     description="Optimal binning of one variable against a "
                                 "binary, continuous, or multi-class target.")
    sub = parser.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("fit", help="fit a binning from a CSV file")
    fit.add_argument("--data", required=True, help="input CSV path")
    fit.add_argument("--variable", required=True, help="column to bin")
    fit.add_argument("--target", required=True, help="target column")
    fit.add_argument("--target-kind", default="binary",
                     choices=["binary", "continuous", "multiclass"])
    fit.add_argument("--dtype", default="auto",
                     choices=["auto", "numeric", "categorical"],
                     help="variable type (default: infer)")
    fit.add_argument("--trend", default="none",
                     help="none|ascending|descending|concave|convex|peak[:T]"
                          "|valley[:T]|auto; comma-separated per class for "
                          "multiclass targets")
    fit.add_argument("--min-bins", type=int, default=2)
    fit.add_argument("--max-bins", type=int, default=None)
    fit.add_argument("--min-bin-size", type=int, default=None,
                     help="records per bin (default: 5%% of optimized records)")
    fit.add_argument("--max-pvalue", type=float, default=None,
                     help="adjacent-bin z-test level (binary targets only)")
    fit.add_argument("--min-diff", type=float, default=0.0,
                     help="minimum event-rate gap for monotonic trends")
    fit.add_argument("--concentration", default="off",
                     choices=["off", "std", "hhi", "maxmin"])
    fit.add_argument("--gamma", type=float, default=0.0,
                     help="concentration penalty weight")
    fit.add_argument("--divergence", default="iv", choices=["iv", "jsd"])
    fit.add_argument("--special-values", default=None,
                     help="comma-separated values routed to the Special bin")
    fit.add_argument("--others-cutoff", type=float, default=0.0,
                     help="pool categories rarer than this share")
    fit.add_argument("--prebins", type=int, default=20,
                     help="maximum number of pre-bins")
    fit.add_argument("--solver", default="exact", choices=["exact", "ls"])
    fit.add_argument("--time-budget", type=float, default=None,
                     help="wall-clock cap in seconds (>= 0), shared by the "
                          "auto-trend sub-solves (ls solver only)")
    fit.add_argument("--seed", type=int, default=0,
                     help="random seed (ls solver only)")
    fit.add_argument("--model", default=None, help="write the model JSON here")
    fit.add_argument("--missing-token", default="",
                     help="CSV token meaning 'missing' (default: empty cell)")
    fit.add_argument("--format", default="table", choices=["table", "json"])
    fit.set_defaults(func=cmd_fit)

    tr = sub.add_parser("transform", help="map values through a fitted model")
    tr.add_argument("--model", required=True, help="model JSON path")
    tr.add_argument("--data", required=True, help="input CSV path")
    tr.add_argument("--variable", default=None,
                    help="column to transform (default: the fitted one)")
    tr.add_argument("--mode", default="auto",
                    choices=["auto", "woe", "mean", "index"])
    tr.add_argument("--output", default=None,
                    help="write one value per line here instead of stdout")
    tr.add_argument("--missing-token", default="")
    tr.set_defaults(func=cmd_transform)

    rep = sub.add_parser("report", help="print the table of a stored model")
    rep.add_argument("--model", required=True, help="model JSON path")
    rep.add_argument("--format", default="table", choices=["table", "json"])
    rep.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, InvalidConfigError, MalformedEncodingError) as exc:
        print("error: {}".format(exc), file=sys.stderr)
        return EXIT_INPUT_ERROR
    except (InfeasibleError, DegenerateColumnError, ZeroCountError) as exc:
        print("infeasible: {}".format(exc), file=sys.stderr)
        return EXIT_INFEASIBLE
    except TimeBudgetError as exc:
        print("error: {}".format(exc), file=sys.stderr)
        return EXIT_INFEASIBLE
    except BinoptError as exc:
        print("error: {}".format(exc), file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
