"""Command line: fit a binning from a CSV, transform values, print reports.

Three subcommands:

- ``fit``: read one variable and the target from a CSV file, fit an optimal
  binning under the requested constraints, print the binning table and write
  the model as deterministic JSON (sorted keys, no timestamps — refitting the
  same data byte-identically reproduces the file).
- ``transform``: map raw values through a fitted model to WoE values, bin
  means, or bin indices.
- ``report``: re-print the binning table of a stored model.

The CSV file is read into memory once and only the requested columns are
extracted, as arrays of byte tokens (``_read_columns``): numpy locates every
comma and line feed, and a file that needs RFC-4180 quoting (or holds a lone
CR or a NUL byte) goes through ``csv.reader`` with the same results.  The
parsers turn those arrays into values (``_parse_variable``,
``_parse_target``), and the fit checks the target's values.  Fit and
transform route records to table rows with ``preprocess.table_rows``;
``_pool_rows`` lists the rows after the bins once, for tables and outputs.

Exit codes: 0 success, 2 no feasible binning for the data and constraints
(or, with ``--solver ls``, none found before the time budget ran out), 3 bad
input (unreadable files, unknown columns, malformed values or flags, a
continuous target whose sums are not finite).
"""

from __future__ import annotations

import argparse
import codecs
import csv
import math
import os
import sys
from dataclasses import replace

import numpy as np

from .core import (
    BinningConfig, BinStats, BinningModel, TargetKind, TrendSpec,
    InputError, InvalidConfigError, InfeasibleError, DegenerateColumnError,
    ZeroCountError, BinoptError, TimeBudgetError,
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
    """The named columns of an RFC-4180 CSV file, as arrays of UTF-8 byte
    tokens (``_tokens``).

    The whole file is read into memory once, and only the named fields are
    extracted (``_byte_columns``).  Blank lines are skipped; a leading
    byte-order mark is dropped.  A file with a quote, a lone CR, a NUL byte,
    a line longer than the ``csv`` module's field size limit, or bytes that
    are not UTF-8 goes through ``csv.reader`` (``_csv_columns``) instead,
    which keeps RFC-4180 quoting exact and reports the read errors.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise InputError("cannot read {}: {}".format(path, exc)) from exc
    start = len(codecs.BOM_UTF8) if data.startswith(codecs.BOM_UTF8) else 0
    if len(data) == start:
        raise InputError("{} is empty".format(path))
    if not data.endswith(b"\n"):
        data += b"\n"  # a lone CR at the end becomes a CR LF: both end a line
    columns = _byte_columns(path, data, start, names)
    if columns is None:
        del data                # the csv module reads the file again
        columns = _csv_columns(path, names)
    return columns


def _byte_columns(path: str, data: bytes, start: int, names):
    """``_read_columns`` on the bytes of a file that ends in a line feed and
    whose text begins at ``start``, or None when the file needs the ``csv``
    module.

    A record is a line, less the CR of a CR LF, and its fields are the bytes
    between its commas.  Every comma and line feed is located with numpy.
    """
    if (b'"' in data or b"\0" in data or not _is_utf8(data) or (
            b"\r" in data and data.count(b"\r") != data.count(b"\r\n"))):
        return None
    buf = np.frombuffer(data, dtype=np.uint8)
    pos = _positions(buf, lambda b: (b == 44) | (b == 10))
    records = _records(path, buf, pos, _positions(buf[pos], lambda b: b == 10),
                       start, names)
    if records is None:
        return None
    cols, kept = records
    columns = []
    for col in cols:
        lo, hi = pos[kept + col] + 1, pos[kept + col + 1]
        if b"\r" in data:
            hi -= buf[hi - 1] == 13
        columns.append(_tokens(data, lo, hi, len(data)))
    return columns


def _records(path: str, buf, pos, lines, start: int, names):
    """(column of each name, the index in ``pos`` of the line feed before
    each record that holds them all), or None when a line is longer than the
    ``csv`` module's field size limit.  ``lines`` indexes the line feeds in
    ``pos``, the ascending offsets of every comma and line feed in ``buf``.
    Its per-line arrays are freed before the fields are cut out.
    """
    breaks = pos[lines]
    # at offset 0, breaks - 1 reads the file's final line feed
    cr = buf[breaks - 1] == 13
    span = np.diff(breaks, prepend=breaks.dtype.type(start - 1))
    span -= 1 + cr                          # the bytes of each line's text
    if span.max() > csv.field_size_limit():
        return None
    head = buf[start:breaks[0] - cr[0]].tobytes()
    header = head.decode("utf-8").split(",") if head else []
    cols = [header.index(name) if name in header else 0 for name in names]
    fields = np.diff(lines)                 # of each record after the header
    present = (fields > 1) | (span[1:] > 0)     # blank lines hold no fields
    # the line of the first record that lacks each column (the header is 1)
    short = {col: rows[0] + 2 for col in cols
             if (rows := np.flatnonzero(present & (fields <= col))).size}
    _check_columns(path, names, header, short)
    return cols, lines[:-1][present & (fields > max(cols))]


def _check_columns(path: str, names, header, short: dict) -> None:
    """Raise InputError for the first of ``names`` not in ``header`` or that
    a record lacks (``short``: column -> line of the first such record)."""
    for name in names:
        if name not in header:
            raise InputError("no column {!r} in {} (found: {})"
                             .format(name, path, ", ".join(header)))
        if header.index(name) in short:
            raise InputError("{} line {}: missing field {!r}"
                             .format(path, short[header.index(name)], name))


def _is_utf8(data: bytes) -> bool:
    """Whether ``data`` decodes as UTF-8, checked a block at a time."""
    if data.isascii():
        return True
    decoder = codecs.getincrementaldecoder("utf-8")()
    view = memoryview(data)
    try:
        for i in range(0, len(data), _BLOCK):
            decoder.decode(view[i:i + _BLOCK])
        decoder.decode(b"", final=True)
    except UnicodeDecodeError:
        return False
    return True


# entries per block when scanning a file, which bounds the scratch arrays
_BLOCK = 1 << 20


def _positions(values, hit) -> np.ndarray:
    """The ascending indices of the entries of ``values`` that the test
    ``hit`` selects, found a block at a time; int32 while twice the size
    fits, so that an offset plus a token's width does too (``_tokens``)."""
    dtype = np.int32 if values.size < 2 ** 30 else np.int64
    return np.concatenate([
        (np.flatnonzero(hit(values[i:i + _BLOCK])) + i).astype(dtype)
        for i in range(0, values.size, _BLOCK)])


def _tokens(data: bytes, lo, hi, size: int) -> np.ndarray:
    """``data[lo[i]:hi[i]]`` for every ``i``, as one array of byte tokens.

    A fixed-width ``S`` array normally.  An object array of bytes when the
    widest token times the token count would exceed ``size`` (the file's
    size: one long field must not widen every row) or a token holds a NUL
    byte, which ``S`` would drop from its end.
    """
    lengths = hi - lo
    width = int(lengths.max(initial=0))
    if width * lengths.size > size or b"\0" in data:
        return np.array([data[a:b] for a, b in zip(lo.tolist(), hi.tolist())],
                        dtype=object)
    buf = np.frombuffer(data, dtype=np.uint8)
    out = np.zeros((lengths.size, max(width, 1)), dtype=np.uint8)
    at = np.empty_like(lo)
    for k in range(width):                  # byte k of every token
        np.add(lo, k, out=at)
        np.minimum(at, buf.size - 1, out=at)
        byte = buf[at]
        byte *= lengths > k
        out[:, k] = byte
    return out.view("S{}".format(out.shape[1])).ravel()


def _csv_columns(path: str, names) -> list:
    """``_read_columns`` through ``csv.reader``, one record at a time."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            size = os.fstat(fh.fileno()).st_size
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise InputError("{} is empty".format(path))
            # an unknown name is reported after the pass: a read error wins
            cols = [header.index(name) if name in header else 0
                    for name in names]
            columns = [[] for _ in cols]
            appends = list(zip(cols, [column.append for column in columns]))
            need = max(cols) + 1
            short = {}          # column -> first CSV record that lacks it
            skipped = 0         # blank or short records so far
            for row in reader:
                if len(row) >= need:
                    for col, append in appends:
                        append(row[col])
                    continue
                for col in cols:            # the header is line 1
                    if row and col >= len(row):
                        short.setdefault(col, 2 + len(columns[0]) + skipped)
                skipped += 1
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise InputError("cannot read {}: {}".format(path, exc)) from exc
    _check_columns(path, names, header, short)
    tokens = []
    for column in columns:
        pieces = [field.encode("utf-8") for field in column]
        lengths = np.fromiter(map(len, pieces), dtype=np.int64,
                              count=len(pieces))
        hi = np.cumsum(lengths)
        lo = hi - lengths
        tokens.append(_tokens(b"".join(pieces), lo, hi, size))
    return tokens


def _encoded(text: str) -> bytes:
    """``text`` as a token of the file: a surrogate (from an undecodable
    command-line byte) becomes bytes that no UTF-8 token holds."""
    return text.encode("utf-8", "surrogatepass")


def _decoded(tokens) -> list:
    """The tokens as strings (every file read is UTF-8)."""
    return [tok.decode("utf-8") for tok in tokens.tolist()]


def _floats(tokens, missing):
    """``tokens`` parsed as Python's ``float()`` parses them, NaN where
    ``missing``, or None when one of them is not a number.

    numpy parses ASCII tokens as ``float()`` does, but rejects non-ASCII
    digits and spaces that ``float()`` accepts, so a column with a non-ASCII
    byte that numpy rejects is parsed again token by token.
    """
    try:
        return np.where(missing, b"nan", tokens).astype(float)
    except ValueError:
        raw = tokens.tobytes() if tokens.dtype.kind == "S" \
            else b"".join(tokens.tolist())
        if raw.isascii():
            return None
    try:
        return np.array(["nan" if m else tok for m, tok in
                         zip(missing.tolist(), _decoded(tokens))], dtype=float)
    except ValueError:
        return None


def _first(strings, inverse, bad) -> tuple:
    """(1-based row, label) of the first record whose label is flagged:
    ``bad`` flags the distinct ``strings``, which ``inverse`` indexes."""
    row = int(np.asarray(bad, dtype=bool)[inverse].argmax())
    return row + 1, strings[inverse[row]]


def _not_float(tok: str) -> bool:
    try:
        float(tok)
    except ValueError:
        return True
    return False


def _parse_variable(tokens, dtype: str, missing_token: str) -> tuple:
    """The variable column of byte tokens as (values, dtype).

    Numeric values are floats with NaN for missing (so a ``nan`` token is
    missing too); categorical values are the decoded strings with None for
    missing, each distinct label decoded once.  ``auto`` picks numeric when
    every non-missing token parses as a float.  A numeric column is cast
    whole: sorting out its distinct tokens first would cost more than the
    cast when most tokens are distinct (full-precision floats).
    """
    absent = _encoded(missing_token)
    missing = tokens == absent
    if dtype != CATEGORICAL:
        values = _floats(tokens, missing)
        if values is not None:
            return values, NUMERIC
    labels, inverse = _distinct(tokens)
    strings = [None if label == absent else label.decode("utf-8")
               for label in labels.tolist()]
    if dtype == NUMERIC:
        raise InputError("row {}: cannot parse {!r} as a number".format(
            *_first(strings, inverse, [s is not None and _not_float(s)
                                       for s in strings])))
    return np.array(strings, dtype=object)[inverse], CATEGORICAL


def _distinct(tokens) -> tuple:
    """``np.unique(tokens, return_inverse=True)``: the sorted distinct tokens
    and each token's index among them."""
    if tokens.dtype.kind != "S" or tokens.itemsize > 8:
        return np.unique(tokens, return_inverse=True)
    # a token of up to 8 bytes, zero-padded to 1, 2, 4 or 8, is one
    # big-endian word: words sort in the tokens' order, and several times
    # faster than strings
    size = 1 << (tokens.itemsize - 1).bit_length()
    words = np.zeros((tokens.size, size), dtype=np.uint8)
    words[:, :tokens.itemsize] = tokens.view(np.uint8).reshape(
        -1, tokens.itemsize)
    values, inverse = np.unique(words.view(">u{}".format(size)).ravel(),
                                return_inverse=True)
    return values.view("S{}".format(size)).astype(tokens.dtype), inverse


def _parse_target(tokens, kind: str, missing_token: str):
    """The target column of byte tokens parsed as numbers, and its
    TargetKind for ``kind`` (``binary``, ``continuous`` or ``multiclass``).
    Each distinct token is parsed once.  A multi-class target's labels must
    be integers; they are recoded to 0..K-1 in sorted order, with the class
    count inferred from the data.  ``_fit`` checks the values.
    """
    missing = tokens == _encoded(missing_token)
    if missing.any():
        raise InputError("row {}: target value is missing"
                         .format(missing.argmax() + 1))
    labels, inverse = _distinct(tokens)
    strings = _decoded(labels)
    bad = [_not_float(s) for s in strings]
    if any(bad):
        raise InputError("row {}: cannot parse target {!r} as a number"
                         .format(*_first(strings, inverse, bad)))
    values = np.array(strings, dtype=float)
    if kind != "multiclass":
        return values[inverse], TargetKind(kind)
    # is_integer() is False for nan and inf
    bad = [not v.is_integer() for v in values.tolist()]
    if any(bad):
        raise InputError("row {}: class labels must be integers; got {!r}"
                         .format(*_first(strings, inverse, bad)))
    classes, codes = np.unique(values, return_inverse=True)
    if classes.size < 3:
        raise InputError(
            "multiclass target has {} distinct labels; use a binary target"
            .format(classes.size))
    return codes[inverse], TargetKind.multiclass(int(classes.size))


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


def _row_stats(table, ne_total: float, e_total: float) -> list:
    """Stats of each row of the pre-bin table ``table``."""
    kind = table.target
    targets = (table.event if kind.is_binary else table.total
               if kind.is_continuous else table.class_events.T).tolist()
    return [_bin_stats(kind, count, target, ne_total, e_total)
            for count, target in zip(table.count.tolist(), targets)]


def _pool_stats(ys, target_kind: TargetKind, ne_total: float,
                e_total: float) -> BinStats:
    """Stats of the pool of records whose targets are ``ys``, as a row."""
    pool = preprocess.PrebinTable(target_kind, **preprocess._tabulate(
        np.zeros(len(ys), dtype=np.intp), np.asarray(ys, dtype=float),
        target_kind, 1))
    return _row_stats(pool, ne_total, e_total)[0]


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
    that is not binary, is an InvalidConfigError.  A target value outside its
    kind's domain is an InputError naming its row: a binary value outside
    {0, 1}, a multi-class label outside the integers 0..K-1, a continuous
    value that is not finite.  So is a continuous target whose sum of squares
    is not finite: that sum bounds every bin sum, mean and deviation the fit
    takes (a merge's squared deviations of pre-bin means sum to at most its
    records' squares), so none overflows.
    """
    validate_config(cfg)
    _check_time_limit(time_budget)
    if cfg.max_pvalue is not None and not target_kind.is_binary:
        raise InvalidConfigError(["--max-pvalue applies to binary targets "
                                  "only, not {}".format(target_kind.kind)])
    y = np.asarray(target, dtype=float)
    if target_kind.is_continuous:
        bad, domain = ~np.isfinite(y), "a finite number"
    else:
        k = target_kind.n_classes if target_kind.is_multiclass else 2
        bad = ~np.isin(y, np.arange(k))           # nan is in no class
        domain = "an integer in 0..{}".format(k - 1)
    if bad.any():
        i = int(bad.argmax())
        raise InputError("row {}: {} target must be {}; got {}".format(
            i + 1, target_kind.kind, domain, y[i]))
    if target_kind.is_continuous:
        with np.errstate(over="ignore"):
            if not math.isfinite(float(np.dot(y, y))):
                raise InputError("the continuous target's sums must not "
                                 "overflow")
    if dtype != NUMERIC:        # a label keeps its type: 1 is "1", not "1.0"
        values = np.asarray(values, dtype=object)
    (xc, yc), (xs, ys_special), (xm, ys_missing) = \
        preprocess.split_missing_special(values, target, cfg.special_values)
    if not len(xc):
        raise DegenerateColumnError(
            "no records left after routing special and missing values")

    if dtype == NUMERIC:
        splits = preprocess.prebin_numeric(xc, cfg.prebin_count,
                                           cfg.prebin_min_frac)
        table = preprocess.build_prebin_table(xc, yc, target_kind,
                                              splits=splits)
        pool = None
    else:
        table, pool = preprocess.prebin_categorical(
            xc, yc, target_kind, cfg.cat_others_cutoff)

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

    if solver_name == "ls":
        sol = ls_solve(agg, cfg, seed=seed, time_limit=time_budget)
    else:
        sol = solve(agg, cfg)
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
    bins = _row_stats(binned, ne_total, e_total)
    special = _pool_stats(ys_special, target_kind, ne_total, e_total)
    missing = _pool_stats(ys_missing, target_kind, ne_total, e_total)
    others_stats = _row_stats(pool, ne_total, e_total)[0] if pool else None

    q = _assess(bins, cfg.divergence).score if target_kind.is_binary else None

    if isinstance(sol.trend_used, TrendSpec):
        trend_text = sol.trend_used.as_text()
    else:
        trend_text = ",".join(t.as_text() for t in sol.trend_used)

    def value(b):
        return b.woe if target_kind.is_binary else b.mean

    return BinningModel(
        variable=variable, dtype=dtype, target_kind=target_kind,
        splits=binned.splits, groups=binned.groups,
        others=pool.groups[0] if pool else (),
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

def _bin_labels(model: BinningModel) -> list:
    """The optimized bins' row labels, left to right."""
    if model.dtype != NUMERIC:
        return ["[{}]".format(", ".join(g)) for g in model.groups]
    edges = [float("-inf"), *model.splits, float("inf")]
    return ["{}, {}".format("(-inf" if lo == -math.inf else "[{:g}".format(lo),
                            "inf)" if hi == math.inf else "{:g})".format(hi))
            for lo, hi in zip(edges, edges[1:])]


def _pool_rows(model: BinningModel) -> list:
    """(label, stats, transform value) of each table row after the bins, in
    the order ``preprocess.table_rows`` numbers them: Others when the model
    pools categories, then Special, then Missing."""
    others = [("Others", model.others_stats, model.others_value)] \
        if model.others else []
    return [*others, ("Special", model.special, model.special_value),
            ("Missing", model.missing, model.missing_value)]


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


def _row_outputs(model: BinningModel, mode: str) -> list:
    """The transform output of each table row: the bins', then the pools'."""
    m = len(_bin_labels(model))
    pools = [value for _, _, value in _pool_rows(model)]
    if mode == "index":
        return list(range(m + len(pools)))
    if len(model.transform_values) != m:
        raise InputError("model has {} transform values for {} bins"
                         .format(len(model.transform_values), m))
    return [*model.transform_values, *pools]


def transform_values(model: BinningModel, values, mode: str = "auto"):
    """Map raw values through the fitted binning, as one array; index mode
    numbers the table rows as ``preprocess.table_rows`` does."""
    outputs = _row_outputs(model, _resolve_mode(model, mode))
    numeric = model.dtype == NUMERIC
    rows = preprocess.table_rows(
        values, model.config.special_values,
        splits=model.splits if numeric else None,
        groups=None if numeric else model.groups, others=bool(model.others))
    return np.take(np.asarray(outputs), rows)


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
    labeled = [*zip(_bin_labels(model), model.bins),
               *((label, stats) for label, stats, _ in _pool_rows(model))]
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
    values, target = _read_columns(args.data, [args.variable, args.target])
    values, dtype = _parse_variable(values, args.dtype, args.missing_token)
    target, kind = _parse_target(target, args.target_kind, args.missing_token)

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
    print(model.to_json() if args.format == "json" else
          "\n\n".join([render_summary(model), render_table(model)]))
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
    print(model.to_json() if args.format == "json" else "\n\n".join(
        [render_summary(model), render_quality(model), render_table(model)]))
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
