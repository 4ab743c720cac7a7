"""Core domain types: targets, trends, configuration, solutions, fitted models.

Everything downstream (preprocessing, aggregation, solving, CLI) speaks in terms
of these types.  All of them are immutable value objects; pre-bin and bin indices
are 0-based everywhere.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field, fields, asdict


# --------------------------------------------------------------------------- #
# errors
# --------------------------------------------------------------------------- #

class BinoptError(Exception):
    """Base class for all errors raised by this package."""


class InvalidConfigError(BinoptError):
    """Configuration violates one or more invariants.

    Carries the full list of violations, not just the first one found.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("invalid configuration: " + "; ".join(self.violations))


class DegenerateColumnError(BinoptError):
    """The clean part of a column has a single distinct value."""


class InfeasibleError(BinoptError):
    """No feasible binning exists for the given data and constraints."""


class TimeBudgetError(BinoptError):
    """The time budget ran out before a feasible partition was found."""


class ZeroCountError(BinoptError):
    """A count that must be positive is zero (WoE/divergence undefined)."""


class InputError(BinoptError):
    """Bad user input (CLI data, model files, unparseable values)."""


# --------------------------------------------------------------------------- #
# target kinds
# --------------------------------------------------------------------------- #

BINARY = "binary"
CONTINUOUS = "continuous"
MULTICLASS = "multiclass"


@dataclass(frozen=True)
class TargetKind:
    """What the response variable is: binary, continuous, or multi-class.

    ``n_classes`` is meaningful only for multi-class targets (>= 3 classes;
    a 2-class problem is a binary target).
    """

    kind: str
    n_classes: int = 0

    @classmethod
    def binary(cls) -> "TargetKind":
        return cls(BINARY)

    @classmethod
    def continuous(cls) -> "TargetKind":
        return cls(CONTINUOUS)

    @classmethod
    def multiclass(cls, n_classes: int) -> "TargetKind":
        if not isinstance(n_classes, numbers.Integral) or n_classes < 3:
            raise InvalidConfigError(
                ["multiclass targets need n_classes >= 3; got {}".format(n_classes)]
            )
        return cls(MULTICLASS, int(n_classes))

    @property
    def is_binary(self) -> bool:
        return self.kind == BINARY

    @property
    def is_continuous(self) -> bool:
        return self.kind == CONTINUOUS

    @property
    def is_multiclass(self) -> bool:
        return self.kind == MULTICLASS


# --------------------------------------------------------------------------- #
# trends
# --------------------------------------------------------------------------- #

TREND_NONE = "none"
ASCENDING = "ascending"
DESCENDING = "descending"
CONCAVE = "concave"
CONVEX = "convex"
PEAK = "peak"
VALLEY = "valley"
AUTO = "auto"

_TREND_KINDS = (
    TREND_NONE, ASCENDING, DESCENDING, CONCAVE, CONVEX, PEAK, VALLEY, AUTO,
)


@dataclass(frozen=True)
class TrendSpec:
    """Shape constraint on the sequence of bin event rates (or means).

    ``change_point`` pins the peak/valley to the bin containing that 0-based
    pre-bin index; when None the change point is free and optimized over.
    """

    kind: str = TREND_NONE
    change_point: int | None = None

    def __post_init__(self):
        if self.kind not in _TREND_KINDS:
            raise InvalidConfigError(
                ["unknown trend kind {!r}; expected one of {}".format(
                    self.kind, ", ".join(_TREND_KINDS))]
            )
        if self.change_point is not None:
            if self.kind not in (PEAK, VALLEY):
                raise InvalidConfigError(
                    ["change_point only applies to peak/valley trends; got {!r}"
                     .format(self.kind)]
                )
            if not isinstance(self.change_point, numbers.Integral) or self.change_point < 0:
                raise InvalidConfigError(
                    ["change_point must be a nonnegative pre-bin index; got {!r}"
                     .format(self.change_point)]
                )

    @classmethod
    def parse(cls, text: str) -> "TrendSpec":
        """Parse CLI syntax: ``ascending``, ``peak``, ``peak:3``, ..."""
        text = text.strip().lower()
        if ":" in text:
            kind, _, raw = text.partition(":")
            try:
                t = int(raw)
            except ValueError:
                raise InvalidConfigError(
                    ["cannot parse change point {!r} in trend {!r}".format(raw, text)]
                ) from None
            return cls(kind, t)
        return cls(text)

    def as_text(self) -> str:
        if self.change_point is not None:
            return "{}:{}".format(self.kind, self.change_point)
        return self.kind


# --------------------------------------------------------------------------- #
# configuration
# --------------------------------------------------------------------------- #

CONC_OFF = "off"
CONC_STD = "std"
CONC_HHI = "hhi"
CONC_MAXMIN = "maxmin"

_CONC_KINDS = (CONC_OFF, CONC_STD, CONC_HHI, CONC_MAXMIN)

DIV_IV = "iv"
DIV_JSD = "jsd"


@dataclass(frozen=True)
class BinningConfig:
    """All knobs of the binning problem.

    Size bounds are record counts (not fractions).  ``min_bin_size=None`` means
    "use the default 5% floor" when fitting from raw data and "unconstrained"
    when handed straight to the solver.  ``max_bins=None`` means "number of
    pre-bins".  ``trend`` is a single TrendSpec, or a tuple with one TrendSpec
    per class for multi-class targets.
    """

    min_bins: int = 2
    max_bins: int | None = None
    min_bin_size: int | None = None
    max_bin_size: int | None = None
    min_nonevent: int | None = None
    max_nonevent: int | None = None
    min_event: int | None = None
    max_event: int | None = None
    min_diff: float = 0.0
    concentration: str = CONC_OFF
    gamma: float = 0.0
    max_pvalue: float | None = None
    trend: TrendSpec | tuple = TrendSpec()
    divergence: str = DIV_IV
    prebin_count: int = 20
    prebin_min_frac: float = 0.05
    special_values: tuple = ()
    cat_others_cutoff: float = 0.0
    norm_p: int = 2


def _is_count(x) -> bool:
    return isinstance(x, numbers.Integral) and not isinstance(x, bool) and x >= 0


def _is_real(x) -> bool:
    """Is ``x`` a real number (NaN and inf included), not a bool?"""
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


def _is_nonneg_finite(x) -> bool:
    """Is ``x`` a real number in [0, inf)?  NaN and inf are not."""
    return isinstance(x, numbers.Real) and 0 <= x < math.inf


def validate_config(config: BinningConfig) -> BinningConfig:
    """Check every invariant and return the config unchanged.

    Raises InvalidConfigError listing *all* violations (per-field diagnostics),
    not just the first.
    """
    bad = []

    if not _is_count(config.min_bins) or config.min_bins < 1:
        bad.append("min_bins must be an integer >= 1; got {!r}".format(config.min_bins))
    if config.max_bins is not None:
        if not _is_count(config.max_bins) or config.max_bins < 1:
            bad.append("max_bins must be an integer >= 1 or None; got {!r}"
                       .format(config.max_bins))
        elif _is_count(config.min_bins) and config.min_bins > config.max_bins:
            bad.append("min_bins must be <= max_bins; got {} > {}"
                       .format(config.min_bins, config.max_bins))

    for lo_name, hi_name in (
        ("min_bin_size", "max_bin_size"),
        ("min_nonevent", "max_nonevent"),
        ("min_event", "max_event"),
    ):
        lo, hi = getattr(config, lo_name), getattr(config, hi_name)
        for name, val in ((lo_name, lo), (hi_name, hi)):
            if val is not None and not _is_count(val):
                bad.append("{} must be a nonnegative integer or None; got {!r}"
                           .format(name, val))
        if lo is not None and hi is not None and _is_count(lo) and _is_count(hi) and lo > hi:
            bad.append("{} must be <= {}; got {} > {}".format(lo_name, hi_name, lo, hi))

    if not _is_nonneg_finite(config.min_diff):
        bad.append("min_diff must be a finite real number >= 0; got {!r}"
                   .format(config.min_diff))
    if config.concentration not in _CONC_KINDS:
        bad.append("concentration must be one of {}; got {!r}"
                   .format(", ".join(_CONC_KINDS), config.concentration))
    if not _is_nonneg_finite(config.gamma):
        bad.append("gamma must be a finite real number >= 0; got {!r}"
                   .format(config.gamma))
    if config.max_pvalue is not None:
        if not isinstance(config.max_pvalue, numbers.Real) or not 0 < config.max_pvalue <= 1:
            bad.append("max_pvalue must be in (0, 1] or None; got {!r}"
                       .format(config.max_pvalue))

    trends = config.trend if isinstance(config.trend, tuple) else (config.trend,)
    for t in trends:
        if not isinstance(t, TrendSpec):
            bad.append("trend entries must be TrendSpec; got {!r}".format(t))
    if isinstance(config.trend, tuple) and not config.trend:
        bad.append("trend tuple must not be empty")

    if config.divergence not in (DIV_IV, DIV_JSD):
        bad.append("divergence must be 'iv' or 'jsd'; got {!r}".format(config.divergence))
    if not _is_count(config.prebin_count) or config.prebin_count < 1:
        bad.append("prebin_count must be an integer >= 1; got {!r}"
                   .format(config.prebin_count))
    if (not isinstance(config.prebin_min_frac, numbers.Real)
            or not 0 <= config.prebin_min_frac <= 0.5):
        bad.append("prebin_min_frac must be in [0, 0.5]; got {!r}"
                   .format(config.prebin_min_frac))
    if (not isinstance(config.cat_others_cutoff, numbers.Real)
            or not 0 <= config.cat_others_cutoff < 1):
        bad.append("cat_others_cutoff must be in [0, 1); got {!r}"
                   .format(config.cat_others_cutoff))
    if config.norm_p not in (1, 2):
        bad.append("norm_p must be 1 or 2; got {!r}".format(config.norm_p))

    if bad:
        raise InvalidConfigError(bad)
    return config


# --------------------------------------------------------------------------- #
# solutions
# --------------------------------------------------------------------------- #

OPTIMAL = "optimal"
FEASIBLE = "feasible"
INFEASIBLE = "infeasible"
# a time budget ran out before a search met any feasible partition; unlike
# INFEASIBLE this proves nothing about the constraints
TIME_LIMIT = "time_limit"


@dataclass(frozen=True)
class Solution:
    """A solved partition of the pre-bins into contiguous intervals.

    ``intervals`` is an ordered tuple of (start, end) inclusive 0-based pre-bin
    pairs partitioning the pre-bins.  Empty unless feasible.  ``objective``
    includes the concentration term when one is configured.
    ``change_point``, for one peak/valley on a binary or continuous target,
    is the pin, or else the first pre-bin of the partition's first change
    bin (where its first chain ends and its second begins); else None.
    """

    status: str
    intervals: tuple = ()
    objective: float = float("nan")
    trend_used: TrendSpec | tuple = TrendSpec()
    change_point: int | None = None

    @property
    def n_bins(self) -> int:
        return len(self.intervals)

    @property
    def is_feasible(self) -> bool:
        return self.status in (OPTIMAL, FEASIBLE)


# --------------------------------------------------------------------------- #
# per-bin statistics and fitted models
# --------------------------------------------------------------------------- #

@dataclass(frozen=True)
class BinStats:
    """Summary statistics of one final bin."""

    count: int = 0
    nonevent: int = 0
    event: int = 0
    event_rate: float = 0.0
    woe: float = 0.0
    iv_contrib: float = 0.0
    js_contrib: float = 0.0
    sum: float = 0.0
    mean: float = 0.0
    class_counts: tuple = ()


_MODEL_FORMAT_VERSION = 1


@dataclass(frozen=True)
class BinningModel:
    """A fitted binning: splits/groups, per-bin stats, transform values.

    Numeric variables carry ``splits`` (ascending interior split points making
    half-open intervals (-inf, s0), [s0, s1), ..., [s_last, inf); a value equal
    to a split falls in the bin to its right).  Categorical variables carry
    ``groups`` (one tuple of category labels per bin) plus the ``others`` pool.
    """

    variable: str
    dtype: str                           # "numeric" | "categorical"
    target_kind: TargetKind
    splits: tuple = ()
    groups: tuple = ()
    others: tuple = ()
    bins: tuple = ()                     # BinStats per optimized bin
    special: BinStats = BinStats()
    missing: BinStats = BinStats()
    others_stats: BinStats | None = None
    transform_values: tuple = ()         # per optimized bin (WoE or mean)
    special_value: float = 0.0
    missing_value: float = 0.0
    others_value: float = 0.0
    quality: float | None = None
    objective: float = float("nan")
    trend_used: str = TREND_NONE
    config: BinningConfig = field(default_factory=BinningConfig)
    format_version: int = _MODEL_FORMAT_VERSION

    # -- serialization ------------------------------------------------------ #

    def to_dict(self) -> dict:
        d = asdict(self)
        trend = self.config.trend
        d["config"]["trend"] = (trend.as_text() if isinstance(trend, TrendSpec)
                                else [t.as_text() for t in trend])
        return d

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2,
                          allow_nan=True)

    @classmethod
    def from_dict(cls, d: dict) -> "BinningModel":
        if not isinstance(d, dict):
            raise InputError("malformed model file: not a JSON object")
        if d.get("format_version") != _MODEL_FORMAT_VERSION:
            raise InputError("unsupported model format version {!r}"
                             .format(d.get("format_version")))
        tk = TargetKind(d["target_kind"]["kind"], d["target_kind"]["n_classes"])
        cfg_d = dict(d["config"])
        raw_trend = cfg_d["trend"]
        if isinstance(raw_trend, str):
            cfg_d["trend"] = TrendSpec.parse(raw_trend)
        elif (isinstance(raw_trend, list)
              and all(isinstance(t, str) for t in raw_trend)):
            cfg_d["trend"] = tuple(TrendSpec.parse(t) for t in raw_trend)
        else:
            raise InputError("malformed model file: trend {!r} is not a "
                             "string or a list of strings".format(raw_trend))
        for key in ("special_values",):
            cfg_d[key] = tuple(cfg_d[key])
        cfg = BinningConfig(**cfg_d)

        def stats(s):
            s = dict(s)
            s["class_counts"] = tuple(s.get("class_counts", ()))
            return BinStats(**s)

        model = cls(
            variable=d["variable"],
            dtype=d["dtype"],
            target_kind=tk,
            splits=tuple(d["splits"]),
            groups=tuple(tuple(g) for g in d["groups"]),
            others=tuple(d["others"]),
            bins=tuple(stats(b) for b in d["bins"]),
            special=stats(d["special"]),
            missing=stats(d["missing"]),
            others_stats=stats(d["others_stats"]) if d["others_stats"] else None,
            transform_values=tuple(d["transform_values"]),
            special_value=d["special_value"],
            missing_value=d["missing_value"],
            others_value=d["others_value"],
            quality=d["quality"],
            objective=d["objective"],
            trend_used=d["trend_used"],
            config=cfg,
        )
        model._check_values()
        model._check_bins()
        return model

    def _check_values(self) -> None:
        """Raise InputError unless the target kind is known and every field
        that transform and report read as a number is a real number: splits,
        per-bin and pool statistics, transform and pool values, quality (or
        None), objective, and a numeric model's special values."""
        kind = self.target_kind
        if kind.kind not in (BINARY, CONTINUOUS) and not (
                kind.kind == MULTICLASS and _is_count(kind.n_classes)
                and kind.n_classes >= 3):
            raise InputError("malformed model file: unknown target kind {!r}"
                             .format(kind))
        values = [*self.splits, *self.transform_values, self.special_value,
                  self.missing_value, self.others_value, self.objective]
        if self.quality is not None:
            values.append(self.quality)
        for b in (*self.bins, self.special, self.missing, self.others_stats):
            if b is not None:
                values += [getattr(b, f.name) for f in fields(BinStats)
                           if f.name != "class_counts"]
                values += b.class_counts
        if self.dtype == "numeric":
            values += self.config.special_values
        for v in values:
            if not _is_real(v):
                raise InputError("malformed model file: {!r} is not a "
                                 "number".format(v))

    def _check_bins(self) -> None:
        """Raise InputError unless splits or groups, per-bin statistics and
        transform values describe the same bins.

        ``bins`` may be empty: a model built by hand can carry no per-bin
        statistics.  A categorical model's group labels and special values
        must be strings.  Each bin must hold a record, and a binary bin's
        non-events and events must add up to its records.  Multi-class
        models have no transform values.
        """
        if self.dtype == "numeric":
            what, parts, n = "splits", self.splits, len(self.splits) + 1
            if any(not a < b for a, b in zip(parts, parts[1:])):
                raise InputError("malformed model file: splits are not "
                                 "strictly ascending")
        elif self.dtype == "categorical":
            what, parts, n = "groups", self.groups, len(self.groups)
            label = next((lab for g in (*parts, self.config.special_values)
                          for lab in g if not isinstance(lab, str)), None)
            if label is not None:
                raise InputError("malformed model file: category {!r} is not "
                                 "a string".format(label))
        else:
            raise InputError("malformed model file: unknown dtype {!r}"
                             .format(self.dtype))
        if self.bins and len(self.bins) != n:
            raise InputError("malformed model file: {} {} for {} bins"
                             .format(len(parts), what, len(self.bins)))
        if not self.target_kind.is_multiclass and \
                len(self.transform_values) != n:
            raise InputError("malformed model file: {} transform values for "
                             "{} bins".format(len(self.transform_values), n))
        for i, b in enumerate(self.bins):
            if not b.count >= 1:
                raise InputError("malformed model file: bin {} holds {} "
                                 "records".format(i, b.count))
            if self.target_kind.is_binary and b.nonevent + b.event != b.count:
                raise InputError(
                    "malformed model file: bin {} holds {} non-events and {} "
                    "events but {} records".format(i, b.nonevent, b.event,
                                                   b.count))

    @classmethod
    def from_json(cls, text: str) -> "BinningModel":
        try:
            return cls.from_dict(json.loads(text))
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError("malformed model file: {}".format(exc)) from exc

