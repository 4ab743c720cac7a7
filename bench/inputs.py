"""Seeded input generators for the benchmark workloads.

Every generator is a pure function of its seed: the same seed gives the same
CSV bytes and the same pre-bin tables.  Only numpy is used here, so the
harness can build inputs without importing the program under test; the
program receives nothing but what these functions return.
"""

from __future__ import annotations

import numpy as np

SENTINEL = "-999"            # the numeric column's special value
N_CATEGORIES = 60

TARGET_KINDS = ("binary-iv", "binary-jsd", "continuous", "multiclass")
TREND_FAMILIES = ("none", "ascending", "descending", "concave", "convex",
                  "peak", "valley", "peak-pinned", "valley-pinned", "auto")
CONSTRAINT_MIXES = ("floor", "pvalue", "bins", "penalty")
# exact-corpus widths rotate through N_LO..N_HI pre-bins; ls-wide widths
# through LS_WIDTHS.  Wider exact instances reach B&B's multi-second tail,
# which a 25 s run cannot hold enough of to give a steady p95.
N_LO, N_HI = 13, 22
LS_WIDTHS = (60, 76, 68)


def _rng(seed: int, stream: str) -> np.random.Generator:
    # one independent stream per input kind, so resizing one workload's
    # inputs never shifts another's; the mask admits negative seeds
    return np.random.default_rng([seed & (2**64 - 1), *stream.encode()])


# --------------------------------------------------------------------------- #
# cli-csv: one CSV with a numeric and a categorical column and a binary target
# --------------------------------------------------------------------------- #

def write_csv(path: str, seed: int, rows: int) -> None:
    """Columns ``num`` (about 3% empty, 2% SENTINEL), ``cat`` (60 skewed
    categories) and ``y`` (0/1), with the event rate driven by both."""
    rng = _rng(seed, "csv")
    x = rng.normal(50.0, 15.0, rows)
    cat = rng.choice(N_CATEGORIES, size=rows,
                     p=_zipf_weights(N_CATEGORIES, 1.1))
    cat_effect = rng.normal(0.0, 0.8, N_CATEGORIES)
    logit = (x - 55.0) / 12.0 + cat_effect[cat] - 0.4
    y = (rng.random(rows) < 1.0 / (1.0 + np.exp(-logit))).astype(np.int8)

    num = np.char.mod("%.3f", x).astype(object)
    route = rng.random(rows)
    num[route < 0.03] = ""
    num[(route >= 0.03) & (route < 0.05)] = SENTINEL
    labels = np.array(["k{:02d}".format(c) for c in range(N_CATEGORIES)],
                      dtype=object)
    lines = num + "," + labels[cat] + "," + y.astype(str).astype(object)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("num,cat,y\n")
        fh.write("\n".join(lines.tolist()))
        fh.write("\n")


def _zipf_weights(k: int, a: float) -> np.ndarray:
    w = 1.0 / np.arange(1, k + 1) ** a
    return w / w.sum()


# --------------------------------------------------------------------------- #
# pre-bin tables for the in-memory workloads
# --------------------------------------------------------------------------- #

def _rate_curve(rng: np.random.Generator, n: int, shape: int) -> np.ndarray:
    """A smooth event-rate shape over n pre-bins plus pre-bin noise.

    ``shape`` picks rising, falling, hump, dip or flat (mod 5).  Callers
    rotate it with the instance index, independently of the trend the solver
    is asked for, so every seed holds the same mix of shapes."""
    t = np.linspace(-1.0, 1.0, n)
    base = [t, -t, -t * t, t * t, np.zeros(n)][shape % 5]
    logit = -1.25 + base + rng.normal(0.0, 0.15, n)
    return 1.0 / (1.0 + np.exp(-logit))


def _prebin_sizes(rng: np.random.Generator, n: int) -> np.ndarray:
    # equal-frequency pre-bins of a column of about 20k records
    per_bin = 20_000 / n
    return np.maximum(1, rng.normal(per_bin, 0.15 * per_bin, n)).astype(np.int64)


def binary_table(rng: np.random.Generator, n: int, shape: int) -> dict:
    count = _prebin_sizes(rng, n)
    event = rng.binomial(count, _rate_curve(rng, n, shape))
    return {"count": count, "event": event}


def continuous_table(rng: np.random.Generator, n: int, shape: int) -> dict:
    count = _prebin_sizes(rng, n)
    means = 10.0 + 8.0 * _rate_curve(rng, n, shape)
    total = means * count + rng.normal(0.0, 3.0, n) * np.sqrt(count)
    return {"count": count, "total": total}


def multiclass_table(rng: np.random.Generator, n: int, shape: int) -> dict:
    count = _prebin_sizes(rng, n)
    k = 3 + shape % 2
    weights = np.stack([_rate_curve(rng, n, shape + c) for c in range(k)])
    probs = weights / weights.sum(axis=0)
    class_events = np.stack([rng.multinomial(c, p) for c, p in
                             zip(count, probs.T)], axis=1)
    return {"count": count, "class_events": class_events}


_TABLES = {"binary-iv": binary_table, "binary-jsd": binary_table,
           "continuous": continuous_table, "multiclass": multiclass_table}


def exact_specs(seed: int, size: int) -> list:
    """The exact-corpus instances: a full factorial of target kind x trend
    family x constraint mix (160 cells), cycled to ``size`` instances, with
    n between N_LO and N_HI and the table data drawn from the seed."""
    rng = _rng(seed, "exact-corpus")
    specs = []
    for i in range(size):
        kind = TARGET_KINDS[i % 4]
        family = TREND_FAMILIES[(i // 4) % 10]
        mix = CONSTRAINT_MIXES[(i // 40) % 4]
        n = N_LO + (7 * i) % (N_HI - N_LO + 1)
        table = _TABLES[kind](rng, n, i)
        specs.append({"id": i, "kind": kind, "family": family, "mix": mix,
                      "n": n, "table": table,
                      "config": _mix_config(rng, kind, family, mix, table)})
    return specs


def _mix_config(rng, kind: str, family: str, mix: str, table: dict) -> dict:
    """BinningConfig keywords (plus trend text) for one constraint mix.

    Every mix keeps the CLI's default 5% size floor, which the harness fills
    in from the table exactly as ``fit`` does."""
    n = table["count"].size
    cfg = {"trend": _trend_text(rng, family, n),
           "divergence": "jsd" if kind == "binary-jsd" else "iv"}
    if kind == "multiclass":
        cfg["trend"] = ",".join([cfg["trend"]] * table["class_events"].shape[0])
    if mix == "pvalue":
        cfg["max_pvalue"] = 0.05
    elif mix == "bins":
        cfg["max_bins"] = int(rng.integers(4, 7))
        cfg["min_diff"] = 0.0 if kind == "continuous" else 0.002
    elif mix == "penalty":
        conc = ("std", "hhi", "maxmin")[int(rng.integers(0, 3))]
        # std and max-min are in records: scale them to the objective's size
        scale = 1.0 if conc == "hhi" else float(table["count"].sum())
        cfg["concentration"] = conc
        cfg["gamma"] = 0.05 / scale
    return cfg


def _trend_text(rng, family: str, n: int) -> str:
    if family.endswith("-pinned"):
        return "{}:{}".format(family.split("-")[0], int(rng.integers(0, n)))
    return family


def ls_specs(seed: int, size: int) -> list:
    """The ls-wide instances: binary tables in a fixed rotation of widths,
    alternating without and with a p-value separation constraint.  The
    search seed is the instance index, so seeds differ only in table data."""
    rng = _rng(seed, "ls-wide")
    specs = []
    for i in range(size):
        n = LS_WIDTHS[i % len(LS_WIDTHS)]
        cfg = {"trend": "ascending" if i % 4 < 2 else "descending"}
        if i % 2:
            cfg["max_pvalue"] = 0.05
        specs.append({"id": i, "kind": "binary-iv", "family": cfg["trend"],
                      "mix": "pvalue" if i % 2 else "floor", "n": n,
                      "table": binary_table(rng, n, i), "config": cfg,
                      "ls_seed": i})
    return specs
