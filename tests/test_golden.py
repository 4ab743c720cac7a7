"""Byte-for-byte golden outputs of ``binopt fit`` and ``binopt transform``.

``tests/data/golden.csv`` is a small deterministic CSV that exercises the
ingest edge cases: empty cells, the ``-999`` sentinel, a literal ``nan``
token, quoted fields, blank lines, a categorical column with rare categories,
and binary, continuous and multi-class targets.  For every case below the
committed model JSON, printed table and transform output must be reproduced
exactly.

Regenerate the CSV and the expected files (only at a commit whose outputs are
known to be right) with::

    PYTHONPATH=src python tests/test_golden.py
"""

import os
from contextlib import redirect_stdout

import numpy as np
import pytest

from binopt import cli

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
CSV = os.path.join(DATA, "golden.csv")
EXPECTED = os.path.join(DATA, "golden")

# name -> (fit flags, transform flags); --data, --model and --output are added
CASES = {
    "num-binary": (
        ["--variable", "num", "--target", "yb", "--special-values=-999",
         "--trend", "auto", "--max-pvalue", "0.05"],
        []),
    "num-binary-index": (
        ["--variable", "num", "--target", "yb", "--special-values=-999",
         "--trend", "ascending", "--prebins", "12"],
        ["--mode", "index"]),
    "cat-binary": (
        ["--variable", "cat", "--target", "yb", "--others-cutoff", "0.02",
         "--special-values", "zz"],
        []),
    "num-continuous": (
        ["--variable", "num", "--target", "yc", "--target-kind", "continuous",
         "--special-values=-999", "--trend", "ascending"],
        []),
    "cat-continuous": (
        ["--variable", "cat", "--target", "yc", "--target-kind", "continuous",
         "--others-cutoff", "0.02"],
        ["--mode", "index"]),
    "num-multiclass": (
        ["--variable", "num", "--target", "ym", "--target-kind", "multiclass",
         "--special-values=-999"],
        []),
    "cat-multiclass": (
        ["--variable", "cat", "--target", "ym", "--target-kind", "multiclass",
         "--others-cutoff", "0.02"],
        []),
    "ties-binary": (
        ["--variable", "ym", "--target", "yb", "--dtype", "numeric"],
        ["--mode", "index"]),
}


def write_csv(path: str, rows: int = 3000, seed: int = 20240917) -> None:
    """Columns ``num``, ``cat``, ``yb`` (0/1), ``yc`` (real) and ``ym``
    (labels 0-2), with a few hand-placed quoted fields and blank lines."""
    rng = np.random.default_rng(seed)
    x = rng.normal(40.0, 12.0, rows)
    cats = ["rent", "own", "mortgage", "family", "coop", "boat", "nan",
            "a,b"]
    weights = np.array([30, 25, 20, 15, 4, 3, 2, 1], dtype=float)
    cat = rng.choice(len(cats), size=rows, p=weights / weights.sum())
    cat_effect = np.linspace(-1.0, 1.0, len(cats))
    logit = (x - 40.0) / 10.0 + cat_effect[cat]
    yb = (rng.random(rows) < 1.0 / (1.0 + np.exp(-logit))).astype(int)
    yc = 0.5 * x + 3.0 * cat_effect[cat] + rng.normal(0.0, 4.0, rows)
    ym = np.clip(((x - 20.0) // 10.0).astype(int), 0, 2)
    ym = np.where(rng.random(rows) < 0.3, rng.integers(0, 3, rows), ym)

    lines = ["num,cat,yb,yc,ym"]
    for i in range(rows):
        u = rng.random()
        if u < 0.03:
            num = ""
        elif u < 0.05:
            num = "-999"
        elif u < 0.06:
            num = "nan"
        elif u < 0.07:
            num = '"{:.3f}"'.format(x[i])        # quoted number
        elif u < 0.075:
            num = "{:.2e}".format(x[i])
        else:
            num = "{:.3f}".format(x[i])
        label = cats[cat[i]]
        c = '"a,b"' if label == "a,b" else label
        if rng.random() < 0.02:
            c = ""                                # missing category
        elif rng.random() < 0.01:
            c = '"{}"'.format(label.replace(",", ";"))
        b = "1.0" if yb[i] and rng.random() < 0.05 else str(yb[i])
        m = "2.0" if ym[i] == 2 and rng.random() < 0.05 else str(ym[i])
        lines.append("{},{},{},{:.4f},{}".format(num, c, b, yc[i], m))
        if i in (10, 1500):
            lines.append("")                      # blank line
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def run_case(name: str, tmp: str) -> dict:
    """{file suffix: bytes} of one case's fit and transform."""
    fit_flags, transform_flags = CASES[name]
    model = os.path.join(tmp, name + ".model.json")
    output = os.path.join(tmp, name + ".transform.txt")
    table = os.path.join(tmp, name + ".table.txt")
    with open(table, "w", encoding="utf-8") as fh, redirect_stdout(fh):
        code = cli.main(["fit", "--data", CSV, "--model", model, *fit_flags])
    assert code == 0, name
    code = cli.main(["transform", "--data", CSV, "--model", model,
                     "--output", output, *transform_flags])
    assert code == 0, name
    out = {}
    for path in (model, table, output):
        with open(path, "rb") as fh:
            out[os.path.basename(path)[len(name):]] = fh.read()
    return out


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_outputs_are_byte_identical(name, tmp_path):
    for suffix, got in run_case(name, str(tmp_path)).items():
        with open(os.path.join(EXPECTED, name + suffix), "rb") as fh:
            assert got == fh.read(), name + suffix


def test_fixture_covers_the_edge_cases():
    with open(CSV, encoding="utf-8") as fh:
        text = fh.read()
    lines = text.split("\n")
    assert 3000 <= len(lines) <= 3100
    assert "" in lines[1:-1]                      # blank line inside
    for start in (",", "-999,", "nan,", '"'):     # num: empty, sentinel, ...
        assert any(line.startswith(start) for line in lines), start
    for token in (",,", ',"a,b",', ",nan,", ",1.0,"):
        assert token in text, token
    assert any(line.endswith(",2.0") for line in lines)


def regenerate() -> None:
    os.makedirs(EXPECTED, exist_ok=True)
    write_csv(CSV)
    for name in sorted(CASES):
        run_case(name, EXPECTED)


if __name__ == "__main__":
    regenerate()
