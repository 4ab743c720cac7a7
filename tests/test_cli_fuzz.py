"""Small random CSVs through ``cli.main``: every call must end in exit code
0, 2 or 3 and never raise.

Each file has at most 60 rows and at most 12 distinct values per column, so
every solve stays small.  Columns mix numbers with odd tokens (``nan``,
``inf``, empty cells, ``NA``, text), and the flags cover every target kind
and ``--dtype``, the trends none, auto, peak and concave, and the ``hhi`` and
``maxmin`` concentration penalties.  The ``std`` penalty is left out: its
solves have no time bound.  A fit that writes a model is transformed too.
"""

import numpy as np

from binopt import cli

ODD = ("nan", "inf", "-inf", "", "NA", "abc", " 2 ", "1e3")
WORDS = ("own", "rent", "a b", "é", "0", "1", "-9")
TARGETS = {
    "binary": ("0", "1"),
    "continuous": ("0", "1.5", "-2", "1e6", "3.25", "-0"),
    "multiclass": ("0", "1", "2", "3"),
}


def _pool(rng, tokens, odd: float, most: int) -> list:
    """At most 12 distinct tokens: a sample of ``tokens``, and with
    probability ``odd`` one of up to ``most`` tokens of ``ODD``."""
    pool = list(rng.choice(tokens, int(rng.integers(1, min(len(tokens), 8) + 1)),
                           replace=False))
    if rng.random() < odd:
        pool += list(rng.choice(ODD, int(rng.integers(1, most + 1)),
                                replace=False))
    return pool


def _variable_tokens(rng) -> tuple:
    numbers = ["{:g}".format(v) for v in np.round(rng.normal(50, 20, 8), 1)]
    return tuple(numbers) if rng.random() < 0.6 else WORDS


def _flags(rng, kind: str) -> list:
    flags = ["--target-kind", kind,
             "--dtype", str(rng.choice(["auto", "numeric", "categorical"])),
             "--trend", str(rng.choice(["none", "auto", "peak", "concave"])),
             "--min-bins", str(rng.integers(1, 4))]
    if rng.random() < 0.5:
        flags += ["--max-bins", str(rng.integers(2, 6))]
    if rng.random() < 0.3:
        flags += ["--concentration", str(rng.choice(["hhi", "maxmin"])),
                  "--gamma", str(rng.choice([0.0, 0.1, 1.0]))]
    if rng.random() < 0.3:
        flags += ["--max-pvalue", "0.2"]
    if rng.random() < 0.3:
        flags += ["--min-bin-size", str(rng.integers(1, 10))]
    if rng.random() < 0.3:
        flags += ["--special-values", str(rng.choice(["-9", "own,0", "inf"]))]
    if rng.random() < 0.3:
        flags += ["--others-cutoff", str(rng.choice([0.05, 0.2]))]
    if rng.random() < 0.2:
        flags += ["--solver", "ls", "--seed", str(rng.integers(0, 5))]
    return flags


def test_small_random_csvs_exit_0_2_or_3(tmp_path, capsys):
    rng = np.random.default_rng(2026)
    codes = []
    for i in range(200):
        kind = str(rng.choice(list(TARGETS)))
        rows = int(rng.integers(1, 61))
        xs = _pool(rng, _variable_tokens(rng), 0.5, 4)
        ys = _pool(rng, TARGETS[kind], 0.3, 1)
        lines = ["x,y", *("{},{}".format(rng.choice(xs), rng.choice(ys))
                          for _ in range(rows))]
        data, model = tmp_path / "d{}.csv".format(i), tmp_path / "m.json"
        data.write_text("\n".join(lines) + "\n", encoding="utf-8")
        model.unlink(missing_ok=True)
        missing = ["--missing-token", str(rng.choice(["", "NA"]))]
        argv = ["fit", "--data", str(data), "--variable", "x", "--target", "y",
                "--model", str(model), *missing, *_flags(rng, kind)]
        code = cli.main(argv)
        assert code in (0, 2, 3), argv
        if code == 0:
            mode = str(rng.choice(["auto", "index"]))
            assert cli.main(["transform", "--data", str(data), "--model",
                             str(model), "--mode", mode, *missing]) == 0, argv
        codes.append(code)
        capsys.readouterr()
    assert set(codes) == {0, 2, 3}
