import csv
import json
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from binopt import BinningConfig, BinningModel, InputError, TargetKind
from binopt.core import BinStats
from binopt import cli

SRC = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))


# --------------------------------------------------------------------------- #
# synthetic data files
# --------------------------------------------------------------------------- #

def _write_csv(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)
    return str(path)


@pytest.fixture
def binary_csv(tmp_path):
    """Age-vs-default style column: decreasing event rate, some special and
    missing records."""
    rng = np.random.default_rng(2024)
    rows = []
    for _ in range(400):
        u = rng.random()
        if u < 0.03:
            age = ""                      # missing
            p = 0.5
        elif u < 0.08:
            age = "-9"                    # special code
            p = 0.5
        else:
            a = float(rng.uniform(20, 80))
            age = "{:.2f}".format(a)
            p = 1.0 / (1.0 + math.exp((a - 45.0) / 10.0))
        rows.append([age, int(rng.random() < p)])
    return _write_csv(tmp_path / "loans.csv", ["age", "default"], rows)


@pytest.fixture
def categorical_csv(tmp_path):
    rng = np.random.default_rng(7)
    cats = ["rent"] * 40 + ["own"] * 40 + ["mortgage"] * 40 + \
           ["family"] * 40 + ["coop"] * 3 + ["boat"] * 2
    rates = {"rent": 0.7, "own": 0.2, "mortgage": 0.35, "family": 0.5,
             "coop": 0.4, "boat": 0.6}
    rows = [[c, int(rng.random() < rates[c])] for c in cats]
    rng.shuffle(rows)
    return _write_csv(tmp_path / "housing.csv", ["housing", "default"], rows)


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


# --------------------------------------------------------------------------- #
# fit
# --------------------------------------------------------------------------- #

class TestFit:
    def test_numeric_binary_end_to_end(self, binary_csv, tmp_path, capsys):
        model_path = str(tmp_path / "model.json")
        code, out, _ = run(capsys, [
            "fit", "--data", binary_csv, "--variable", "age",
            "--target", "default", "--trend", "descending",
            "--special-values", "-9", "--model", model_path])
        assert code == 0
        assert "variable: age (numeric)" in out
        assert "trend: descending" in out
        assert "Event rate" in out and "WoE" in out
        assert "Special" in out and "Missing" in out

        model = BinningModel.from_json(open(model_path).read())
        assert model.dtype == "numeric"
        assert list(model.splits) == sorted(model.splits)
        assert len(model.bins) == len(model.splits) + 1
        assert 0.0 <= model.quality <= 1.0
        # event rates must actually descend
        rates = [b.event_rate for b in model.bins]
        assert rates == sorted(rates, reverse=True)
        # the printed table carries the model's own numbers
        assert "{:.5f}".format(model.bins[0].woe) in out

    def test_row_accounting(self, binary_csv, tmp_path, capsys):
        model_path = str(tmp_path / "m.json")
        code, _, _ = run(capsys, [
            "fit", "--data", binary_csv, "--variable", "age",
            "--target", "default", "--special-values", "-9",
            "--model", model_path])
        assert code == 0
        model = BinningModel.from_json(open(model_path).read())
        rows = sum(1 for _ in open(binary_csv)) - 1
        counted = (sum(b.count for b in model.bins)
                   + model.special.count + model.missing.count)
        assert counted == rows
        assert model.special.count > 0 and model.missing.count > 0

    def test_json_format_prints_model(self, binary_csv, capsys):
        code, out, _ = run(capsys, [
            "fit", "--data", binary_csv, "--variable", "age",
            "--target", "default", "--format", "json"])
        assert code == 0
        d = json.loads(out)
        assert d["variable"] == "age"
        assert d["format_version"] == 1

    def test_refit_is_byte_identical(self, binary_csv, tmp_path, capsys):
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        for path in (a, b):
            code, _, _ = run(capsys, [
                "fit", "--data", binary_csv, "--variable", "age",
                "--target", "default", "--trend", "auto",
                "--special-values", "-9", "--model", path])
            assert code == 0
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_categorical_with_others_pool(self, categorical_csv, tmp_path,
                                          capsys):
        model_path = str(tmp_path / "cat.json")
        code, out, _ = run(capsys, [
            "fit", "--data", categorical_csv, "--variable", "housing",
            "--target", "default", "--others-cutoff", "0.05",
            "--model", model_path])
        assert code == 0
        assert "Others" in out
        model = BinningModel.from_json(open(model_path).read())
        assert model.dtype == "categorical"
        assert set(model.others) == {"boat", "coop"}
        grouped = [lab for g in model.groups for lab in g]
        assert sorted(grouped) == ["family", "mortgage", "own", "rent"]
        assert model.others_stats.count == 5

    def test_continuous_target(self, tmp_path, capsys):
        rng = np.random.default_rng(11)
        rows = []
        for _ in range(300):
            x = float(rng.uniform(0, 10))
            rows.append(["{:.3f}".format(x),
                         "{:.4f}".format(2.0 * x + rng.normal())])
        data = _write_csv(tmp_path / "cont.csv", ["x", "y"], rows)
        code, out, _ = run(capsys, [
            "fit", "--data", data, "--variable", "x", "--target", "y",
            "--target-kind", "continuous", "--trend", "ascending"])
        assert code == 0
        assert "Mean" in out and "Sum" in out
        assert "WoE" not in out
        assert "quality" not in out      # binary-only notion

    def test_multiclass_target(self, tmp_path, capsys):
        rng = np.random.default_rng(12)
        rows = []
        for _ in range(400):
            x = float(rng.uniform(0, 9))
            lab = min(2, int(x // 3)) if rng.random() < 0.7 else \
                int(rng.integers(0, 3))
            rows.append(["{:.3f}".format(x), lab])
        data = _write_csv(tmp_path / "mc.csv", ["x", "grade"], rows)
        code, out, _ = run(capsys, [
            "fit", "--data", data, "--variable", "x", "--target", "grade",
            "--target-kind", "multiclass"])
        assert code == 0
        assert "Class 0" in out and "Class 2" in out

    def test_ls_solver(self, binary_csv, capsys):
        code, out, _ = run(capsys, [
            "fit", "--data", binary_csv, "--variable", "age",
            "--target", "default", "--solver", "ls", "--seed", "7",
            "--special-values", "-9"])
        assert code == 0
        assert "objective:" in out

    def test_missing_token(self, tmp_path, capsys):
        rng = np.random.default_rng(3)
        rows = []
        for i in range(200):
            x = "NA" if i % 20 == 0 else "{:.2f}".format(rng.uniform(0, 10))
            y = int(rng.random() < 0.4)
            rows.append([x, y])
        data = _write_csv(tmp_path / "na.csv", ["v", "t"], rows)
        code, out, _ = run(capsys, [
            "fit", "--data", data, "--variable", "v", "--target", "t",
            "--missing-token", "NA", "--format", "json"])
        assert code == 0
        assert json.loads(out)["missing"]["count"] == 10


    def test_nan_token_is_missing(self, tmp_path, capsys):
        rng = np.random.default_rng(5)
        rows = []
        for i in range(200):
            x = ("nan", "NaN", "")[i % 3] if i % 25 == 0 else \
                "{:.2f}".format(rng.uniform(0, 10))
            rows.append([x, int(rng.random() < 0.4)])
        data = _write_csv(tmp_path / "nan.csv", ["v", "t"], rows)
        code, out, _ = run(capsys, [
            "fit", "--data", data, "--variable", "v", "--target", "t",
            "--format", "json"])
        assert code == 0
        model = json.loads(out)
        assert model["dtype"] == "numeric"
        assert model["missing"]["count"] == 8


class TestFitExitCodes:
    def test_infeasible_is_2(self, binary_csv, capsys):
        code, _, err = run(capsys, [
            "fit", "--data", binary_csv, "--variable", "age",
            "--target", "default", "--min-bins", "50"])
        assert code == 2
        assert "infeasible" in err

    def test_constant_column_is_2(self, tmp_path, capsys):
        data = _write_csv(tmp_path / "c.csv", ["x", "y"],
                          [[5, i % 2] for i in range(50)])
        code, _, err = run(capsys, [
            "fit", "--data", data, "--variable", "x", "--target", "y"])
        assert code == 2
        assert "infeasible" in err

    def test_unknown_column_is_3(self, binary_csv, capsys):
        code, _, err = run(capsys, [
            "fit", "--data", binary_csv, "--variable", "wage",
            "--target", "default"])
        assert code == 3
        assert "no column 'wage'" in err

    def test_missing_file_is_3(self, capsys):
        code, _, err = run(capsys, [
            "fit", "--data", "/nonexistent.csv", "--variable", "x",
            "--target", "y"])
        assert code == 3
        assert "cannot read" in err

    def test_empty_file_is_3(self, tmp_path, capsys):
        path = tmp_path / "empty.csv"
        path.write_text("")
        code, _, err = run(capsys, [
            "fit", "--data", str(path), "--variable", "x", "--target", "y"])
        assert code == 3
        assert "is empty" in err

    def test_bad_binary_target_is_3(self, tmp_path, capsys):
        data = _write_csv(tmp_path / "t.csv", ["x", "y"],
                          [[1.0, 0], [2.0, 2], [3.0, 1]])
        code, _, err = run(capsys, [
            "fit", "--data", data, "--variable", "x", "--target", "y"])
        assert code == 3
        assert "binary target" in err

    def test_bad_flag_exits_3(self, binary_csv):
        with pytest.raises(SystemExit) as e:
            cli.main(["fit", "--data", binary_csv, "--no-such-flag"])
        assert e.value.code == 3

    def test_missing_required_flag_exits_3(self):
        with pytest.raises(SystemExit) as e:
            cli.main(["fit", "--variable", "x", "--target", "y"])
        assert e.value.code == 3

    def test_invalid_config_is_3(self, binary_csv, capsys):
        code, _, err = run(capsys, [
            "fit", "--data", binary_csv, "--variable", "age",
            "--target", "default", "--min-bins", "0"])
        assert code == 3
        assert "min_bins" in err

    @pytest.mark.parametrize("kind, trend", [("binary", "peak:50"),
                                             ("multiclass", "peak:50,none,none")])
    def test_pinned_change_point_past_the_prebins_is_3(self, kind, trend,
                                                        capsys):
        golden = os.path.join(os.path.dirname(__file__), "data", "golden.csv")
        target = "yb" if kind == "binary" else "ym"
        code, _, err = run(capsys, [
            "fit", "--data", golden, "--variable", "num", "--target", target,
            "--target-kind", kind, "--trend", trend, "--min-bin-size", "1",
            "--min-bins", "1"])
        assert code == 3
        assert "change_point 50 out of range for" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("kind, target", [("continuous", "yc"),
                                              ("multiclass", "ym")])
    def test_max_pvalue_on_a_non_binary_target_is_3(self, kind, target,
                                                    tmp_path, capsys):
        golden = os.path.join(os.path.dirname(__file__), "data", "golden.csv")
        model = tmp_path / "model.json"
        code, out, err = run(capsys, [
            "fit", "--data", golden, "--variable", "num", "--target", target,
            "--target-kind", kind, "--max-pvalue", "0.05",
            "--model", str(model)])
        assert code == 3
        assert "--max-pvalue applies to binary targets only" in err
        assert out == "" and not model.exists()

    def test_unreachable_max_pvalue_is_2(self, tmp_path, capsys):
        # alpha = 1e-300 puts the z threshold at inf: no two bins separate
        golden = os.path.join(os.path.dirname(__file__), "data", "golden.csv")
        model = tmp_path / "model.json"
        code, out, err = run(capsys, [
            "fit", "--data", golden, "--variable", "num", "--target", "yb",
            "--max-pvalue", "1e-300", "--model", str(model)])
        assert code == 2
        assert "no binning of 'num' satisfies the constraints" in err
        assert out == "" and not model.exists()

    def test_every_category_below_the_others_cutoff_is_2(self, tmp_path,
                                                          capsys):
        golden = os.path.join(os.path.dirname(__file__), "data", "golden.csv")
        model = tmp_path / "model.json"
        code, out, err = run(capsys, [
            "fit", "--data", golden, "--variable", "cat", "--target", "yb",
            "--dtype", "categorical", "--others-cutoff", "0.999",
            "--model", str(model)])
        assert code == 2
        assert "every category fell below the others cutoff" in err
        assert "Traceback" not in err and out == "" and not model.exists()

    def test_time_budget_that_runs_out_is_2_and_named(self, capsys):
        golden = os.path.join(os.path.dirname(__file__), "data", "golden.csv")
        code, out, err = run(capsys, [
            "fit", "--data", golden, "--variable", "num", "--target", "yb",
            "--solver", "ls", "--time-budget", "0"])
        assert code == 2
        assert "time budget of 0.0 s ran out" in err and "--time-budget" in err
        assert "satisfies the constraints" not in err
        assert "Traceback" not in err and out == ""

    @pytest.mark.parametrize("solver", ["exact", "ls"])
    @pytest.mark.parametrize("budget", ["-1", "nan"])
    def test_negative_or_nan_time_budget_is_3(self, budget, solver, capsys):
        golden = os.path.join(os.path.dirname(__file__), "data", "golden.csv")
        code, _, err = run(capsys, [
            "fit", "--data", golden, "--variable", "num", "--target", "yb",
            "--solver", solver, "--time-budget", budget])
        assert code == 3
        assert "time budget must be >= 0" in err

    @pytest.mark.parametrize("flags, field", [
        (["--concentration", "std", "--gamma", "nan"], "gamma"),
        (["--concentration", "maxmin", "--gamma", "nan"], "gamma"),
        (["--concentration", "std", "--gamma", "inf"], "gamma"),
        (["--concentration", "hhi", "--gamma", "inf"], "gamma"),
        (["--min-diff", "nan"], "min_diff"),
    ])
    def test_non_finite_weight_is_3(self, binary_csv, capsys, flags, field):
        code, out, err = run(capsys, [
            "fit", "--data", binary_csv, "--variable", "age",
            "--target", "default", *flags])
        assert code == 3
        assert field + " must be a finite real number" in err
        assert out == ""

    def test_negative_seed_is_3(self, binary_csv, capsys):
        code, out, err = run(capsys, [
            "fit", "--data", binary_csv, "--variable", "age",
            "--target", "default", "--solver", "ls", "--seed", "-1"])
        assert code == 3
        assert "seed must be a nonnegative integer; got -1" in err
        assert out == ""

    def test_blank_lines_are_skipped(self, tmp_path, capsys):
        path = tmp_path / "blank.csv"
        rng = np.random.default_rng(9)
        lines = ["x,y"]
        for _ in range(120):
            lines.append("{:.2f},{}".format(rng.uniform(0, 10),
                                            int(rng.random() < 0.5)))
        lines.append("")     # trailing blank line
        path.write_text("\n".join(lines) + "\n")
        code, _, _ = run(capsys, [
            "fit", "--data", str(path), "--variable", "x", "--target", "y"])
        assert code == 0

    # Row numbers count data rows (blank lines skipped); line numbers count
    # CSV records from the header, blank ones included.
    _ROWS = "x,y\n1.5,0\n\n2.5,1\n{x},{y}\n4.5,1\n"

    @pytest.mark.parametrize("x, y, flags, message", [
        ("abc", "0", ["--dtype", "numeric"],
         "row 3: cannot parse 'abc' as a number"),
        ("3.5", "7", [], "row 3: binary target must be 0 or 1; got '7'"),
        ("3.5", "nan", [], "row 3: binary target must be 0 or 1; got 'nan'"),
        ("3.5", "", [], "row 3: target value is missing"),
        ("3.5", "x", ["--target-kind", "continuous"],
         "row 3: cannot parse target 'x' as a number"),
        ("3.5", "x", ["--target-kind", "multiclass"],
         "row 3: cannot parse class label 'x'"),
        ("3.5", "1.5", ["--target-kind", "multiclass"],
         "row 3: class labels must be integers; got '1.5'"),
        ("3.5", "nan", ["--target-kind", "multiclass"],
         "row 3: class labels must be integers; got 'nan'"),
        ("3.5", "inf", ["--target-kind", "multiclass"],
         "row 3: class labels must be integers; got 'inf'"),
        ("3.5", "nan", ["--target-kind", "continuous"],
         "row 3: target 'nan' is not a finite number"),
        ("3.5", "-inf", ["--target-kind", "continuous"],
         "row 3: target '-inf' is not a finite number"),
    ])
    def test_parse_errors_name_the_row(self, tmp_path, capsys, x, y, flags,
                                       message):
        path = tmp_path / "bad.csv"
        path.write_text(self._ROWS.format(x=x, y=y))
        code, _, err = run(capsys, [
            "fit", "--data", str(path), "--variable", "x", "--target", "y",
            *flags])
        assert code == 3
        assert message in err
        assert "Traceback" not in err

    def test_short_row_names_its_line(self, tmp_path, capsys):
        path = tmp_path / "short.csv"
        path.write_text("x,y\n1.5,0\n\n2.5,1\n3.5\n4.5,1\n")
        code, _, err = run(capsys, [
            "fit", "--data", str(path), "--variable", "x", "--target", "y"])
        assert code == 3
        assert "line 5: missing field 'y'" in err

    def test_quoted_line_break_is_not_a_record(self, tmp_path, capsys):
        path = tmp_path / "quoted.csv"
        path.write_text('x,y\n"a\nb",0\n1,1\n2\n')
        code, _, err = run(capsys, [
            "fit", "--data", str(path), "--variable", "x", "--target", "y"])
        assert code == 3
        assert "line 4: missing field 'y'" in err

    def test_variable_field_is_checked_before_target_column(self, tmp_path,
                                                            capsys):
        path = tmp_path / "short.csv"
        path.write_text("x,y\n1.5,0\n\n2.5\n")
        code, _, err = run(capsys, [
            "fit", "--data", str(path), "--variable", "y", "--target", "z"])
        assert code == 3
        assert "line 4: missing field 'y'" in err

    def test_undecodable_file_is_3(self, tmp_path, capsys):
        path = tmp_path / "latin1.csv"
        path.write_bytes("x,y\n\xe9,1\n".encode("latin-1"))
        code, _, err = run(capsys, [
            "fit", "--data", str(path), "--variable", "x", "--target", "y"])
        assert code == 3
        assert "cannot read" in err


# --------------------------------------------------------------------------- #
# reading CSV columns
# --------------------------------------------------------------------------- #

def _whole_file_columns(path, names):
    """The reference reader: every record in memory, then one column at a
    time, checking each name for an unknown column, then a short record."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise InputError("cannot read {}: {}".format(path, exc)) from exc
    if not rows:
        raise InputError("{} is empty".format(path))
    header = rows[0]
    body = [row for row in rows[1:] if row]
    columns = []
    for name in names:
        if name not in header:
            raise InputError("no column {!r} in {} (found: {})"
                             .format(name, path, ", ".join(header)))
        col = header.index(name)
        try:
            columns.append([row[col] for row in body])
        except IndexError:
            line = next(i for i, row in enumerate(rows[1:], start=2)
                        if row and col >= len(row))
            raise InputError("{} line {}: missing field {!r}"
                             .format(path, line, name)) from None
    return columns


def _read_text(path, names):
    """``cli._read_columns`` with every byte token decoded, as the reference
    returns them; each column is a fixed-width ``S`` array or an object
    array of bytes."""
    columns = cli._read_columns(path, names)
    for column in columns:
        assert column.dtype.kind == "S" or all(
            isinstance(tok, bytes) for tok in column), column.dtype
    return [[tok.decode("utf-8") for tok in column.tolist()]
            for column in columns]


def _outcome(reader, path, names):
    """The columns read, or the message of the InputError raised."""
    try:
        return reader(path, names)
    except InputError as exc:
        return str(exc)


# fields that need quoting (commas, doubled quotes, line breaks) and not
_FIELDS = ("1.5", "-2", "", "abc", "a,b", 'say "hi"', "two\nlines",
           "cr\r\nlf", " pad ", "nan")


def _random_csv(rng, path):
    """A small CSV file of quoted fields, blank records and records with
    too few or too many fields; returns its header."""
    width = int(rng.integers(1, 5))
    header = ["c{}".format(k) for k in range(width)]
    if rng.random() < 0.2:
        header[-1] = "c,{}".format(width - 1)     # a quoted column name
    records = [header] if rng.random() < 0.95 else []
    for _ in range(int(rng.integers(0, 9))):
        u = rng.random()
        if u < 0.15:
            records.append([])                    # a blank line
            continue
        n = width
        if u < 0.35:
            n = int(rng.integers(1, width + 1))   # maybe short
        elif u < 0.45:
            n = width + int(rng.integers(1, 3))   # extra fields
        records.append([_FIELDS[i] for i in rng.integers(0, len(_FIELDS), n)])
    with open(path, "w", newline="", encoding="utf-8") as fh:
        if rng.random() < 0.1:
            fh.write("\n")                        # a blank first line
        csv.writer(fh, lineterminator=str(rng.choice(["\n", "\r\n"]))) \
            .writerows(records)
    return header


def test_reader_matches_the_whole_file_reference(tmp_path):
    rng = np.random.default_rng(22)
    seen = set()
    for i in range(600):
        path = str(tmp_path / "f{}.csv".format(i))
        header = _random_csv(rng, path)
        pool = [*header, "zz"]                    # "zz" is never a column
        names = [str(pool[k]) for k in
                 rng.integers(0, len(pool), int(rng.integers(1, 4)))]
        got = _outcome(_read_text, path, names)
        assert got == _outcome(_whole_file_columns, path, names), (i, names)
        if isinstance(got, list):
            seen.add("columns")
        else:
            seen.add(next(kind for kind in ("missing field", "no column",
                                            "is empty") if kind in got))
    assert seen == {"columns", "missing field", "no column", "is empty"}


BOM = b"\xef\xbb\xbf"

# fields the byte path reads: no quote, comma, CR, line feed or NUL
_PLAIN_FIELDS = ("1.5", "-2", "", "abc", " pad ", "nan", "café", "١")


def _plain_csv(rng) -> tuple:
    """The bytes of a small CSV file without quoted fields, with blank lines
    (sometimes the first), short records, extra fields, LF and CR LF endings
    and sometimes no final line break; and its header."""
    width = int(rng.integers(1, 5))
    header = ["c{}".format(k) for k in range(width)]
    records = [header] if rng.random() < 0.95 else []
    if rng.random() < 0.1:
        records.insert(0, [])                     # a blank first line
    for _ in range(int(rng.integers(0, 9))):
        u = rng.random()
        if u < 0.15:
            records.append([])
            continue
        n = width
        if u < 0.35:
            n = int(rng.integers(1, width + 1))   # maybe short
        elif u < 0.45:
            n = width + int(rng.integers(1, 3))   # extra fields
        records.append([_PLAIN_FIELDS[i] for i in
                        rng.integers(0, len(_PLAIN_FIELDS), n)])
    text = "".join(",".join(record) + str(rng.choice(["\n", "\r\n"]))
                   for record in records)
    if rng.random() < 0.2:
        text = text.rstrip("\r\n")                # no final line break
    return text.encode("utf-8"), header


def test_byte_path_matches_the_whole_file_reference(tmp_path, monkeypatch):
    """Files without quotes, lone CRs or NULs never reach ``csv.reader``
    and read as the reference reads them, with or without a byte-order
    mark."""
    def csv_module_used(path, names):
        raise AssertionError("{} went through the csv module".format(path))

    monkeypatch.setattr(cli, "_csv_columns", csv_module_used)
    rng = np.random.default_rng(24)
    seen = set()
    for i in range(600):
        path = tmp_path / "p{}.csv".format(i)
        data, header = _plain_csv(rng)
        pool = [*header, "zz"]
        names = [str(pool[k]) for k in
                 rng.integers(0, len(pool), int(rng.integers(1, 4)))]
        path.write_bytes(data)
        want = _outcome(_whole_file_columns, str(path), names)
        if rng.random() < 0.2:
            path.write_bytes(BOM + data)
        got = _outcome(_read_text, str(path), names)
        assert got == want, (i, names, data)
        if isinstance(got, list):
            seen.add("columns")
        else:
            seen.add(next(kind for kind in ("missing field", "no column",
                                            "is empty") if kind in got))
    assert seen == {"columns", "missing field", "no column", "is empty"}


@pytest.mark.parametrize("data, names", [
    (b"", ["x"]),                                 # empty
    (b"x,y\n", ["x", "y"]),                       # header only
    (b"x,y\n1,2\n\n3,4\n", ["y", "y"]),           # the same name twice
    (b"\nx,y\n1,2\n", ["x"]),                     # blank first line
    (b"x,y\n1\n2,3\n4\n", ["x", "y", "x"]),       # short records
    (b"x,y\n1\n", ["z", "y"]),                    # unknown before short
    (b"x,y\n1\n", ["y", "z"]),                    # short before unknown
    (b"x,y,z\n1,2,3,4\n5,6,7\n", ["z", "x"]),     # extra fields
    (b"x,y\n" + b"1,0\n" * 5000 + b"\xe9,1\n", ["x", "y"]),  # not UTF-8
    (b"x,y\n\xff,1\n", ["x"]),
    (b"x,y\r1,2\r\n3,4\n5,6", ["y", "x"]),        # a lone CR ends a record
    (b"x,y\r", ["x"]),
    (b"x,y\n1\x002,0\n3,4\x00\n", ["x", "y"]),    # NUL bytes stay in fields
    pytest.param(b"x,y\n" + b"7" * 131073 + b",1\n", ["y"],
                 id="over-the-csv-field-limit"),
    pytest.param(b"x,y\n" + b"7" * 131072 + b",1\n2,3\n", ["x", "y"],
                 id="at-the-csv-field-limit"),
    (BOM, ["x"]),
    (BOM + b"x,y\r\n\r\n1,2\r\n" + BOM + b"3,4", ["x", "y"]),  # and a U+FEFF
    (BOM + b"x,y\n\xff,1\n", ["x"]),
    (BOM + b"x,y\r1,2\n", ["y"]),
])
def test_reader_edge_cases_match_the_reference(tmp_path, data, names):
    """The reference reads the file without its byte-order mark, if any."""
    path = tmp_path / "edge.csv"
    path.write_bytes(data.removeprefix(BOM))
    want = _outcome(_whole_file_columns, str(path), names)
    path.write_bytes(data)
    assert _outcome(_read_text, str(path), names) == want


def test_one_long_field_does_not_widen_every_token(tmp_path):
    """A 100 kB field among 50k short records: the column's tokens take
    less memory than the file, where a fixed width would take 5 GB."""
    lines = ["x,note", *("{},short note {}".format(k % 10, k % 97)
                         for k in range(50_000))]
    lines[1 + 25_000] = "{},long".format("9" * 100_000)
    path = tmp_path / "long.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    size = path.stat().st_size
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        [column] = cli._read_columns(str(path), ["x"])
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held < size
    assert column.dtype == object and len(column) == 50_000
    assert column[25_000] == b"9" * 100_000 and column[7] == b"7"


def test_byte_order_mark_is_ignored(tmp_path, capsys):
    """Fitting and transforming a copy with a UTF-8 byte-order mark (as
    spreadsheet programs save CSV) writes the bytes the original does."""
    golden = os.path.join(os.path.dirname(__file__), "data", "golden.csv")
    with open(golden, "rb") as fh:
        data = fh.read()
    bom = tmp_path / "bom.csv"
    bom.write_bytes(b"\xef\xbb\xbf" + data)
    written = []
    for source, tag in ((golden, "plain"), (str(bom), "bom")):
        model, output = tmp_path / (tag + ".json"), tmp_path / (tag + ".txt")
        fit = run(capsys, ["fit", "--data", source, "--variable", "num",
                           "--target", "yb", "--special-values=-999",
                           "--model", str(model)])
        transform = run(capsys, ["transform", "--data", source, "--model",
                                 str(model), "--output", str(output)])
        assert fit[0] == transform[0] == 0, tag
        written.append((fit, transform, model.read_bytes(),
                        output.read_bytes()))
    assert written[0] == written[1]


# --------------------------------------------------------------------------- #
# parsing tokens
# --------------------------------------------------------------------------- #

def _reference_floats(tokens):
    try:
        return np.array(tokens, dtype=float)
    except ValueError:
        return None


def _reference_first_row(tokens, bad):
    return next((i, tok) for i, tok in enumerate(tokens, start=1) if bad(tok))


def _reference_not_float(tok):
    try:
        float(tok)
    except ValueError:
        return True
    return False


def _reference_parse_variable(tokens, dtype, missing_token):
    """The variable parser on a list of strings, one Python object per
    token, as the reader's string columns were parsed."""
    if dtype == "auto" and tokens.count(missing_token) == len(tokens):
        raise InputError("variable column holds no non-missing values")
    if dtype != "categorical":
        values = _reference_floats(["nan" if tok == missing_token else tok
                                    for tok in tokens])
        if values is not None:
            return values, "numeric"
        if dtype == "numeric":
            row, tok = _reference_first_row(
                tokens,
                lambda t: t != missing_token and _reference_not_float(t))
            raise InputError(
                "row {}: cannot parse {!r} as a number".format(row, tok))
    values = np.array([None if tok == missing_token else tok
                       for tok in tokens], dtype=object)
    return values, "categorical"


def _reference_not_class_label(tok):
    v = float(tok)
    return not math.isfinite(v) or v != int(v)


def _reference_parse_target(tokens, kind, missing_token):
    """The target parser on a list of strings, token by token; a continuous
    target must also be finite."""
    if missing_token in tokens:
        raise InputError("row {}: target value is missing"
                         .format(tokens.index(missing_token) + 1))
    y = _reference_floats(tokens)
    if kind == "binary":
        if y is None or not np.all((y == 0.0) | (y == 1.0)):
            row, tok = _reference_first_row(
                tokens, lambda t: _reference_not_float(t)
                or float(t) not in (0.0, 1.0))
            raise InputError(
                "row {}: binary target must be 0 or 1; got {!r}".format(row, tok))
        return y.astype(np.int64), TargetKind.binary()
    if kind == "continuous":
        if y is None:
            row, tok = _reference_first_row(tokens, _reference_not_float)
            raise InputError(
                "row {}: cannot parse target {!r} as a number".format(row, tok))
        if not np.isfinite(y).all():
            row, tok = _reference_first_row(
                tokens, lambda t: not math.isfinite(float(t)))
            raise InputError(
                "row {}: target {!r} is not a finite number".format(row, tok))
        return y, TargetKind.continuous()
    if y is None or not np.all(np.isfinite(y) & (y == np.trunc(y))):
        row, tok = _reference_first_row(
            tokens, lambda t: _reference_not_float(t)
            or _reference_not_class_label(t))
        if _reference_not_float(tok):
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


def _byte_tokens(strings, fixed: bool):
    """``strings`` as the reader returns a column: a fixed-width array, or
    the object array that a long field makes."""
    pieces = [s.encode("utf-8") for s in strings]
    lengths = np.array([len(p) for p in pieces], dtype=np.int64)
    hi = np.cumsum(lengths)
    blob = b"".join(pieces)
    return cli._tokens(blob, hi - lengths, hi, len(blob) if fixed else 0)


def _result(parse, *args):
    """(values as dtype and bits, the second item), or the error message."""
    try:
        values, second = parse(*args)
    except InputError as exc:
        return str(exc)
    bits = values.tolist() if values.dtype == object else \
        values.view(np.uint8).tobytes()
    return values.dtype.str, bits, second


# pieces of numbers and not-numbers; float() takes the non-ASCII digits and
# spaces, which numpy rejects in bytes
_PIECES = ("0", "1", "7", "12", "-", "+", ".", "e", "E", "_", " ", "\t",
           "\x0b", "\x1c", "inf", "nan", "Infinity", "x", "١", "٢", "\xa0",
           "　", "é")


def _fuzz_token(rng):
    return "".join(_PIECES[k] for k in
                   rng.integers(0, len(_PIECES), int(rng.integers(1, 4))))


def _fuzz_column(rng, words):
    """A column drawn from ``words``, sometimes with a fuzzed token."""
    column = [words[k] for k in rng.integers(0, len(words),
                                             int(rng.integers(1, 12)))]
    if rng.random() < 0.5:
        column[int(rng.integers(0, len(column)))] = _fuzz_token(rng)
    return column


_NUMBERS = ("0", "1", "-2.5", "1e3", "1_000", " 4 ", "\t5", "nan", "-nan",
            "inf", "-Infinity", "0.1", "-0", "", "NA", "١٢", "\xa03")


def test_parsers_on_byte_tokens_match_the_string_parsers():
    """On every fuzzed column, parsing byte tokens (fixed-width or objects)
    gives the string parsers' floats bit for bit, their object arrays and
    their error messages."""
    rng = np.random.default_rng(31)
    outcomes = set()
    kinds = ("binary", "continuous", "multiclass")
    for i in range(1500):
        strings = _fuzz_column(rng, _NUMBERS)
        missing = str(rng.choice(["", "NA"]))
        for fixed in (True, False):
            tokens = _byte_tokens(strings, fixed)
            for dtype in ("auto", "numeric", "categorical"):
                want = _result(_reference_parse_variable, strings, dtype,
                               missing)
                got = _result(cli._parse_variable, tokens, dtype, missing)
                assert got == want, (i, strings, dtype, missing, fixed)
                outcomes.add(want[2] if isinstance(want, tuple) else "error")
            labels = _fuzz_column(rng, ("0", "1", "2", "1.0", " 2", "-0",
                                        "3", "1_0", "nan", "١", "2.5"))
            target = _byte_tokens(labels, fixed)
            for kind in kinds:
                want = _result(_reference_parse_target, labels, kind, missing)
                got = _result(cli._parse_target, target, kind, missing)
                assert got == want, (i, labels, kind, missing, fixed)
    assert outcomes == {"numeric", "categorical", "error"}


# --------------------------------------------------------------------------- #
# transform
# --------------------------------------------------------------------------- #

REFERENCE_WOE = (-1.41513, -0.907752, -0.537878, -0.278357, -0.046381,
                 0.0430441, 0.171209, 0.361296, 0.608729, 0.696341)
REFERENCE_SPLITS = (30.5, 48.5, 54.5, 64.5, 70.5, 74.5, 81.5, 101.5, 116.5)


def reference_model():
    """Hand-built numeric model mirroring a published credit-scoring table."""
    return BinningModel(
        variable="score", dtype="numeric", target_kind=TargetKind.binary(),
        splits=REFERENCE_SPLITS,
        transform_values=REFERENCE_WOE,
        special_value=-0.106328, missing_value=0.112319,
        trend_used="ascending",
        config=BinningConfig(special_values=(-9.0,)))


class TestTransformValue:
    def test_interior_lookup(self):
        model = reference_model()
        assert cli.transform_value(model, 100.0, "woe") == 0.361296
        assert cli.transform_value(model, 60.0, "woe") == -0.278357

    def test_below_and_above_range(self):
        model = reference_model()
        assert cli.transform_value(model, 18.0, "woe") == -1.41513
        assert cli.transform_value(model, 500.0, "woe") == 0.696341

    def test_boundary_goes_right(self):
        model = reference_model()
        assert cli.transform_value(model, 30.5, "woe") == -0.907752

    def test_special_and_missing(self):
        model = reference_model()
        assert cli.transform_value(model, -9.0, "woe") == -0.106328
        assert cli.transform_value(model, None, "woe") == 0.112319
        assert cli.transform_value(model, float("nan"), "woe") == 0.112319

    def test_index_mode_numbers_table_rows(self):
        model = reference_model()
        assert cli.transform_value(model, 100.0, "index") == 7
        assert cli.transform_value(model, 18.0, "index") == 0
        assert cli.transform_value(model, -9.0, "index") == 10
        assert cli.transform_value(model, None, "index") == 11

    def test_categorical_groups_and_others(self):
        model = BinningModel(
            variable="housing", dtype="categorical",
            target_kind=TargetKind.binary(),
            groups=(("own",), ("mortgage", "family"), ("rent",)),
            others=("boat",),
            transform_values=(0.8, 0.1, -0.7),
            others_value=0.05, special_value=0.0, missing_value=0.2,
            trend_used="ascending", config=BinningConfig())
        assert cli.transform_value(model, "family", "woe") == 0.1
        assert cli.transform_value(model, "rent", "index") == 2
        # unseen category routes to the pool when one exists
        assert cli.transform_value(model, "igloo", "woe") == 0.05
        assert cli.transform_value(model, "igloo", "index") == 3
        assert cli.transform_value(model, None, "index") == 5

    def test_unknown_category_without_pool_raises(self):
        model = BinningModel(
            variable="housing", dtype="categorical",
            target_kind=TargetKind.binary(),
            groups=(("own",), ("rent",)), transform_values=(0.5, -0.5),
            trend_used="none", config=BinningConfig())
        with pytest.raises(InputError):
            cli.transform_value(model, "igloo", "woe")

    def test_mode_restrictions(self):
        model = reference_model()
        with pytest.raises(InputError):
            cli.transform_values(model, [50.0], mode="mean")
        cont = BinningModel(variable="x", dtype="numeric",
                            target_kind=TargetKind.continuous(),
                            splits=(1.0,), transform_values=(2.0, 5.0),
                            trend_used="none", config=BinningConfig())
        with pytest.raises(InputError):
            cli.transform_values(cont, [0.5], mode="woe")
        assert cli.transform_values(cont, [0.5], mode="auto").tolist() == [2.0]


    def test_signed_zero_specials(self):
        for special, value in ((-0.0, 0.0), (0.0, -0.0)):
            model = replace(reference_model(),
                            config=BinningConfig(special_values=(special,)))
            assert cli.transform_value(model, value, "index") == 10

    def test_nan_special_still_routes_to_missing(self):
        model = replace(reference_model(),
                        config=BinningConfig(special_values=(float("nan"),)))
        assert cli.transform_value(model, float("nan"), "index") == 11

    def test_first_unknown_category_in_row_order_names_the_error(self):
        model = BinningModel(
            variable="housing", dtype="categorical",
            target_kind=TargetKind.binary(),
            groups=(("own",), ("rent",)), transform_values=(0.5, -0.5),
            trend_used="none", config=BinningConfig())
        with pytest.raises(InputError, match="'zeta'"):
            cli.transform_values(model, ["own", None, "zeta", "alpha", "zeta"])

    def test_matches_a_per_value_loop(self):
        rng = np.random.default_rng(17)
        model = reference_model()
        values = [*REFERENCE_SPLITS, -9.0, None, float("nan"), float("inf"),
                  *rng.uniform(0, 150, 300).round(1).tolist()]
        for mode in ("woe", "index"):
            expected = [_reference_transform_value(model, v, mode)
                        for v in values]
            assert cli.transform_values(model, values, mode).tolist() == \
                expected
        cat = BinningModel(
            variable="housing", dtype="categorical",
            target_kind=TargetKind.binary(),
            groups=(("own",), ("mortgage", "family"), ("rent",)),
            others=("boat",), transform_values=(0.8, 0.1, -0.7),
            others_value=0.05, special_value=0.3, missing_value=0.2,
            trend_used="none", config=BinningConfig(special_values=("zz",)))
        labels = ["own", "mortgage", "family", "rent", "boat", "igloo", "zz",
                  None]
        values = [labels[k] for k in rng.integers(0, len(labels), 300)]
        for mode in ("woe", "index"):
            expected = [_reference_transform_value(cat, v, mode)
                        for v in values]
            assert cli.transform_values(cat, values, mode).tolist() == expected


def _reference_transform_value(model, v, mode):
    """One value at a time, as a loop over the table rows would map it."""
    m = len(model.transform_values)
    row_special = m + (1 if model.others else 0)
    if v is None or (isinstance(v, float) and math.isnan(v)):
        return row_special + 1 if mode == "index" else model.missing_value
    if model.dtype == "numeric":
        if v in model.config.special_values:
            return row_special if mode == "index" else model.special_value
        k = sum(1 for s in model.splits if s <= v)
        return k if mode == "index" else model.transform_values[k]
    if v in model.config.special_values:
        return row_special if mode == "index" else model.special_value
    for k, group in enumerate(model.groups):
        if str(v) in group:
            return k if mode == "index" else model.transform_values[k]
    return m if mode == "index" else model.others_value


class TestTransformCommand:
    def _fit(self, binary_csv, tmp_path, capsys):
        model_path = str(tmp_path / "model.json")
        code, _, _ = run(capsys, [
            "fit", "--data", binary_csv, "--variable", "age",
            "--target", "default", "--special-values", "-9",
            "--model", model_path])
        assert code == 0
        return model_path

    def test_stdout_values(self, binary_csv, tmp_path, capsys):
        model_path = self._fit(binary_csv, tmp_path, capsys)
        data = _write_csv(tmp_path / "new.csv", ["age"],
                          [["25"], ["45"], [""], ["-9"]])
        code, out, _ = run(capsys, ["transform", "--model", model_path,
                                    "--data", data])
        assert code == 0
        model = BinningModel.from_json(open(model_path).read())
        lines = out.strip().split("\n")
        assert len(lines) == 4
        assert lines[0] == "{:.6f}".format(
            cli.transform_value(model, 25.0, "woe"))
        assert lines[2] == "{:.6f}".format(model.missing_value)
        assert lines[3] == "{:.6f}".format(model.special_value)

    def test_index_mode_and_output_file(self, binary_csv, tmp_path, capsys):
        model_path = self._fit(binary_csv, tmp_path, capsys)
        data = _write_csv(tmp_path / "new.csv", ["age"], [["25"], ["71"]])
        out_path = str(tmp_path / "vals.txt")
        code, out, _ = run(capsys, [
            "transform", "--model", model_path, "--data", data,
            "--mode", "index", "--output", out_path])
        assert code == 0
        assert out == ""
        vals = open(out_path).read().split()
        assert all(v.isdigit() for v in vals)

    def test_round_trip_consistency(self, binary_csv, tmp_path, capsys):
        """Every fitted record lands in the bin whose stats row counted it."""
        model_path = self._fit(binary_csv, tmp_path, capsys)
        model = BinningModel.from_json(open(model_path).read())
        [raw] = cli._read_columns(binary_csv, ["age"])
        values, _ = cli._parse_variable(raw, "numeric", "")
        idx = cli.transform_values(model, values, mode="index")
        m = len(model.bins)
        from collections import Counter
        hist = Counter(idx)
        for k, b in enumerate(model.bins):
            assert hist[k] == b.count
        assert hist[m] == model.special.count
        assert hist[m + 1] == model.missing.count

    def test_model_file_errors(self, tmp_path, capsys):
        code, _, err = run(capsys, ["transform", "--model",
                                    str(tmp_path / "no.json"),
                                    "--data", str(tmp_path / "no.csv")])
        assert code == 3
        bad = tmp_path / "bad.json"
        bad.write_text("{\"format_version\": 9}")
        code, _, err = run(capsys, ["transform", "--model", str(bad),
                                    "--data", str(tmp_path / "no.csv")])
        assert code == 3
        bad.write_text("[1, 2]")
        for argv in (["transform", "--model", str(bad),
                      "--data", str(tmp_path / "no.csv")],
                     ["report", "--model", str(bad)]):
            code, out, err = run(capsys, argv)
            assert code == 3
            assert "malformed model file: not a JSON object" in err
            assert out == ""

    @pytest.mark.parametrize("target_kind, edit, message", [
        ("binary", lambda d: d["transform_values"].pop(),
         "transform values for"),
        ("continuous", lambda d: d["transform_values"].pop(),
         "transform values for"),
        ("binary", lambda d: d["splits"].pop(), "splits for"),
        ("binary", lambda d: d["splits"].reverse(), "strictly ascending"),
        ("binary", lambda d: d["splits"].__setitem__(1, d["splits"][0]),
         "strictly ascending"),
        ("binary", lambda d: d["config"].__setitem__("trend", 5),
         "trend 5 is not a string"),
        ("binary", lambda d: d["config"].__setitem__("trend", [1]),
         "trend [1] is not a string"),
        ("binary", lambda d: d["config"].__setitem__(
            "special_values", ["abc"]), "'abc' is not a number"),
        ("binary", lambda d: d["transform_values"].__setitem__(0, "w"),
         "'w' is not a number"),
        ("continuous", lambda d: d.__setitem__("missing_value", "m"),
         "'m' is not a number"),
        ("binary", lambda d: d.__setitem__("special_value", "s"),
         "'s' is not a number"),
        ("binary", lambda d: d["target_kind"].__setitem__("kind", "weird"),
         "unknown target kind"),
        ("binary", lambda d: d["bins"][0].__setitem__("count", "10"),
         "'10' is not a number"),
        ("binary", lambda d: d.__setitem__("quality", "high"),
         "'high' is not a number"),
        ("binary", lambda d: d.__setitem__("quality", True),
         "True is not a number"),
        ("binary", lambda d: d.__setitem__("objective", "0.1"),
         "'0.1' is not a number"),
        ("binary", lambda d: d["bins"][0].update(count=0, nonevent=0,
                                                 event=0),
         "bin 0 holds 0 records"),
        ("continuous", lambda d: d["bins"][1].__setitem__("count", 0.5),
         "bin 1 holds 0.5 records"),
        ("continuous", lambda d: d["bins"][0].__setitem__("count", math.nan),
         "bin 0 holds nan records"),
        ("binary", lambda d: d["bins"][0].__setitem__(
            "event", d["bins"][0]["event"] + 1), "events but"),
        ("binary", lambda d: d["bins"][-1].__setitem__("nonevent", -1),
         "events but"),
    ])
    def test_malformed_numeric_model_is_3(self, binary_csv, tmp_path, capsys,
                                          target_kind, edit, message):
        flags = ["--target-kind", "continuous"] \
            if target_kind == "continuous" else []
        model_path = str(tmp_path / "model.json")
        code, _, _ = run(capsys, [
            "fit", "--data", binary_csv, "--variable", "age",
            "--target", "default", "--model", model_path, *flags])
        assert code == 0
        self._check_rejected(model_path, binary_csv, edit, message, capsys)

    def test_malformed_categorical_model_is_3(self, categorical_csv,
                                              tmp_path, capsys):
        model_path = str(tmp_path / "cat.json")
        code, _, _ = run(capsys, [
            "fit", "--data", categorical_csv, "--variable", "housing",
            "--target", "default", "--model", model_path])
        assert code == 0
        self._check_rejected(model_path, categorical_csv,
                             lambda d: d["groups"].pop(), "groups for", capsys)

    def test_non_string_category_is_3(self, categorical_csv, tmp_path, capsys):
        model_path = str(tmp_path / "cat.json")
        code, _, _ = run(capsys, [
            "fit", "--data", categorical_csv, "--variable", "housing",
            "--target", "default", "--model", model_path])
        assert code == 0
        self._check_rejected(model_path, categorical_csv,
                             lambda d: d["groups"][0].append(5),
                             "category 5 is not a string", capsys)

    @staticmethod
    def _check_rejected(model_path, data, edit, message, capsys):
        with open(model_path) as fh:
            d = json.load(fh)
        edit(d)
        with open(model_path, "w") as fh:
            json.dump(d, fh)
        for argv in (["transform", "--model", model_path, "--data", data],
                     ["report", "--model", model_path]):
            code, out, err = run(capsys, argv)
            assert code == 3
            assert message in err and "error: malformed model file" in err
            assert "Traceback" not in err and out == ""

    def test_non_string_categorical_special_value_is_3(self, categorical_csv,
                                                        tmp_path, capsys):
        model_path = str(tmp_path / "cat.json")
        code, _, _ = run(capsys, [
            "fit", "--data", categorical_csv, "--variable", "housing",
            "--target", "default", "--model", model_path])
        assert code == 0
        self._check_rejected(
            model_path, categorical_csv,
            lambda d: d["config"].__setitem__("special_values", [[1, 2]]),
            "category [1, 2] is not a string", capsys)


GOLDEN_CSV = os.path.join(os.path.dirname(__file__), "data", "golden.csv")


@pytest.mark.parametrize("fit_flags, missing_token", [
    (["--variable", "num", "--target", "yb", "--special-values=-999"], ""),
    (["--variable", "num", "--target", "yc", "--target-kind", "continuous",
      "--special-values=-999", "--trend", "ascending"], ""),
    (["--variable", "num", "--target", "ym", "--target-kind", "multiclass",
      "--special-values=-999"], ""),
    (["--variable", "cat", "--target", "yb", "--others-cutoff", "0.02",
      "--special-values", "boat"], ""),
    (["--variable", "cat", "--target", "yc", "--target-kind", "continuous",
      "--others-cutoff", "0.03", "--special-values", "family"], "rent"),
    (["--variable", "cat", "--target", "ym", "--target-kind", "multiclass",
      "--others-cutoff", "0.02", "--special-values", "coop"], "rent"),
])
def test_transform_of_the_training_data_counts_the_fitted_rows(
        tmp_path, capsys, fit_flags, missing_token):
    """``transform --mode index`` over the training CSV sends each record to
    the table row whose count the fit reported: every bin, Others, Special
    and Missing."""
    model_path, out_path = str(tmp_path / "m.json"), str(tmp_path / "t.txt")
    token = ["--missing-token", missing_token]
    code, _, _ = run(capsys, ["fit", "--data", GOLDEN_CSV, *fit_flags,
                              *token, "--model", model_path])
    assert code == 0
    code, _, _ = run(capsys, ["transform", "--data", GOLDEN_CSV, "--model",
                              model_path, "--mode", "index", *token,
                              "--output", out_path])
    assert code == 0
    model = BinningModel.from_json(open(model_path).read())
    pools = [model.others_stats] if model.others else []
    counts = [b.count for b in (*model.bins, *pools, model.special,
                                model.missing)]
    with open(out_path) as fh:
        rows = [int(line) for line in fh]
    assert np.bincount(rows, minlength=len(counts)).tolist() == counts
    assert model.special.count > 0 and model.missing.count > 0
    assert bool(pools) == ("--others-cutoff" in fit_flags)


def test_fit_and_transform_route_non_string_labels_alike():
    """Through the library a categorical special value matches a label that
    equals it (``==``): the special ``"3"`` takes the label ``"3"`` but not
    the label ``3``, which the fit and the transform both bin as the
    category ``"3"``."""
    rng = np.random.default_rng(8)
    labels = [3, "3", "a", 4.0, "b", None]
    rate = {3: 0.2, "3": 0.5, "a": 0.4, 4.0: 0.6, "b": 0.8, None: 0.5}
    values = np.array([labels[k] for k in rng.integers(0, 6, 600)],
                      dtype=object)
    target = np.array([int(rng.random() < rate[v]) for v in values])
    model = cli._fit(values, target, TargetKind.binary(),
                     BinningConfig(special_values=("3",), min_bins=1),
                     "x", "categorical")
    assert sorted(lab for g in model.groups for lab in g) == \
        ["3", "4.0", "a", "b"]
    counts = [b.count for b in (*model.bins, model.special, model.missing)]
    rows = cli.transform_values(model, values, "index")
    assert np.bincount(rows, minlength=len(counts)).tolist() == counts
    assert model.special.count == sum(1 for v in values if v == "3")
    assert model.missing.count == sum(1 for v in values if v is None)


@pytest.mark.parametrize("as_array", [False, True])
def test_numeric_labels_fit_and_transform_as_categories(as_array):
    """A categorical column held as numbers keeps its labels: the int ``1``
    is the category ``"1"``, not ``"1.0"``, so transforming the fitted
    values puts every record in the bin that counted it."""
    rng = np.random.default_rng(5)
    values = rng.integers(1, 5, 400)
    values = values if as_array else values.tolist()
    target = (rng.random(400) < np.array([0, 0.2, 0.4, 0.5, 0.7])[values]) \
        .astype(int)
    model = cli._fit(values, target, TargetKind.binary(),
                     BinningConfig(min_bins=1), "x", "categorical")
    assert sorted(lab for g in model.groups for lab in g) == \
        ["1", "2", "3", "4"]
    rows = cli.transform_values(model, values, "index")
    counts = [b.count for b in model.bins]
    assert np.bincount(rows, minlength=len(counts)).tolist() == counts


# --------------------------------------------------------------------------- #
# report
# --------------------------------------------------------------------------- #

class TestReport:
    def test_binary_report(self, binary_csv, tmp_path, capsys):
        model_path = str(tmp_path / "m.json")
        code, _, _ = run(capsys, [
            "fit", "--data", binary_csv, "--variable", "age",
            "--target", "default", "--special-values", "-9",
            "--model", model_path])
        assert code == 0
        code, out, _ = run(capsys, ["report", "--model", model_path])
        assert code == 0
        assert "quality score:" in out
        assert "divergence:" in out
        assert "adjacent p-values:" in out
        assert "Event rate" in out

    def test_report_label_matches_strength_bands(self, binary_csv, tmp_path,
                                                 capsys):
        model_path = str(tmp_path / "m.json")
        run(capsys, ["fit", "--data", binary_csv, "--variable", "age",
                     "--target", "default", "--model", model_path])
        code, out, _ = run(capsys, ["report", "--model", model_path])
        assert code == 0
        assert any(lab in out for lab in
                   ("not useful", "weak", "medium", "strong", "over-prediction"))

    def test_non_binary_model_rejected(self, tmp_path, capsys):
        cont = BinningModel(variable="x", dtype="numeric",
                            target_kind=TargetKind.continuous(),
                            splits=(1.0,), transform_values=(2.0, 5.0),
                            trend_used="none", config=BinningConfig())
        path = tmp_path / "cont.json"
        path.write_text(cont.to_json())
        code, _, err = run(capsys, ["report", "--model", str(path)])
        assert code == 3
        assert "binary" in err

    def test_model_without_bin_stats(self, tmp_path, capsys):
        # from_dict accepts "bins": []; the pool rows keep their own labels
        model = BinningModel(
            variable="x", dtype="numeric", target_kind=TargetKind.binary(),
            splits=(1.0, 2.0), transform_values=(0.1, 0.2, 0.3),
            special=BinStats(count=3, nonevent=1, event=2, event_rate=2 / 3),
            missing=BinStats(count=4, nonevent=3, event=1, event_rate=0.25),
            trend_used="none", config=BinningConfig())
        path = tmp_path / "bare.json"
        path.write_text(model.to_json())
        code, out, _ = run(capsys, ["report", "--model", str(path)])
        assert code == 0
        rows = {line.split()[0]: line.split()[1]
                for line in out.splitlines()[-2:]}
        assert rows == {"Special": "3", "Missing": "4"}
        assert "(-inf, 1)" not in out and "[1, 2)" not in out

    def test_json_format(self, binary_csv, tmp_path, capsys):
        model_path = str(tmp_path / "m.json")
        run(capsys, ["fit", "--data", binary_csv, "--variable", "age",
                     "--target", "default", "--model", model_path])
        code, out, _ = run(capsys, ["report", "--model", model_path,
                                    "--format", "json"])
        assert code == 0
        assert json.loads(out)["variable"] == "age"


def test_importing_the_cli_skips_scipy():
    """No command imports scipy: it would cost most of the import time, and
    binopt computes the normal quantile and tail itself."""
    code = ("import sys, binopt.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=120,
                         env={**os.environ, "PYTHONPATH": SRC})
    assert out.stdout.strip() == "[]"


def test_transform_and_categorical_fit_skip_numpy_ma(tmp_path, capsys):
    """Transforms and a categorical fit never import ``numpy.ma`` (about
    15 ms): ``np.unique`` without an index or inverse would.  A numeric fit
    still does, through ``np.quantile``."""
    data = os.path.join(os.path.dirname(__file__), "data", "golden.csv")
    num, cat = str(tmp_path / "num.json"), str(tmp_path / "cat.json")
    assert run(capsys, ["fit", "--data", data, "--variable", "num",
                        "--target", "yb", "--special-values=-999",
                        "--model", num])[0] == 0
    argvs = [
        ["transform", "--data", data, "--model", num,
         "--output", str(tmp_path / "num.txt")],
        ["fit", "--data", data, "--variable", "cat", "--target", "yb",
         "--others-cutoff", "0.05", "--model", cat, "--format", "json"],
        ["transform", "--data", data, "--model", cat,
         "--output", str(tmp_path / "cat.txt")],
    ]
    code = ("import sys; from binopt import cli; "
            "codes = [cli.main(argv) for argv in {!r}]; "
            "print(codes, 'numpy.ma' in sys.modules)".format(argvs))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=120,
                         env={**os.environ, "PYTHONPATH": SRC})
    assert out.stdout.splitlines()[-1] == "[0, 0, 0] False", out.stderr


def test_fit_and_report_run_without_scipy(tmp_path):
    """With every scipy import made to fail, the golden p-value fit still
    writes its committed model, and the quality report still prints."""
    data = os.path.join(os.path.dirname(__file__), "data")
    model = str(tmp_path / "m.json")
    fit = ["fit", "--data", os.path.join(data, "golden.csv"),
           "--variable", "num", "--target", "yb", "--special-values=-999",
           "--trend", "auto", "--max-pvalue", "0.05", "--model", model]
    code = ("import sys; sys.modules['scipy'] = None; "
            "from binopt import cli; "
            "sys.exit(cli.main({!r}) or cli.main(['report', '--model', {!r}]))"
            .format(fit, model))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=120,
                         env={**os.environ, "PYTHONPATH": SRC})
    assert out.returncode == 0, out.stderr
    assert "quality score:" in out.stdout
    with open(model, "rb") as got, open(os.path.join(
            data, "golden", "num-binary.model.json"), "rb") as want:
        assert got.read() == want.read()
