import io
import math
import os
from contextlib import redirect_stdout

import numpy as np
import pytest
from scipy.special import ndtr

from binopt import (
    BinningModel, adjacent_pvalues, assess, c_star, cli, iv_label,
    quality_score, rayleigh_factor,
)
from binopt.aggregate import _zstat
from binopt.quality import BAND_HIGH, BAND_LOW

GOLDEN_CSV = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data",
                          "golden.csv")


class TestCStar:
    def test_default_band_value(self):
        assert c_star(0.3, 0.5) == pytest.approx(0.3957388, abs=1e-6)

    def test_density_equal_at_band_ends(self):
        c = c_star(0.3, 0.5)
        assert rayleigh_factor(0.3, c) == pytest.approx(
            rayleigh_factor(0.5, c), abs=1e-12)
        # and for an arbitrary band
        c2 = c_star(0.05, 0.9)
        assert rayleigh_factor(0.05, c2) == pytest.approx(
            rayleigh_factor(0.9, c2), abs=1e-12)

    def test_band_validation(self):
        for a, b in ((0.0, 0.5), (-0.1, 0.5), (0.5, 0.5), (0.6, 0.5)):
            with pytest.raises(ValueError):
                c_star(a, b)


class TestRayleighFactor:
    def test_peaks_at_one_on_the_scale(self):
        for c in (0.1, 0.3957388, 2.0):
            assert rayleigh_factor(c, c) == pytest.approx(1.0, abs=1e-12)

    def test_zero_at_zero(self):
        assert rayleigh_factor(0.0, 0.5) == 0.0

    def test_spot_values_on_default_band(self):
        c = c_star(BAND_LOW, BAND_HIGH)
        assert rayleigh_factor(0.1, c) == pytest.approx(0.404, abs=1e-3)
        assert rayleigh_factor(0.7, c) == pytest.approx(0.610, abs=1e-3)
        assert rayleigh_factor(1.5, c) == pytest.approx(0.005, abs=1e-3)

    def test_unimodal(self):
        c = 0.4
        grid = [rayleigh_factor(v, c) for v in np.linspace(0.0, 2.0, 201)]
        top = int(np.argmax(grid))
        assert all(x <= y + 1e-12 for x, y in zip(grid[:top], grid[1:top + 1]))
        assert all(x >= y - 1e-12 for x, y in zip(grid[top:], grid[top + 1:]))

    def test_validation(self):
        with pytest.raises(ValueError):
            rayleigh_factor(-0.1, 0.5)
        with pytest.raises(ValueError):
            rayleigh_factor(0.1, 0.0)


class TestIvLabel:
    def test_boundaries(self):
        assert iv_label(0.0) == "not useful"
        assert iv_label(0.019) == "not useful"
        assert iv_label(0.02) == "weak"
        assert iv_label(0.1) == "medium"
        assert iv_label(0.3) == "strong"
        assert iv_label(0.45) == "strong"
        assert iv_label(0.5) == "over-prediction"
        assert iv_label(3.0) == "over-prediction"

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            iv_label(-0.01)


class TestAdjacentPvalues:
    def test_identical_bins_are_indistinguishable(self):
        ps = adjacent_pvalues([50, 50], [50, 50])
        assert len(ps) == 1
        assert ps[0] == pytest.approx(1.0)

    def test_extreme_bins_are_separated(self):
        ps = adjacent_pvalues([95, 5], [5, 95])
        assert ps[0] < 1e-6

    def test_one_pair_per_adjacency(self):
        assert len(adjacent_pvalues([5, 5, 5, 5], [5, 5, 5, 5])) == 3
        assert adjacent_pvalues([5], [5]) == ()

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            adjacent_pvalues([5, 5], [5])

    def test_a_bin_without_records_is_rejected(self):
        with pytest.raises(ValueError, match="bin 1 holds no records"):
            adjacent_pvalues([5, 0, 5], [5, 0, 5])

    def test_matches_a_loop_of_scalar_z_statistics(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            m = int(rng.integers(1, 12))
            ne = rng.integers(0, 30, m)
            ev = rng.integers(0, 30, m)
            # bins of a single class: pairs of zero pooled variance
            ev[rng.random(m) < 0.3] = 0
            ne[rng.random(m) < 0.3] = 0
            ne[ne + ev == 0] = 1
            want = tuple(
                float(2.0 * (1.0 - ndtr(abs(_zstat(
                    float(ev[i]), float(ne[i]),
                    float(ev[i + 1]), float(ne[i + 1]))))))
                for i in range(m - 1))
            got = adjacent_pvalues(ne.tolist(), ev.tolist())
            assert all(type(p) is float for p in got)
            assert got == want


def _golden_fit(tmp_path, variable, trend, *flags) -> BinningModel:
    model = str(tmp_path / "model.json")
    base = (["--special-values=-999"] if variable == "num" else
            ["--others-cutoff", "0.02", "--special-values", "zz"])
    with redirect_stdout(io.StringIO()):
        code = cli.main(["fit", "--data", GOLDEN_CSV, "--model", model,
                         "--variable", variable, "--target", "yb",
                         "--trend", trend, *base, *flags])
    assert code == 0
    with open(model) as fh:
        return BinningModel.from_json(fh.read())


@pytest.mark.parametrize("trend", ["none", "ascending", "peak", "auto"])
@pytest.mark.parametrize("variable", ["num", "cat"])
def test_fitted_bins_pass_the_pvalue_constraint(tmp_path, variable, trend):
    """The solver's masks and the report read one z statistic, so a fit
    under ``--max-pvalue`` reports no adjacent p-value above it."""
    def max_pvalue(model):
        return max(adjacent_pvalues([b.nonevent for b in model.bins],
                                    [b.event for b in model.bins]))

    free = _golden_fit(tmp_path, variable, trend)
    bound = _golden_fit(tmp_path, variable, trend, "--max-pvalue", "0.05")
    assert max_pvalue(free) > 0.05
    assert max_pvalue(bound) <= 0.05 + 1e-15


class TestQualityScore:
    def test_perfect_binning_scores_one(self):
        v = c_star(BAND_LOW, BAND_HIGH)
        assert quality_score(v, (0.0, 0.0), (1 / 3, 1 / 3, 1 / 3)) == \
            pytest.approx(1.0, abs=1e-12)

    def test_single_bin_scores_zero(self):
        assert quality_score(0.4, (), (1.0,)) == 0.0
        assert quality_score(0.4, (), ()) == 0.0

    def test_monotone_decreasing_in_each_pvalue(self):
        v = 0.35
        sizes = (0.25, 0.25, 0.5)
        base = quality_score(v, (0.1, 0.1), sizes)
        assert quality_score(v, (0.3, 0.1), sizes) < base
        assert quality_score(v, (0.1, 0.3), sizes) < base
        assert quality_score(v, (1.0, 0.1), sizes) == 0.0

    def test_uniform_sizes_beat_lopsided(self):
        v = 0.35
        assert quality_score(v, (), (0.5, 0.5)) > \
            quality_score(v, (), (0.9, 0.1))

    def test_bounded_on_random_inputs(self):
        rng = np.random.default_rng(42)
        for _ in range(500):
            m = int(rng.integers(2, 10))
            sizes = rng.dirichlet(np.ones(m))
            pvals = rng.uniform(size=m - 1)
            v = float(rng.uniform(0.0, 2.5))
            q = quality_score(v, pvals, sizes)
            assert 0.0 <= q <= 1.0

    def test_pvalue_range_checked(self):
        with pytest.raises(ValueError):
            quality_score(0.3, (1.5,), (0.5, 0.5))
        with pytest.raises(ValueError):
            quality_score(0.3, (-0.1,), (0.5, 0.5))


class TestAssess:
    def test_report_fields(self):
        rep = assess([30, 40, 30], [10, 25, 45], 0.35)
        assert rep.divergence == 0.35
        assert rep.label == "strong"
        assert len(rep.pvalues) == 2
        assert sum(rep.size_shares) == pytest.approx(1.0)
        assert rep.score == pytest.approx(
            quality_score(0.35, rep.pvalues, rep.size_shares))
        assert 0.0 <= rep.score <= 1.0

    def test_jsd_has_no_iv_label(self):
        rep = assess([30, 40], [10, 25], 0.02, divergence_kind="jsd")
        assert rep.label == "n/a"

    def test_well_separated_bins_score_higher(self):
        tight = assess([90, 10], [10, 90], 0.3957388)
        loose = assess([52, 48], [48, 52], 0.3957388)
        assert tight.score > loose.score
