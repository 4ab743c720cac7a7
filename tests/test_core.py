import json
import math

import pytest

from binopt import (
    BinningConfig, BinningModel, BinStats, InvalidConfigError, Solution,
    TargetKind, TrendSpec, validate_config, with_trend,
)


def test_target_kind_constructors():
    assert TargetKind.binary().is_binary
    assert TargetKind.continuous().is_continuous
    mc = TargetKind.multiclass(4)
    assert mc.is_multiclass and mc.n_classes == 4


def test_multiclass_needs_three_classes():
    with pytest.raises(InvalidConfigError):
        TargetKind.multiclass(2)
    with pytest.raises(InvalidConfigError):
        TargetKind.multiclass(1.5)


def test_trend_parse_round_trip():
    assert TrendSpec.parse("ascending") == TrendSpec("ascending")
    assert TrendSpec.parse("Peak:3") == TrendSpec("peak", 3)
    assert TrendSpec("valley", 2).as_text() == "valley:2"
    assert TrendSpec("auto").as_text() == "auto"


def test_trend_rejects_bad_input():
    with pytest.raises(InvalidConfigError):
        TrendSpec("sideways")
    with pytest.raises(InvalidConfigError):
        TrendSpec("ascending", 3)      # change point only for peak/valley
    with pytest.raises(InvalidConfigError):
        TrendSpec("peak", -1)
    with pytest.raises(InvalidConfigError):
        TrendSpec.parse("peak:x")


def test_validate_config_collects_all_violations():
    cfg = BinningConfig(min_bins=0, max_bins=-2, min_bin_size=10,
                        max_bin_size=5, gamma=-1.0, divergence="kl",
                        max_pvalue=2.0, concentration="entropy", norm_p=3)
    with pytest.raises(InvalidConfigError) as err:
        validate_config(cfg)
    text = str(err.value)
    for fragment in ("min_bins", "max_bins", "min_bin_size", "gamma",
                     "divergence", "max_pvalue", "concentration", "norm_p"):
        assert fragment in text
    assert len(err.value.violations) >= 8


@pytest.mark.parametrize("field", ["gamma", "min_diff"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_validate_config_rejects_non_finite_weights(field, value):
    with pytest.raises(InvalidConfigError) as err:
        validate_config(BinningConfig(**{field: value}))
    assert field + " must be a finite real number" in str(err.value)


def test_validate_config_accepts_defaults():
    assert validate_config(BinningConfig()) is not None
    cfg = BinningConfig(trend=(TrendSpec("ascending"), TrendSpec("auto"),
                               TrendSpec("peak", 1)))
    validate_config(cfg)


def test_with_trend_replaces_only_trend():
    cfg = BinningConfig(min_bins=3, gamma=0.5)
    out = with_trend(cfg, TrendSpec("descending"))
    assert out.trend == TrendSpec("descending")
    assert out.min_bins == 3 and out.gamma == 0.5


def test_solution_partition_invariants():
    good = Solution(status="optimal", intervals=((0, 1), (2, 4)),
                    objective=1.0, n_prebins=5)
    good.check_partition()
    with pytest.raises(AssertionError):
        Solution(status="optimal", intervals=((0, 1), (3, 4)),
                 n_prebins=5).check_partition()   # gap at 2
    with pytest.raises(AssertionError):
        Solution(status="optimal", intervals=((0, 3),),
                 n_prebins=5).check_partition()   # does not reach the end
    with pytest.raises(AssertionError):
        Solution(status="infeasible", intervals=((0, 4),),
                 n_prebins=5).check_partition()
    Solution(status="infeasible", n_prebins=5).check_partition()


def test_solution_flags():
    assert Solution(status="optimal").is_feasible
    assert Solution(status="feasible").is_feasible
    assert not Solution(status="infeasible").is_feasible
    assert Solution(status="optimal", intervals=((0, 0), (1, 2))).n_bins == 2


def _tiny_model():
    return BinningModel(
        variable="x", dtype="numeric", target_kind=TargetKind.binary(),
        splits=(1.5, 4.0),
        bins=(BinStats(count=10, nonevent=6, event=4, event_rate=0.4,
                       woe=0.25, iv_contrib=0.01, js_contrib=0.001),
              BinStats(count=12, nonevent=5, event=7, event_rate=7 / 12,
                       woe=-0.3, iv_contrib=0.02, js_contrib=0.002),
              BinStats(count=8, nonevent=2, event=6, event_rate=0.75,
                       woe=-0.9, iv_contrib=0.05, js_contrib=0.005)),
        transform_values=(0.25, -0.3, -0.9),
        special_value=0.0, missing_value=0.1, quality=0.42, objective=0.08,
        trend_used="ascending",
        config=BinningConfig(trend=TrendSpec("ascending"),
                             special_values=(-9.0,)))


def test_model_json_round_trip():
    model = _tiny_model()
    again = BinningModel.from_json(model.to_json())
    assert again == model
    # a second serialization is byte-identical (stable key order, no clocks)
    assert again.to_json() == model.to_json()


def test_model_json_is_sorted_and_versioned():
    d = json.loads(_tiny_model().to_json())
    assert d["format_version"] == 1
    assert list(d.keys()) == sorted(d.keys())


def test_model_rejects_unknown_version():
    d = _tiny_model().to_dict()
    d["format_version"] = 99
    with pytest.raises(Exception) as err:
        BinningModel.from_dict(d)
    assert "version" in str(err.value)


def test_model_rejects_garbage():
    from binopt import InputError
    with pytest.raises(InputError):
        BinningModel.from_json("{not json")
    with pytest.raises(InputError):
        BinningModel.from_json('{"format_version": 1}')
    for text in ("[1, 2]", "3", "null"):
        with pytest.raises(InputError, match="not a JSON object"):
            BinningModel.from_json(text)
    # a trend that is neither a string nor a list of strings
    for trend in (5, [1], None, {"kind": "ascending"}):
        d = json.loads(_tiny_model().to_json())
        d["config"]["trend"] = trend
        with pytest.raises(InputError, match="malformed model file: trend"):
            BinningModel.from_json(json.dumps(d))


def test_model_trend_tuple_round_trip():
    model = BinningModel(
        variable="x", dtype="numeric", target_kind=TargetKind.multiclass(3),
        splits=(2.0,), trend_used="ascending,descending,peak",
        config=BinningConfig(trend=(TrendSpec("ascending"),
                                    TrendSpec("descending"),
                                    TrendSpec("peak", 2))))
    again = BinningModel.from_json(model.to_json())
    assert again.config.trend == model.config.trend
