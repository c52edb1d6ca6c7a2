import math

import numpy as np
import pytest

from ckoord.gbdt import TrainConfig
from ckoord.predictor import (
    DetectionVerdict,
    LoadFactorWeights,
    ModelCache,
    PredictorConfig,
    ThresholdParams,
    classify,
    cpi_threshold,
    delta_cpi,
    load_factor,
    worst_verdict,
)
from ckoord.trace import TraceRow, feature_matrix


WEIGHTS = LoadFactorWeights()  # cpu 0.5, mem 0.3, miss 0.2


def features_of(cpu_ratio=0.0, mem_ratio=0.0, miss=0.0):
    """A model input with the load-factor slots set and the node/system slots zero."""
    vec = np.zeros(9)
    vec[0], vec[1], vec[6] = cpu_ratio, mem_ratio, miss
    return vec


def test_load_factor_saturated():
    assert load_factor(features_of(1.0, 1.0, 5e6), n_max=5e6, weights=WEIGHTS) == pytest.approx(1.0)


def test_load_factor_half_everywhere():
    assert load_factor(features_of(0.5, 0.5, 2.5e6), n_max=5e6, weights=WEIGHTS) == pytest.approx(0.5)


def test_load_factor_idle_pod():
    assert load_factor(features_of(), n_max=1.0, weights=WEIGHTS) == 0.0


def test_load_factor_clamps_overcommit():
    # request ratios arrive clamped at 2; the load factor counts them up to 1
    assert load_factor(features_of(2.0, 2.0, 9e9), n_max=1e6, weights=WEIGHTS) == pytest.approx(1.0)


def test_load_factor_custom_weights():
    w = LoadFactorWeights(cpu=1.0, mem=0.0, miss=0.0)
    assert load_factor(features_of(1.0), n_max=1.0, weights=w) == pytest.approx(1.0)


def test_load_factor_miss_term_is_zero_without_n_max():
    # before any miss has been seen the loop's n_max is 0: the miss term drops out
    vec = features_of(1.0, 1.0, 3e6)
    assert load_factor(vec, n_max=0.0, weights=WEIGHTS) == pytest.approx(0.5 + 0.3)
    assert load_factor(vec, n_max=3e6, weights=WEIGHTS) == pytest.approx(1.0)


def test_feature_vector_layout():
    # the model input of one pod: request ratios, node CPU split, misses, system
    row = TraceRow(
        interval=0,
        node_id="node-00",
        pod_id="web-0",
        app_id="web",
        qos="LS",
        pod_cpu_util=1.0,
        pod_mem_util=1.0,
        node_cpu_total=0.5,
        node_cpu_offline=0.1,
        node_cpu_online=0.2,
        node_cpu_shared=0.3,
        node_mem_util=0.4,
        sys_cpu_total=0.4,
        sys_mem_total=0.5,
        l3_miss_rate=1e6,
        cpi=1.0,
        pod_cpu_cores=1.0,
    )
    X, _ = feature_matrix([row])
    vec = X[0]
    assert vec.shape == (9,)
    assert vec.dtype == np.float64
    expected = [1.0, 1.0, 0.5, 0.1, 0.3, 0.2, 1e6, 0.4, 0.5]
    assert vec == pytest.approx(expected)


def test_threshold_flat_history_idle_load():
    ts = [1.0] * 8
    assert cpi_threshold(ts, ThresholdParams(3.0, 0.1), load=0.0) == pytest.approx(0.0)


def test_threshold_hand_value():
    # rolling std 0.05, load 0.5: 3 * 0.05 + 0.1 * 0.5 = 0.2
    ts = [0.95, 1.05] * 4
    got = cpi_threshold(ts, ThresholdParams(3.0, 0.1), load=0.5)
    assert got == pytest.approx(0.2, abs=1e-12)


def test_threshold_pure_load_term():
    ts = [2.0] * 6
    got = cpi_threshold(ts, ThresholdParams(k1=0.0, k2=1.0), load=0.7)
    assert got == pytest.approx(0.7, abs=1e-12)


def test_threshold_given_the_mean_keeps_its_bits():
    values = [0.93, 1.07, 1.01, 0.99, 1.13, 0.88]
    for window in (1, 4, 6, 9):
        ts = values[-window:]
        mean = sum(ts) / len(ts)
        want = cpi_threshold(ts, ThresholdParams(3.0, 0.1), load=0.4)
        assert cpi_threshold(ts, ThresholdParams(3.0, 0.1), 0.4, mean).hex() == want.hex()


def test_threshold_rejects_out_of_range_load():
    ts = [1.0] * 4
    with pytest.raises(ValueError):
        cpi_threshold(ts, ThresholdParams(), load=1.5)
    with pytest.raises(ValueError):
        cpi_threshold(ts, ThresholdParams(), load=-0.1)


def test_delta_zero_when_predictions_match_rolling_means():
    # a constant series of 1.0 has rolling mean 1.0 at every interval
    assert delta_cpi([(1.0, 1.0)] * 3, "signed") == pytest.approx(0.0)


def test_delta_uniform_offset():
    assert delta_cpi([(1.2, 1.0)] * 2, "signed") == pytest.approx(0.2, abs=1e-12)


def test_delta_signed_cancels_absolute_does_not():
    # window 1 rolling means equal the samples themselves: diffs +0.1, -0.1
    pairs = [(1.1, 1.0), (0.9, 1.0)]
    assert delta_cpi(pairs, mode="signed") == pytest.approx(0.0, abs=1e-12)
    assert delta_cpi(pairs, mode="absolute") == pytest.approx(0.1, abs=1e-12)


def test_delta_rejects_bad_inputs():
    with pytest.raises(ValueError):
        delta_cpi([], "signed")
    with pytest.raises(ValueError):
        delta_cpi([(1.0, 1.0)], mode="rms")


def test_classify_boundary_is_not_detected():
    v = classify(0.2, 0.2, "web")
    assert not v.detected
    assert v.csi is None


def test_classify_mild_ratio():
    v = classify(0.24, 0.2, "web")
    assert v.detected
    assert v.csi == pytest.approx(1.2, abs=1e-12)
    assert v.app_id == "web"


def test_classify_strong_ratio():
    assert classify(0.5, 0.2).csi == pytest.approx(2.5, abs=1e-12)


def test_classify_zero_threshold_is_infinite_severity():
    v = classify(0.01, 0.0)
    assert v.detected
    assert v.csi == math.inf


def test_classify_rejects_negative_inputs():
    with pytest.raises(ValueError):
        classify(-0.1, 0.2)
    with pytest.raises(ValueError):
        classify(0.1, -0.2)


def test_classify_ratio_is_scale_free():
    assert classify(0.3, 0.1).csi == pytest.approx(classify(3.0, 1.0).csi)


def test_worst_verdict_picks_highest_severity():
    quiet = DetectionVerdict("web", 0.0, 0.5, False, None)
    mild = DetectionVerdict("web", 0.3, 0.25, True, 1.2)
    hot = DetectionVerdict("web", 0.9, 0.1, True, 9.0)
    assert worst_verdict([quiet, mild, hot]) is hot
    assert worst_verdict([quiet]) is quiet
    with pytest.raises(ValueError):
        worst_verdict([])


def test_undetected_verdicts_rank_below_any_detection():
    near_miss = DetectionVerdict("web", 0.49, 0.5, False, None)
    faint = DetectionVerdict("web", 0.11, 0.1, True, 1.1)
    assert worst_verdict([near_miss, faint]) is faint


def make_history(n, cpi=1.0):
    X = np.tile(np.linspace(0.1, 0.9, 9), (n, 1))
    return X, np.full(n, cpi)


def cache_config(window=4, min_windows=2):
    return PredictorConfig(
        window=window,
        min_history_windows=min_windows,
        train=TrainConfig(num_rounds=3, max_depth=2),
    )


def test_cache_defers_until_enough_history():
    assert cache_config(window=6, min_windows=3).min_history_rows == 18
    cache = ModelCache(cache_config(window=10, min_windows=2))
    X, y = make_history(5)
    assert cache.get_or_train("web", X, y) is None


def test_cache_trains_then_reuses_same_object():
    cache = ModelCache(cache_config())
    X, y = make_history(9)
    m1 = cache.get_or_train("web", X, y)
    assert m1 is not None
    m2 = cache.get_or_train("web", X[:8], y[:8])
    assert m2 is m1


def test_cache_invalidate_forces_retrain():
    cache = ModelCache(cache_config())
    X, y = make_history(9)
    m1 = cache.get_or_train("web", X, y)
    cache.invalidate("web")
    m2 = cache.get_or_train("web", X, y)
    assert m2 is not None
    assert m2 is not m1


def test_cache_rejects_wrong_feature_width():
    cache = ModelCache(cache_config())
    X = np.zeros((9, 4))
    with pytest.raises(ValueError):
        cache.get_or_train("web", X, np.ones(9))
