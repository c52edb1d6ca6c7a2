import math

import pytest

from ckoord.telemetry import (
    EmptyWindowError,
    OrderingError,
    TimeSeries,
    rolling_mean,
    rolling_std,
)


def series_of(values, capacity=240):
    s = TimeSeries("t", capacity=capacity)
    for i, v in enumerate(values):
        s.record(i * 5, v)
    return s


def test_append_base_case():
    s = TimeSeries("t", capacity=8)
    s.record(0, 1.0)
    assert len(s) == 1
    assert (s.timestamps, s.values) == ([0], [1.0])


def test_append_ring_evicts_oldest():
    s = series_of([1.0, 2.0, 3.0], capacity=3)
    s.record(15, 4.0)
    assert len(s) == 3
    assert s.values == [2.0, 3.0, 4.0]
    assert s.timestamps == [5, 10, 15]


def test_append_same_timestamp_rejected():
    s = TimeSeries("t", capacity=8)
    s.record(5, 1.0)
    with pytest.raises(OrderingError):
        s.record(5, 2.0)


def test_append_backwards_timestamp_rejected():
    s = TimeSeries("t", capacity=8)
    s.record(10, 1.0)
    with pytest.raises(OrderingError):
        s.record(5, 2.0)


def test_sample_validation():
    s = TimeSeries("t", capacity=8)
    with pytest.raises(ValueError):
        s.record(-1, 0.0)
    with pytest.raises(ValueError):
        s.record(0, math.nan)
    with pytest.raises(ValueError):
        s.record(0, math.inf)
    assert len(s) == 0  # a rejected sample leaves no trace


def test_rolling_mean_constant():
    assert rolling_mean(series_of([2.0, 2.0, 2.0]), 3) == 2.0


def test_rolling_mean_last_two():
    assert rolling_mean(series_of([1.0, 2.0, 3.0, 4.0]), 2) == 3.5


def test_rolling_mean_window_clipped_to_length():
    assert rolling_mean(series_of([1.0, 2.0, 3.0]), 10) == 2.0


def test_rolling_std_constant_is_zero():
    assert rolling_std(series_of([5.0, 5.0, 5.0]), 3) == 0.0


def test_rolling_std_two_points():
    assert rolling_std(series_of([1.0, 3.0]), 2) == 1.0


def test_rolling_std_singleton_is_zero():
    assert rolling_std(series_of([7.0]), 1) == 0.0


def test_rolling_var_is_population_form():
    s = series_of([1.0, 2.0, 3.0, 4.0])
    # mean 2.5, squared deviations 2.25+0.25+0.25+2.25, divided by n=4 (not n-1)
    assert rolling_std(s, 4) == pytest.approx(math.sqrt(1.25), abs=1e-15)


def test_rolling_std_given_the_mean_keeps_its_bits():
    # the loop hands rolling_std the mean it already took for the prediction
    values = [1.0 + ((7 * i) % 11) / 3.0 for i in range(40)]
    s = series_of(values, capacity=32)
    for n in (1, 2, 5, 31, 32, 60):
        mean = rolling_mean(s, n)
        assert rolling_std(s, n, mean).hex() == rolling_std(s, n).hex()


def test_empty_series_errors():
    s = TimeSeries("t", capacity=8)
    with pytest.raises(EmptyWindowError):
        rolling_mean(s, 5)
    with pytest.raises(EmptyWindowError):
        s.window_values(1)


def test_window_must_be_positive():
    s = series_of([1.0])
    with pytest.raises(ValueError):
        s.window_values(0)


def test_capacity_must_be_positive():
    with pytest.raises(ValueError):
        TimeSeries("t", capacity=0)


def test_mean_within_window_bounds_and_std_nonnegative():
    import random

    rng = random.Random(7)
    s = TimeSeries("t", capacity=50)
    shadow = []
    for i in range(400):
        v = rng.uniform(-5, 5)
        s.record(i, v)
        shadow.append(v)
        n = rng.randint(1, 80)
        window = shadow[-min(len(s), n):]
        assert min(window) - 1e-12 <= rolling_mean(s, n) <= max(window) + 1e-12
        assert rolling_std(s, n) >= 0.0


def test_matches_brute_force_recomputation_after_eviction():
    import random

    rng = random.Random(3)
    s = TimeSeries("t", capacity=30)
    shadow = []
    for i in range(500):
        v = rng.gauss(0, 2)
        s.record(i, v)
        shadow.append(v)
        n = rng.randint(1, 45)
        ring_tail = shadow[-min(len(shadow), 30):]
        window = ring_tail[-min(len(ring_tail), n):]
        mean = math.fsum(window) / len(window)
        var = math.fsum((x - mean) ** 2 for x in window) / len(window)
        assert rolling_mean(s, n) == pytest.approx(mean, abs=1e-12)
        assert rolling_std(s, n) == pytest.approx(math.sqrt(var), abs=1e-12)
