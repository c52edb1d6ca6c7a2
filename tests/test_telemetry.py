import math
from collections import deque

import pytest

from ckoord.telemetry import rolling_mean, rolling_std


def test_rolling_mean_constant():
    assert rolling_mean([2.0, 2.0, 2.0]) == 2.0


def test_rolling_mean_last_two():
    assert rolling_mean(deque([1.0, 2.0, 3.0, 4.0], maxlen=2)) == 3.5


def test_rolling_mean_window_clipped_to_length():
    # a window that is not full yet averages what it holds
    assert rolling_mean(deque([1.0, 2.0, 3.0], maxlen=10)) == 2.0


def test_rolling_std_constant_is_zero():
    assert rolling_std([5.0, 5.0, 5.0]) == 0.0


def test_rolling_std_two_points():
    assert rolling_std([1.0, 3.0]) == 1.0


def test_rolling_std_singleton_is_zero():
    assert rolling_std([7.0]) == 0.0


def test_rolling_var_is_population_form():
    # mean 2.5, squared deviations 2.25+0.25+0.25+2.25, divided by n=4 (not n-1)
    assert rolling_std([1.0, 2.0, 3.0, 4.0]) == pytest.approx(math.sqrt(1.25), abs=1e-15)


def test_rolling_std_given_the_mean_keeps_its_bits():
    # the loop hands rolling_std the mean it already took for the prediction
    values = [1.0 + ((7 * i) % 11) / 3.0 for i in range(40)]
    for n in (1, 2, 5, 31, 32, 60):
        window = deque(values, maxlen=n)
        mean = rolling_mean(window)
        assert rolling_std(window, mean).hex() == rolling_std(window).hex()


def test_empty_series_errors():
    with pytest.raises(ValueError, match="no samples in the window"):
        rolling_mean(deque(maxlen=5))
    with pytest.raises(ValueError, match="no samples in the window"):
        rolling_std([])
    with pytest.raises(ValueError, match="no samples in the window"):
        rolling_std([], 1.0)


def test_mean_within_window_bounds_and_std_nonnegative():
    import random

    rng = random.Random(7)
    shadow = []
    for _ in range(400):
        shadow.append(rng.uniform(-5, 5))
        n = rng.randint(1, 80)
        window = shadow[-min(50, n):]
        assert min(window) - 1e-12 <= rolling_mean(window) <= max(window) + 1e-12
        assert rolling_std(window) >= 0.0


def test_matches_brute_force_recomputation_after_eviction():
    import random

    rng = random.Random(3)
    ring: deque[float] = deque(maxlen=30)
    for _ in range(500):
        ring.append(rng.gauss(0, 2))
        n = rng.randint(1, 45)
        window = list(ring)[-n:]
        mean = math.fsum(window) / len(window)
        var = math.fsum((x - mean) ** 2 for x in window) / len(window)
        assert rolling_mean(window) == pytest.approx(mean, abs=1e-12)
        assert rolling_std(window) == pytest.approx(math.sqrt(var), abs=1e-12)
