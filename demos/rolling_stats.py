#!/usr/bin/env python3
"""Rolling statistics and the adaptive detection threshold.

Walks a CPI series through a quiet stretch, a volatility burst, and a
large-magnitude regime to show how the windowed mean/std react, why the
two-pass variance survives values near 1e6, and how the detection
threshold widens with volatility and load.
"""

import math
import random
from collections import deque

from ckoord.predictor import ThresholdParams, cpi_threshold
from ckoord.telemetry import rolling_mean, rolling_std

WINDOW = 16


def show(window: deque[float], label: str) -> None:
    mean = rolling_mean(window)
    std = rolling_std(window)
    print(f"  {label:<24} mean={mean:9.4f}  std={std:9.4f}")


def main() -> None:
    rng = random.Random(7)
    series: deque[float] = deque(maxlen=WINDOW)

    print("quiet baseline (CPI ~ 1.0 +/- 0.02):")
    for _ in range(24):
        series.append(rng.gauss(1.0, 0.02))
    show(series, "after 24 samples")

    print("volatility burst (CPI ~ 1.0 +/- 0.30):")
    for _ in range(16):
        series.append(rng.gauss(1.0, 0.30))
    show(series, "burst fills the window")

    print("burst ages out of the window:")
    for _ in range(16):
        series.append(rng.gauss(1.0, 0.02))
    show(series, "16 quiet samples later")

    # Large offsets are where a naive sum-of-squares variance loses all
    # precision; the two-pass form keeps the windowed std honest.
    print("\nlarge-magnitude regime (values ~ 1e6):")
    big: deque[float] = deque(maxlen=WINDOW)
    shadow = []
    worst = 0.0
    for _ in range(200):
        v = 1e6 + rng.gauss(0.0, 1.0)
        big.append(v)
        shadow.append(v)
        tail = shadow[-WINDOW:]
        if len(tail) < WINDOW:
            continue
        ref_mean = math.fsum(tail) / WINDOW
        ref_std = math.sqrt(math.fsum((x - ref_mean) ** 2 for x in tail) / WINDOW)
        worst = max(worst, abs(rolling_std(big) - ref_std) / max(ref_std, 1e-300))
    show(big, "window of 1e6-scale values")
    print(f"  worst std error vs math.fsum reference: {worst:.2e}")

    print("\nadaptive threshold = k1 * rolling_std + k2 * load:")
    params = ThresholdParams(k1=3.0, k2=0.1)
    quiet: deque[float] = deque(maxlen=WINDOW)
    noisy: deque[float] = deque(maxlen=WINDOW)
    for i in range(WINDOW):
        quiet.append(1.0 + (0.02 if i % 2 else -0.02))
        noisy.append(1.0 + (0.20 if i % 2 else -0.20))
    for name, s in (("quiet series", quiet), ("noisy series", noisy)):
        for load in (0.2, 0.9):
            th = cpi_threshold(s, params, load)
            print(f"  {name:<13} load={load:.1f}  threshold={th:.4f}")
    print("noisier history or a busier pod both demand a larger CPI excursion")
    print("before the predictor calls interference.")


if __name__ == "__main__":
    main()
