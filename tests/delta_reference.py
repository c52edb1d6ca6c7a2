"""Recompute reference for the CPI deviation.

This is the deviation as the loop computed it before it stored the rolling
mean next to each prediction: every call recomputes the trailing mean of the
measured series ``actual`` (its values, oldest first) at the interval of
each prediction, aligning the predictions to the most recent samples.
O(window**2) per call, kept only as an oracle.
"""

from __future__ import annotations


def reference_delta_cpi(
    predictions: list[float], actual: list[float], window: int, mode: str = "signed"
) -> float:
    if not predictions:
        raise ValueError("no predictions")
    if len(actual) < len(predictions):
        raise ValueError(
            f"actual series has {len(actual)} samples, fewer than "
            f"{len(predictions)} predictions"
        )
    diffs = []
    for j, pred in enumerate(predictions):
        end = len(actual) - len(predictions) + j + 1  # series position of prediction j
        tail = actual[max(0, end - window):end]
        rm = sum(tail) / len(tail)
        diffs.append(pred - rm)
    if mode == "signed":
        return abs(sum(diffs) / len(diffs))
    if mode == "absolute":
        return sum(abs(d) for d in diffs) / len(diffs)
    raise ValueError(f"mode must be 'signed' or 'absolute', got {mode!r}")
