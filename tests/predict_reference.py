"""One-row reference for ensemble prediction.

This is prediction as it was before the trees were flat node tables: each
tree of the model's nested document is walked from its root in Python, and
its leaf, scaled by the learning rate, is added to a running total that
starts at the base score.  The table walk must give the same bits; tests
compare the two.  Kept only as an oracle.
"""

from __future__ import annotations

import numpy as np

from ckoord.gbdt import Ensemble, ensemble_to_dict


def tree_predict_row(node: dict, x: np.ndarray) -> float:
    while "weight" not in node:
        node = node["left"] if x[node["feature"]] < node["threshold"] else node["right"]
    return node["weight"]


def predict_rows(model: Ensemble, X: np.ndarray) -> list[float]:
    doc = ensemble_to_dict(model)
    out = []
    for x in np.asarray(X, dtype=np.float64):
        total = doc["base_score"]
        for tree in doc["trees"]:
            total += doc["learning_rate"] * tree_predict_row(tree, x)
        out.append(float(total))
    return out
