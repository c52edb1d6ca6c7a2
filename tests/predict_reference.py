"""One-row reference for ensemble prediction.

This is prediction as it was before the trees were packed: each tree is
walked from its root in Python, and its leaf, scaled by the learning rate,
is added to a running total that starts at the base score.  Packed
prediction must give the same bits; tests compare the two.  Kept only as an
oracle.
"""

from __future__ import annotations

import numpy as np

from ckoord.gbdt import Ensemble, TreeNode


def tree_predict_row(node: TreeNode, x: np.ndarray) -> float:
    while not node.is_leaf:
        node = node.left if x[node.feature] < node.threshold else node.right
    return node.weight


def predict_row(self: Ensemble, x: np.ndarray) -> float:
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (self.feature_count,):
        raise ValueError(f"expected {self.feature_count} features, got {x.shape}")
    total = self.base_score
    for tree in self.trees:
        total += self.learning_rate * tree_predict_row(tree, x)
    return float(total)
