"""Hessian-carrying reference for the boosted-tree trainer.

This is the pre-sorted exact-greedy trainer as it was before it was
specialised to squared loss: fit_tree takes a hessian array h and sums it
like the gradients, and train_ensemble passes h = 1.  For unit hessians every
hessian sum is an exact row count, so the squared-loss trainer must produce
the same model bytes; tests compare ``ensemble_to_json`` of both.  Kept only
as an oracle.  Its trees are linked ``TreeNode`` objects, walked by
``tree_predict``, and reach an Ensemble only through the model reader.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ckoord.gbdt import MODEL_SCHEMA_VERSION, Ensemble, TrainConfig, ensemble_from_dict


@dataclass
class TreeNode:
    """Internal node when feature is not None, leaf otherwise."""

    feature: int | None = None
    threshold: float = 0.0
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None
    weight: float = 0.0

    @property
    def is_leaf(self) -> bool:
        return self.feature is None


def tree_predict(node: TreeNode, X: np.ndarray) -> np.ndarray:
    """Vectorized tree evaluation over the rows of X."""
    out = np.empty(X.shape[0], dtype=np.float64)
    stack: list[tuple[TreeNode, np.ndarray]] = [(node, np.arange(X.shape[0]))]
    while stack:
        current, rows = stack.pop()
        if rows.size == 0:
            continue
        if current.is_leaf:
            out[rows] = current.weight
            continue
        mask = X[rows, current.feature] < current.threshold
        stack.append((current.left, rows[mask]))
        stack.append((current.right, rows[~mask]))
    return out


def tree_to_dict(node: TreeNode) -> dict:
    """The tree in the nested form of the schema-v1 model document."""
    if node.is_leaf:
        return {"weight": node.weight}
    return {
        "feature": node.feature,
        "threshold": node.threshold,
        "left": tree_to_dict(node.left),
        "right": tree_to_dict(node.right),
    }


def ensemble_of(
    trees: list[TreeNode], feature_count: int, base_score: float = 0.0, learning_rate: float = 1.0
) -> Ensemble:
    """An Ensemble of these trees, read from their model document; by
    default in the form gbdt.fit_tree returns one tree."""
    return ensemble_from_dict(
        {
            "version": MODEL_SCHEMA_VERSION,
            "base_score": base_score,
            "learning_rate": learning_rate,
            "feature_count": feature_count,
            "trees": [tree_to_dict(tree) for tree in trees],
        }
    )

def leaf_weight(g_sum: float, h_sum: float, lam: float) -> float:
    denom = h_sum + lam
    if denom <= 0:
        raise ValueError(f"h_sum + lam = {denom} is not positive")
    return -g_sum / denom


def split_gain(
    g_left: float,
    h_left: float,
    g_right: float,
    h_right: float,
    lam: float,
    tau: float,
) -> float:
    parent_g = g_left + g_right
    parent_h = h_left + h_right
    return 0.5 * (
        g_left * g_left / (h_left + lam)
        + g_right * g_right / (h_right + lam)
        - parent_g * parent_g / (parent_h + lam)
    ) - tau


# Scoring arrays hold at most this many (feature, row) cells, 64 KiB of
# float64.  Nodes of up to 910 rows score all nine features in one pass; a
# larger node takes a few features at a time, so its arrays stay in cache and
# under malloc's mmap threshold instead of faulting in fresh pages at every
# node, and the fit's memory stays bounded.
_BLOCK_CELLS = 8192


def _prefix_gains(
    g: np.ndarray, h: np.ndarray, order: np.ndarray, lo: int, hi: int, cfg: TrainConfig
) -> np.ndarray:
    """Gain of each candidate split of each feature, from prefix sums.

    Entry (f, j) splits ``order[f]`` after its first lo + j + 1 rows; entries
    may be non-finite.  Each step applies one operation of the split-gain
    formula to the same operands as the formula does, so the gains are the
    formula's bits; working in place keeps at most four arrays the size of
    ``order`` alive.
    """
    g_cum = g[order]
    np.cumsum(g_cum, axis=1, out=g_cum)
    h_cum = h[order]
    np.cumsum(h_cum, axis=1, out=h_cum)
    g_tot, h_tot = g_cum[:, -1:], h_cum[:, -1:]
    g_pre, h_pre = g_cum[:, lo:hi], h_cum[:, lo:hi]
    with np.errstate(divide="ignore", invalid="ignore"):
        # G^2 is a product, as every other square here: pow() would tie the
        # trees to the host's libm, whose rounding of x**2 may differ from x*x
        parent = np.square(g_tot[:, 0]) / (h_tot[:, 0] + cfg.lam)
        right_term = g_tot - g_pre
        np.square(right_term, out=right_term)
        den = h_tot - h_pre
        den += cfg.lam
        right_term /= den
        h_pre += cfg.lam
        gains = np.square(g_pre, out=g_pre)
        gains /= h_pre
        gains += right_term
        gains -= parent[:, None]
        gains *= 0.5
        gains -= cfg.tau
    return gains


def _feature_winners(
    X: np.ndarray, g: np.ndarray, h: np.ndarray, order: np.ndarray, cfg: TrainConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Per feature: whether it has a valid candidate, and its best threshold.

    Features are scored together, in blocks of at most _BLOCK_CELLS
    (feature, row) cells: every feature of a small node in one pass, fewer
    at a time in a large one.  Within a feature the first maximum wins,
    which is the lowest threshold.
    """
    d, m = order.shape
    # candidate j leaves lo + j + 1 rows on the left; only j < hi - lo keeps
    # min_samples_leaf rows on both sides
    lo, hi = cfg.min_samples_leaf - 1, m - cfg.min_samples_leaf
    found = np.empty(d, dtype=bool)
    cut = np.empty(d)
    step = max(1, _BLOCK_CELLS // m)
    for first in range(0, d, step):
        block = slice(first, first + step)
        gains = _prefix_gains(g, h, order[block], lo, hi, cfg)
        v = np.take_along_axis(X.T[block], order[block], axis=1)
        below, above = v[:, lo:hi], v[:, lo + 1 : hi + 1]
        thresholds = below + above
        thresholds /= 2.0
        ok = below < above
        ok &= thresholds > below  # a midpoint rounding down to the lower value cannot separate
        ok &= np.isfinite(gains)
        gains[~ok] = -np.inf
        pick = np.arange(gains.shape[0]), gains.argmax(axis=1)
        found[block] = gains[pick] > -np.inf
        cut[block] = thresholds[pick]
    return found, cut


def _best_split(
    X: np.ndarray,
    g: np.ndarray,
    h: np.ndarray,
    rows: np.ndarray,
    order: np.ndarray,
    cfg: TrainConfig,
) -> tuple[float, int, float] | None:
    """Best (gain, feature, threshold) over every feature of one node, or None.

    ``rows`` are the node's rows in ascending order and ``order[f]`` the same
    rows sorted by feature f.  Each feature's winner is re-scored from
    row-order sums so gains are comparable across features bit for bit.
    """
    found, cut = _feature_winners(X, g, h, order, cfg)
    left = X.take(rows, axis=0).T < cut[:, None]
    right = ~left
    g_node = g[rows]
    h_node = h[rows]
    add = np.add.reduce  # ndarray.sum's pairwise sum, without its Python wrapper
    best: tuple[float, int, float] | None = None
    for f in np.flatnonzero(found):
        gain = split_gain(
            float(add(g_node.compress(left[f]))),
            float(add(h_node.compress(left[f]))),
            float(add(g_node.compress(right[f]))),
            float(add(h_node.compress(right[f]))),
            cfg.lam,
            cfg.tau,
        )
        if best is None or gain > best[0]:  # ties keep the lower feature index
            best = (gain, int(f), float(cut[f]))
    return best


def _grow(
    X: np.ndarray,
    g: np.ndarray,
    h: np.ndarray,
    rows: np.ndarray,
    order: np.ndarray,
    depth: int,
    cfg: TrainConfig,
) -> TreeNode:
    best = None
    if depth < cfg.max_depth and rows.size >= 2 * cfg.min_samples_leaf:
        best = _best_split(X, g, h, rows, order, cfg)

    if best is None or best[0] <= 0.0:
        return TreeNode(
            weight=leaf_weight(float(np.sum(g[rows])), float(np.sum(h[rows])), cfg.lam)
        )

    _, feature, threshold = best
    go_left = X[:, feature] < threshold
    d = order.shape[0]
    # selection keeps each feature's sorted order: a stable partition
    left, right = (
        _grow(
            X,
            g,
            h,
            rows.compress(side[rows]),
            order.compress(side[order].ravel()).reshape(d, -1),
            depth + 1,
            cfg,
        )
        for side in (go_left, ~go_left)
    )
    return TreeNode(feature=feature, threshold=threshold, left=left, right=right)


def fit_tree(
    X: np.ndarray,
    g: np.ndarray,
    h: np.ndarray,
    cfg: TrainConfig,
    *,
    order: np.ndarray | None = None,
) -> TreeNode:
    """Fit one regression tree to gradient/hessian pairs.

    ``order`` is ``np.argsort(X.T, axis=1, kind="stable")``.  It depends on X
    alone, so a caller fitting many trees on one X sorts once and passes it;
    without it, fit_tree sorts.
    """
    X = np.asarray(X, dtype=np.float64)
    g = np.asarray(g, dtype=np.float64)
    h = np.asarray(h, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValueError("X must be a non-empty 2-D array")
    if g.shape != (X.shape[0],) or h.shape != (X.shape[0],):
        raise ValueError("g and h must be 1-D and match the number of rows")
    if not (np.isfinite(X).all() and np.isfinite(g).all() and np.isfinite(h).all()):
        raise ValueError("non-finite training input")
    if order is None:
        order = np.argsort(X.T, axis=1, kind="stable")
    return _grow(X, g, h, np.arange(X.shape[0]), order, 0, cfg)


def train_ensemble(X: np.ndarray, y: np.ndarray, cfg: TrainConfig) -> Ensemble:
    """Boost cfg.num_rounds squared-loss trees against targets y."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValueError("X must be a non-empty 2-D array")
    if y.shape != (X.shape[0],):
        raise ValueError("y must be 1-D and match the number of rows")
    if not (np.isfinite(X).all() and np.isfinite(y).all()):
        raise ValueError("non-finite training input")

    trees = []
    preds = np.full(X.shape[0], cfg.base_score, dtype=np.float64)
    h = np.ones(X.shape[0], dtype=np.float64)
    order = np.argsort(X.T, axis=1, kind="stable")  # X is fixed, so sort once per fit
    for _ in range(cfg.num_rounds):
        g = preds - y
        tree = fit_tree(X, g, h, cfg, order=order)
        trees.append(tree)
        preds += cfg.learning_rate * tree_predict(tree, X)
    return ensemble_of(trees, X.shape[1], cfg.base_score, cfg.learning_rate)
