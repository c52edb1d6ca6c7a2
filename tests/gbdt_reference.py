"""Independent brute-force reference for the boosted-tree trainer.

Deliberately written in plain Python with exhaustive candidate enumeration
and direct per-split summation: no numpy, no prefix sums, no shared code
with the implementation under test, so a bug there cannot be mirrored here.

Matching rules (must mirror the documented contract, not the code):
  * thresholds are midpoints between consecutive distinct sorted values
  * a midpoint that rounds down to the lower value cannot separate and is
    skipped
  * routing is strictly x[feature] < threshold
  * ties on gain prefer the lower feature index, then the lower threshold
  * growth stops when best gain <= 0, at max_depth, or when a child would
    fall under min_samples_leaf

``squared_error_objective`` scores an implementation Ensemble against the
regularized objective the trainer minimizes, for the objective tests; it
and ``same_structure`` read the model through its nested document.
"""

from __future__ import annotations

from dataclasses import dataclass

from ckoord.gbdt import ensemble_to_dict


@dataclass
class RefNode:
    feature: int | None = None
    threshold: float = 0.0
    left: "RefNode | None" = None
    right: "RefNode | None" = None
    weight: float = 0.0

    @property
    def is_leaf(self) -> bool:
        return self.feature is None


def ref_leaf_weight(g_sum: float, h_sum: float, lam: float) -> float:
    return -g_sum / (h_sum + lam)


def ref_split_gain(gl: float, hl: float, gr: float, hr: float, lam: float, tau: float) -> float:
    return 0.5 * (
        gl * gl / (hl + lam)
        + gr * gr / (hr + lam)
        - (gl + gr) * (gl + gr) / (hl + hr + lam)
    ) - tau


def ref_fit_tree(
    X: list[list[float]],
    g: list[float],
    h: list[float],
    max_depth: int,
    lam: float,
    tau: float,
    min_samples_leaf: int,
) -> RefNode:
    n_features = len(X[0]) if X else 0

    def grow(rows: list[int], depth: int) -> RefNode:
        best: tuple[float, int, float] | None = None
        if depth < max_depth and len(rows) >= 2 * min_samples_leaf:
            for f in range(n_features):
                distinct = sorted({X[r][f] for r in rows})
                for lo, hi in zip(distinct, distinct[1:]):
                    t = (lo + hi) / 2.0
                    if not t > lo:
                        continue
                    left = [r for r in rows if X[r][f] < t]
                    right = [r for r in rows if not X[r][f] < t]
                    if len(left) < min_samples_leaf or len(right) < min_samples_leaf:
                        continue
                    gain = ref_split_gain(
                        sum(g[r] for r in left),
                        sum(h[r] for r in left),
                        sum(g[r] for r in right),
                        sum(h[r] for r in right),
                        lam,
                        tau,
                    )
                    if best is None or gain > best[0]:
                        best = (gain, f, t)
        if best is None or best[0] <= 0.0:
            return RefNode(
                weight=ref_leaf_weight(
                    sum(g[r] for r in rows), sum(h[r] for r in rows), lam
                )
            )
        _, feature, threshold = best
        left_rows = [r for r in rows if X[r][feature] < threshold]
        right_rows = [r for r in rows if not X[r][feature] < threshold]
        return RefNode(
            feature=feature,
            threshold=threshold,
            left=grow(left_rows, depth + 1),
            right=grow(right_rows, depth + 1),
        )

    return grow(list(range(len(X))), 0)


def ref_predict_row(node: RefNode, x: list[float]) -> float:
    while not node.is_leaf:
        node = node.left if x[node.feature] < node.threshold else node.right
    return node.weight


def ref_train(
    X: list[list[float]],
    y: list[float],
    rounds: int,
    learning_rate: float,
    max_depth: int,
    lam: float,
    tau: float,
    min_samples_leaf: int,
    base_score: float,
) -> list[RefNode]:
    preds = [base_score] * len(y)
    trees: list[RefNode] = []
    for _ in range(rounds):
        g = [p - t for p, t in zip(preds, y)]
        h = [1.0] * len(y)
        tree = ref_fit_tree(X, g, h, max_depth, lam, tau, min_samples_leaf)
        trees.append(tree)
        preds = [p + learning_rate * ref_predict_row(tree, x) for p, x in zip(preds, X)]
    return trees


def ref_ensemble_predict(
    trees: list[RefNode], x: list[float], learning_rate: float, base_score: float
) -> float:
    return base_score + learning_rate * sum(ref_predict_row(t, x) for t in trees)


def same_structure(ref: RefNode, node: dict, weight_tol: float = 1e-9) -> bool:
    """Structural equality against a tree of an implementation model's
    nested document (``ensemble_to_dict(model)["trees"][i]``)."""
    if ref.is_leaf != ("weight" in node):
        return False
    if ref.is_leaf:
        return abs(ref.weight - node["weight"]) <= weight_tol
    if ref.feature != node["feature"] or ref.threshold != node["threshold"]:
        return False
    return same_structure(ref.left, node["left"], weight_tol) and same_structure(
        ref.right, node["right"], weight_tol
    )


def _tree_penalty(node: dict, lam: float, tau: float) -> float:
    if "weight" in node:
        return tau + 0.5 * lam * node["weight"] ** 2
    return _tree_penalty(node["left"], lam, tau) + _tree_penalty(node["right"], lam, tau)


def squared_error_objective(ensemble, X, y, cfg) -> float:
    """Training objective of an implementation Ensemble: half the sum of
    squared errors, plus tau + 0.5 * lam * weight**2 for every leaf."""
    loss = 0.5 * sum((float(p) - float(t)) ** 2 for p, t in zip(ensemble.predict(X), y))
    trees = ensemble_to_dict(ensemble)["trees"]
    return loss + sum(_tree_penalty(t, cfg.lam, cfg.tau) for t in trees)
