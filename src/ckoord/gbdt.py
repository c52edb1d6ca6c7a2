"""Gradient-boosted regression trees, written from scratch.

Least-squares boosting (Friedman, Annals of Statistics 2001): each round fits
one regression tree to the per-sample gradients g_i = pred_i - y_i of the
running prediction under squared loss.  In the second-order form of XGBoost
(Chen & Guestrin, KDD 2016) the hessian of squared loss is h_i = 1, so every
hessian sum H is the node's row count n.  With L2 leaf penalty ``lam`` and
per-leaf cost ``tau``:

    leaf weight   w* = -G / (n + lam)
    split gain    0.5 * ( GL^2/(nL+lam) + GR^2/(nR+lam) - G^2/(n+lam) ) - tau

where G is the gradient sum over the samples reaching the node.  A sum of
1.0s below 2**53 is exact in float64, so counting rows gives the same bits
as summing a hessian array of ones; no hessian array is built.

Splits are exact greedy: thresholds are midpoints between consecutive
distinct sorted feature values, routing is strictly ``x[feature] < threshold``
to the left child.  Ties on gain prefer the lower feature index, then the
lower threshold; to keep that deterministic regardless of summation order,
the winning candidate per feature is re-scored from row-order sums before
the cross-feature comparison.  Only a feature that can still win is
re-scored: one whose prefix-sum gain is at least ``top - 2E``, where top is
the best prefix-sum gain of the node and E bounds, from the rounding error
of each sum and of the gain formula (Higham, Accuracy and Stability of
Numerical Algorithms, section 4.2; derived at _best_split), how far a
candidate's prefix-sum gain and its re-score can differ.  Any other feature
re-scores strictly below the leader, so the chosen split is the same bits;
where E or top is not finite, every feature with a candidate is re-scored.
A child's G is the winner's re-scored sum, the sum of the child's own rows
in ascending order.  Growth stops when the best gain is <= 0, the depth
limit is reached, or a child would fall under min_samples_leaf.

Trees are grown from pre-sorted column blocks, as in XGBoost's exact greedy
method.  X never changes within a fit, so what X and a node's rows fix is
built once, as the node's layout: each feature's rows stable-sorted, a (d, m)
array, and the candidate splits, the positions where the sorted value
strictly rises and the midpoint exceeds the lower value.  A child's rows are
split off its parent's by a stable partition, so they stay sorted by value
and, among equal values, by row index: exactly the order a stable sort of
the child's own rows gives.  A round gathers g in each sorted order and runs
the sequential cumsum over every row, as a scan of every position would; it
then applies the split-gain formula, one operation at a time, at the
candidates alone.  An element-wise operation gives the same bits wherever
its operands sit, and no other position can win, so the chosen splits are
the same bits as scoring every position of a fresh sort at every node; a
threshold is formed only at each feature's winner.  A node keeps the layouts
of the split it last chose, keyed by (feature, threshold), and the next tree
reuses them where it makes the same split, so between rounds a fit holds at
most the previous tree's layouts, max_depth * n * d cells; none outlive
train_ensemble.  A child that must be a leaf needs only its G and n, so it
gets no layout.

The ensemble prediction is base_score + learning_rate * sum of tree outputs;
the shrinkage factor is uniform across rounds.  While training, each round
adds learning_rate * w of every leaf to the running predictions of the rows
the round's partition sent there, read from the layouts it built or reused,
so no row is walked through the new tree.

The fit writes each node into one flat node table as it makes it (see
_Table), the layout of QuickScorer (Lucchese et al., SIGIR 2015), numbered in
the fit's pre-order with each tree's root slot recorded; the model reader
numbers a document the same way.  Prediction walks that table.  A leaf's
children are the leaf itself, so after ``depth`` steps, the depth of the
deepest tree, every (row, tree) pair sits on its leaf whatever the depths of
the other trees.  All pairs of a block of rows step together.  A row's sum is
added left to right, base_score then learning_rate * leaf of each tree in
order, by ``np.cumsum`` along the tree axis: an accumulate adds one term at a
time, as the one-row loop ``total += lr * leaf`` does, so the two give the
same bits.  ``np.sum`` would not, as it adds pairwise.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

# Frozen feature layout for CPI models, the only list of the slots.  Index
# positions are part of the on-disk model contract; never reorder.  Each name
# is a trace.TraceRow field, and trace.feature_matrix reads the slots by name.
FEATURE_NAMES = (
    "pod_cpu_util",      # 0: pod CPU as a fraction of its request, clamped [0, 2]
    "pod_mem_util",      # 1: pod memory as a fraction of its request, clamped [0, 2]
    "node_cpu_total",    # 2
    "node_cpu_offline",  # 3
    "node_cpu_shared",   # 4
    "node_cpu_online",   # 5
    "l3_miss_rate",      # 6: pod L3 misses/s, unnormalized
    "sys_cpu_total",     # 7
    "sys_mem_total",     # 8
)
FEATURE_COUNT = len(FEATURE_NAMES)

MODEL_SCHEMA_VERSION = 1


class ModelSchemaError(ValueError):
    """Serialized model does not match the documented schema."""


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.1
    lam: float = 1.0              # L2 penalty on leaf weights
    tau: float = 0.0              # per-leaf cost
    max_depth: int = 4
    num_rounds: int = 100
    min_samples_leaf: int = 2
    base_score: float = 0.0


def leaf_weight(g_sum: float, count: float, lam: float) -> float:
    return -g_sum / (count + lam)


def split_gain(
    g_left: float,
    n_left: float,
    g_right: float,
    n_right: float,
    lam: float,
    tau: float,
) -> float:
    parent_g = g_left + g_right
    parent_n = n_left + n_right
    return 0.5 * (
        g_left * g_left / (n_left + lam)
        + g_right * g_right / (n_right + lam)
        - parent_g * parent_g / (parent_n + lam)
    ) - tau


# Per-round (feature, row) arrays hold at most this many cells, 64 KiB of
# float64.  Layouts are built and scored a block of features at a
# time: nodes of up to 910 rows take all nine features in one pass, a larger
# node a few, so those arrays stay in cache and under malloc's mmap threshold
# instead of faulting in fresh pages at every node.  Prediction walks at most
# this many (row, tree) cells at a time, for the same reasons.
_BLOCK_CELLS = 8192


class _Layout:
    """What X and one node's rows fix, whatever the gradients.

    ``order[f]`` is the node's rows stably sorted by feature f.  A candidate
    split is a position where the sorted value strictly rises and the
    midpoint exceeds the lower value, inside the min_samples_leaf margins;
    no other position can win.  Candidates run by feature, then by position:
    ``at`` is each one's last row on the left, flat in ``order``, and
    ``n_left`` its left count.  ``has`` lists the features with a candidate,
    ``runs`` where each one's candidates start and ``counts`` how many there
    are.  A block is (its features, their orders, its range of candidates).
    ``split`` is the (feature, threshold) this node last split on and its
    children's layouts, None for a child that must be a leaf.
    """

    __slots__ = ("XT", "rows", "order", "blocks", "at", "n_left", "has", "runs", "counts", "split")

    def __init__(self, XT: np.ndarray, rows: np.ndarray, order: np.ndarray, cfg: TrainConfig):
        self.XT, self.rows, self.order, self.split = XT, rows, order, None
        d, m = order.shape
        # positions lo to hi - 1 leave min_samples_leaf rows on both sides
        lo, hi = cfg.min_samples_leaf - 1, m - cfg.min_samples_leaf
        starts = XT.shape[1] * np.arange(d)[:, None]  # each feature's offset in XT.flat
        step = max(1, _BLOCK_CELLS // m)
        self.blocks, ats, total = [], [np.empty(0, np.intp)], 0
        for first in range(0, d, step):
            block = slice(first, first + step)
            v = XT.take(order[block] + starts[block])
            rises = np.zeros(v.shape, dtype=bool)
            np.greater(v[:, lo + 1 : hi + 1], v[:, lo:hi], out=rises[:, lo:hi])
            at = rises.ravel().nonzero()[0]
            below = v.take(at)
            midpoints = below + v.ravel()[1:].take(at)
            midpoints /= 2.0
            # a midpoint rounding down to the lower value cannot separate
            keep = midpoints > below
            if not keep.all():
                at = at.compress(keep)
            if at.size:
                self.blocks.append((block, order[block], total, total + at.size))
                ats.append(at + first * m if first else at)
                total += at.size
        at = np.concatenate(ats)
        bounds = np.searchsorted(at, m * np.arange(d + 1))  # each feature's first candidate
        counts = np.diff(bounds)
        self.has = np.flatnonzero(counts)
        self.runs, self.counts = bounds.take(self.has), counts.take(self.has)
        n_left = at - (m * self.has - 1.0).repeat(self.counts)
        if order.dtype != np.intp:  # a large fit keeps its positions and counts as narrow as its rows
            at, n_left = at.astype(order.dtype), n_left.astype(order.dtype)
        self.at, self.n_left = at, n_left


def _candidate_gains(g: np.ndarray, node: _Layout, cfg: TrainConfig) -> np.ndarray:
    """The prefix-sum gain of every candidate, -inf where it is not finite.

    Block by block, g is gathered in each feature's sorted order and summed
    sequentially over every row, as a dense scan would; the split-gain
    formula is then applied at the candidates alone, one operation at a time
    to the same operands, so each candidate's gain has the bits a gain at
    every position would give it.
    """
    d, m = node.order.shape
    g_tot, g_pre = np.empty(d), []
    for block, order, c0, c1 in node.blocks:
        g_cum = g.take(order)
        np.cumsum(g_cum, axis=1, out=g_cum)
        g_tot[block] = g_cum[:, -1]
        at = node.at[c0:c1]
        g_pre.append(g_cum.take(at - block.start * m if block.start else at))
    g_pre = np.concatenate(g_pre)
    g_tot = g_tot.take(node.has)
    with np.errstate(divide="ignore", invalid="ignore"):
        # G^2 is a product, as every other square here: pow() would tie the
        # trees to the host's libm, whose rounding of x**2 may differ from x*x
        parent = np.square(g_tot) / (m + cfg.lam)
        right_term = g_tot.repeat(node.counts)
        right_term -= g_pre
        np.square(right_term, out=right_term)
        n_left = node.n_left.astype(np.float64, copy=False)
        right_term /= (m - n_left) + cfg.lam
        gains = np.square(g_pre, out=g_pre)
        gains /= n_left + cfg.lam
        gains += right_term
        gains -= parent.repeat(node.counts)
        gains *= 0.5
        gains -= cfg.tau
    gains[~np.isfinite(gains)] = -np.inf
    return gains


def _feature_winners(
    g: np.ndarray, node: _Layout, cfg: TrainConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Per feature: the best prefix-sum gain of its candidates, -inf where
    it has none with a finite gain, and the threshold of its first one.

    Positions that are not candidates could never win, so the first maximum
    among a feature's candidates is its lowest winning threshold, as it is
    among all positions.
    """
    d = node.order.shape[0]
    prefix, cut = np.full(d, -np.inf), np.zeros(d)
    if not node.has.size:
        return prefix, cut
    gains = _candidate_gains(g, node, cfg)
    best = np.maximum.reduceat(gains, node.runs)
    prefix[node.has] = best
    hits = (gains == best.repeat(node.counts)).nonzero()[0]
    won = best > -np.inf
    features = node.has[won]
    at = node.at.take(hits.take(hits.searchsorted(node.runs[won])))  # each run's first maximum
    # the midpoint of each winner's sorted values, formed as when it was a candidate
    below = node.XT[features, node.order.take(at)]
    cut[features] = (below + node.XT[features, node.order.take(at + 1)]) / 2.0
    return prefix, cut


_U = 2.0**-53  # unit roundoff of float64


def _rescore_bound(g_node: np.ndarray, cfg: TrainConfig) -> float:
    """E: at any candidate of a node with gradients ``g_node``, the prefix
    gain and the re-scored gain differ by at most E; inf where that is not
    shown (see _best_split)."""
    m = g_node.size
    d_min = cfg.min_samples_leaf + cfg.lam  # no gain divides by less
    if not d_min > 0.0:
        return math.inf  # a denominator may vanish
    s = float(np.add.reduce(np.abs(g_node)))
    gamma_3, gamma_sum = 3 * _U / (1 - 3 * _U), (2 * m + 1) * _U / (1 - (2 * m + 1) * _U)
    sigma = gamma_sum * s  # every computed GL, GR or G lies this near its exact sum
    a = s + sigma          # and so under this in magnitude
    t_max = (1 + gamma_3) * a * a / d_min  # no computed term of the formula exceeds this
    if not math.isfinite(4.0 * max(a * a, t_max) + abs(cfg.tau)):
        return math.inf  # a term may overflow
    e_term = (sigma * (2 * s + sigma) + gamma_3 * a * a) / d_min
    e_path = 1.5 * e_term + 5 * _U * t_max + _U * abs(cfg.tau) + (3 / d_min + 4) * 2.0**-1074
    return 2.0 * (2.0 * e_path)  # two paths, then a safety factor of 2


def _rescore(
    g_node: np.ndarray, x: np.ndarray, threshold: float, cfg: TrainConfig
) -> tuple[float, tuple[float, int], tuple[float, int]]:
    """Gain of splitting at ``x < threshold`` from row-order sums, and
    each side's (G, n); ``x`` and ``g_node`` are the node's rows ascending."""
    left = x < threshold
    n_left, m = int(np.count_nonzero(left)), x.size
    add = np.add.reduce  # ndarray.sum's pairwise sum, without its Python wrapper
    g_left = float(add(g_node.compress(left)))
    g_right = float(add(g_node.compress(~left)))
    gain = split_gain(g_left, n_left, g_right, m - n_left, cfg.lam, cfg.tau)
    return gain, (g_left, n_left), (g_right, m - n_left)


def _best_split(
    g: np.ndarray, node: _Layout, cfg: TrainConfig
) -> tuple[float, int, float, tuple[tuple[float, int], tuple[float, int]]] | None:
    """Best split of one node over every feature, or None.

    Returns (gain, feature, threshold, ((G, n) left, (G, n) right)).  A
    feature's winner is re-scored from row-order sums, ``node.rows`` being
    ascending, so gains are comparable across features bit for bit; a
    child's G is therefore the sum of its own rows in ascending order.

    Only the contenders are re-scored: the features whose prefix gain is at
    least ``top - 2E``, ``top`` being the best prefix gain and E the bound
    of _rescore_bound.  A feature below that re-scores to at most its prefix
    gain + E < top - E, and top's feature re-scores to at least top - E, so
    it can neither win nor tie, and the chosen split keeps every bit.

    E, after Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
    sections 2.2 and 4.2, with u = 2**-53 and gamma_k = k u / (1 - k u).
    Let S be the sum of |g| over the node's m rows.  A sum of k terms formed
    in any order, sequential or pairwise, lies within gamma_(k-1) times the
    sum of their magnitudes of the exact sum.  So the prefix GL and total G
    of a cumsum and the row-order GL and GR each lie within gamma_m S of
    theirs, G = GL + GR of those within gamma_(m+1) S, and GR = G - GL of
    the cumsum within 2 gamma_m S + u (1 + 2 gamma_m) S <= gamma_(2m+1) S
    =: sigma.  Every computed sum is then at most a = S + sigma in
    magnitude.  Each term a^2 / D takes three roundings (the square, D = n +
    lam and the division), D >= min_samples_leaf + lam =: D_min, so it lies
    within e_term = (sigma (2 S + sigma) + gamma_3 a^2) / D_min of its exact
    value and is at most t_max = (1 + gamma_3) a^2 / D_min.  The two
    additions, the halving and the tau subtraction add at
    most 5 u t_max + u |tau|, so each path's gain lies within e_path = 1.5
    e_term + 5 u t_max + u |tau| of the exact gain, plus (3 / D_min + 4)
    2**-1074 for the squares, divisions and halving that may underflow.  The
    two paths therefore differ by at most 2 e_path; E doubles that, which
    covers S being summed in floating point, the rounding of E's own
    operations and of ``top - 2E``.

    Where ``top - 2E`` is not finite (E is not shown, because a term may
    overflow or D_min is not positive, or no feature has a candidate), or a
    threshold is infinite (the midpoint of two values past half the float
    range, which moves rows across the split), every feature with a
    candidate is re-scored.
    """
    prefix, cut = _feature_winners(g, node, cfg)
    rows, XT = node.rows, node.XT
    g_node = g.take(rows)
    floor = float(prefix.max()) - 2.0 * _rescore_bound(g_node, cfg)
    if math.isfinite(floor) and np.isfinite(cut).all():
        contenders = np.flatnonzero(prefix >= floor)
    else:
        contenders = np.flatnonzero(prefix > -np.inf)
    best = None
    for f in contenders.tolist():
        gain, left, right = _rescore(g_node, XT[f].take(rows), float(cut[f]), cfg)
        if best is None or gain > best[0]:  # ties keep the lower feature index
            best = (gain, f, float(cut[f]), (left, right))
    return best


def _may_split(count: int, depth: int, cfg: TrainConfig) -> bool:
    return depth < cfg.max_depth and count >= 2 * cfg.min_samples_leaf


class _Table:
    """The node table while the fit or the model reader appends to it.

    Slot i is a split on ``feature[i]`` at ``threshold[i]``, or a leaf of
    weight ``value[i]`` (a split's value is 0.0, a leaf's feature 0 and
    threshold 0.0).  Its right child is ``children[2i]`` and its left
    ``children[2i + 1]``; a leaf's children are the leaf itself.  Slots run
    in pre-order, a node, then its left subtree, then its right, so a
    split's left child is the next slot.  ``roots`` holds each tree's root
    slot and ``depth`` the edges on the longest root-to-leaf path.  The
    columns are lists until Ensemble turns them into arrays.
    """

    __slots__ = ("feature", "threshold", "children", "value", "roots", "depth")

    def __init__(self) -> None:
        self.feature: list[int] = []
        self.threshold: list[float] = []
        self.children: list[int] = []
        self.value: list[float] = []
        self.roots: list[int] = []
        self.depth = 0

    def leaf(self, weight: float, depth: int) -> None:
        slot = len(self.value)
        self.feature.append(0)
        self.threshold.append(0.0)
        self.children += (slot, slot)
        self.value.append(weight)
        self.depth = max(self.depth, depth)

    def split(self, feature: int, threshold: float) -> int:
        """Append a split and return its slot; its right child is set by
        ``right`` once its left subtree is written."""
        slot = len(self.value)
        self.feature.append(feature)
        self.threshold.append(threshold)
        self.children += (slot, slot + 1)
        self.value.append(0.0)
        return slot

    def right(self, slot: int) -> None:
        """The next node appended is split ``slot``'s right child."""
        self.children[2 * slot] = len(self.value)


def _grow(
    g: np.ndarray,
    node: _Layout | None,
    g_sum: float,
    count: int,
    depth: int,
    cfg: TrainConfig,
    table: _Table,
) -> None:
    """Append the subtree over a node of ``count`` rows whose G is ``g_sum``
    to ``table``; ``node`` is its layout, None for a node that must be a leaf.

    The node keeps only this round's split and its children's layouts, so
    between rounds the layouts held are those of the tree just grown.
    """
    best = None if node is None else _best_split(g, node, cfg)
    if best is None or best[0] <= 0.0:
        if node is not None:
            node.split = None
        table.leaf(leaf_weight(g_sum, count, cfg.lam), depth)
        return

    _, feature, threshold, sides = best
    key = (feature, threshold)
    if node.split is None or node.split[0] != key:
        node.split = None  # the old children go before the new are built
        XT, rows, order = node.XT, node.rows, node.order
        go_left = XT[feature] < threshold
        by_row, by_rank = go_left[rows], go_left.take(order).ravel()
        # selection keeps each feature's sorted order: a stable partition
        d = order.shape[0]
        node.split = key, [
            _Layout(XT, rows.compress(in_row), order.compress(in_rank).reshape(d, -1), cfg)
            if _may_split(n, depth + 1, cfg)
            else None  # a leaf needs only its sums, not its rows
            for in_row, in_rank, (_, n) in zip((by_row, ~by_row), (by_rank, ~by_rank), sides)
        ]
    slot = table.split(feature, threshold)
    (left, right), (left_sums, right_sums) = node.split[1], sides
    _grow(g, left, *left_sums, depth + 1, cfg, table)
    table.right(slot)
    _grow(g, right, *right_sums, depth + 1, cfg, table)


def fit_tree(
    X: np.ndarray,
    g: np.ndarray,
    cfg: TrainConfig,
    *,
    root: _Layout | None = None,
    table: _Table | None = None,
) -> Ensemble | None:
    """Fit one least-squares regression tree to the gradients g.

    The tree is appended to ``table``, train_ensemble's table of the trees
    so far, and None is returned.  Without a table, the tree is returned as
    a one-tree Ensemble with base_score 0.0 and learning_rate 1.0, whose
    predictions are the tree's leaf weights.  ``root`` is train_ensemble's
    layout of all of X's rows, which carries the layouts the previous tree
    split into; without it, fit_tree lays out X afresh.
    """
    X = np.asarray(X, dtype=np.float64)
    g = np.asarray(g, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValueError("X must be a non-empty 2-D array")
    if g.shape != (X.shape[0],):
        raise ValueError("g must be 1-D and match the number of rows")
    if not (np.isfinite(X).all() and np.isfinite(g).all()):
        raise ValueError("non-finite training input")
    n = X.shape[0]
    if not _may_split(n, 0, cfg):
        root = None
    elif root is None:
        root = _root_layout(X, cfg)
    own = table is None
    if own:
        table = _Table()
    table.roots.append(len(table.value))
    _grow(g, root, float(np.add.reduce(g)), n, 0, cfg, table)
    return Ensemble(0.0, 1.0, X.shape[1], table) if own else None


def _root_layout(X: np.ndarray, cfg: TrainConfig) -> _Layout:
    XT = np.ascontiguousarray(X.T)  # one row per feature, read by every node
    order = np.argsort(XT, axis=1, kind="stable")
    # 32-bit row indices halve the memory of a large fit's layouts; a fit of
    # one block is small, and native indices spare each gather a conversion
    order = order.astype(np.int32 if _BLOCK_CELLS < X.size < 2**31 else np.intp, copy=False)
    return _Layout(XT, np.arange(X.shape[0]), order, cfg)


class Ensemble:
    """Boosted trees, held in one node table (see _Table) as arrays, and
    never modified once built.

    ``train_predictions`` are the predictions for the training rows, as
    train_ensemble left them; None for an ensemble it did not build.
    """

    def __init__(
        self,
        base_score: float,
        learning_rate: float,
        feature_count: int,
        table: _Table,
        train_predictions: np.ndarray | None = None,
    ) -> None:
        self.base_score = base_score
        self.learning_rate = learning_rate
        self.feature_count = feature_count
        self.feature = np.array(table.feature, dtype=np.intp)
        self.threshold = np.array(table.threshold, dtype=np.float64)
        self.children = np.array(table.children, dtype=np.intp)
        self.value = np.array(table.value, dtype=np.float64)
        self.roots = np.array(table.roots, dtype=np.intp)
        self.depth = table.depth
        self.train_predictions = train_predictions
        # rows walked together; cell r * trees + t of a block is (row r, tree t)
        n_trees = self.roots.size
        self._block_rows = max(1, _BLOCK_CELLS // max(1, n_trees))
        self._starts = np.tile(self.roots, self._block_rows)  # each cell's root slot
        # where each cell's row starts in the block's flat features
        self._row_start = np.repeat(
            np.arange(0, self._block_rows * feature_count, feature_count), n_trees
        )

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predictions for the rows of X, walked in blocks of at most
        _BLOCK_CELLS (row, tree) cells, which bounds the walk's memory."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.feature_count:
            raise ValueError(f"expected (n, {self.feature_count}) features, got {X.shape}")
        preds = np.empty(X.shape[0], dtype=np.float64)
        step = self._block_rows
        for first in range(0, X.shape[0], step):
            preds[first : first + step] = self._walk(X[first : first + step])
        return preds

    def _walk(self, X: np.ndarray) -> np.ndarray:
        m, n_trees = X.shape[0], self.roots.size
        flat = X.ravel()
        slot = self._starts[: m * n_trees]
        row_start = self._row_start[: m * n_trees]
        for _ in range(self.depth):
            go_left = flat.take(row_start + self.feature.take(slot)) < self.threshold.take(slot)
            slot = self.children.take(2 * slot + go_left)
        terms = np.empty((m, n_trees + 1), dtype=np.float64)
        terms[:, 0] = self.base_score
        np.multiply(self.learning_rate, self.value.take(slot).reshape(m, n_trees), out=terms[:, 1:])
        return terms.cumsum(axis=1)[:, -1]  # adds left to right, as the one-row loop did

    # Kept only because perfbench/tracer.py patches this name; it goes when
    # the benchmark drops its span.
    def predict_row(self, x: np.ndarray) -> float:
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.feature_count,):
            raise ValueError(f"expected {self.feature_count} features, got {x.shape}")
        return float(self.predict(x[None, :])[0])


# Kept only because perfbench/tracer.py patches this name; it goes when the
# benchmark drops its span.
tree_predict = Ensemble.predict


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

    table = _Table()
    preds = np.full(X.shape[0], cfg.base_score, dtype=np.float64)
    step = np.empty_like(preds)
    root = _root_layout(X, cfg)  # X is fixed, so sort and lay out its rows once per fit
    for _ in range(cfg.num_rounds):
        g = preds - y
        fit_tree(X, g, cfg, root=root, table=table)
        _leaf_values(table, root, step)
        step *= cfg.learning_rate
        preds += step
    return Ensemble(cfg.base_score, cfg.learning_rate, X.shape[1], table, train_predictions=preds)


def _leaf_values(table: _Table, root: _Layout, out: np.ndarray) -> None:
    """Set ``out[i]`` to the weight of the leaf that row i of the fit
    reaches in the table's last tree.

    Each leaf's rows come from the layouts the round just built or reused:
    a layout that split no further is a leaf over its own rows, and a child
    with no layout gets its parent's rows on its side of the split.  The
    rows are the ones prediction would route there, so the running
    predictions take the same one addition per row and round.
    """
    children, value = table.children, table.value
    stack = [(table.roots[-1], root)]
    while stack:
        slot, layout = stack.pop()
        right, left = children[2 * slot], children[2 * slot + 1]
        if right == slot:  # a leaf
            out[layout.rows] = value[slot]
            continue
        (feature, threshold), kids = layout.split
        if kids[0] is None or kids[1] is None:
            # both sides at once; a side with a layout is overwritten below
            go_left = layout.XT[feature].take(layout.rows) < threshold
            out[layout.rows] = np.where(go_left, value[left], value[right])
        stack += ((child, kid) for child, kid in zip((left, right), kids) if kid)


def regression_metrics(y_true: np.ndarray, y_pred: np.ndarray) -> dict[str, float]:
    """MSE, MAE, R2, and ACC = max(0, 1 - mean absolute percentage error)."""
    y_true = np.asarray(y_true, dtype=np.float64)
    y_pred = np.asarray(y_pred, dtype=np.float64)
    if y_true.size == 0 or y_true.shape != y_pred.shape:
        raise ValueError("metrics need matching non-empty arrays")
    err = y_pred - y_true
    mse = float(np.mean(err**2))
    mae = float(np.mean(np.abs(err)))
    ss_res = float(np.sum(err**2))
    ss_tot = float(np.sum((y_true - np.mean(y_true)) ** 2))
    if ss_tot == 0.0:
        r2 = 1.0 if ss_res == 0.0 else 0.0
    else:
        r2 = 1.0 - ss_res / ss_tot
    if np.any(y_true <= 0):
        raise ValueError("ACC requires strictly positive targets")
    mape = float(np.mean(np.abs(err) / y_true))
    return {"mse": mse, "mae": mae, "r2": r2, "acc": max(0.0, 1.0 - mape)}


def _model_number(obj: dict, key: str, path: str) -> float:
    """obj[key] as a float: a finite int or float, never a bool."""
    value = obj[key]
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:  # an int past the float range
            number = math.inf
        if math.isfinite(number):
            return number
    raise ModelSchemaError(f"{path}: must be a finite number")


def _model_integer(obj: dict, key: str, path: str) -> int:
    """obj[key] as an int: an int or integral float, never a bool."""
    value = obj[key]
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ModelSchemaError(f"{path}: must be an integer")


def _read_tree(obj: dict, feature_count: int, path: str, table: _Table) -> None:
    """Append one tree to ``table``, read without recursion, so a tree of
    any depth loads.

    Nodes are read and checked in pre-order, left subtree first, which is
    the fit's own numbering; each fault names its node's path.
    """
    table.roots.append(len(table.value))
    stack = [(obj, path, 0, None)]
    while stack:
        obj, path, depth, parent = stack.pop()
        if parent is not None:
            table.right(parent)
        if not isinstance(obj, dict):
            raise ModelSchemaError(f"{path}: must be an object, got {type(obj).__name__}")
        if "weight" in obj:
            table.leaf(_model_number(obj, "weight", f"{path}.weight"), depth)
            continue
        for key in ("feature", "threshold", "left", "right"):
            if key not in obj:
                raise ModelSchemaError(f"{path}: missing field {key!r}")
        feature = _model_integer(obj, "feature", f"{path}.feature")
        if not 0 <= feature < feature_count:
            raise ModelSchemaError(
                f"{path}.feature: index {feature} outside [0, {feature_count})"
            )
        slot = table.split(feature, _model_number(obj, "threshold", f"{path}.threshold"))
        stack.append((obj["right"], f"{path}.right", depth + 1, slot))
        stack.append((obj["left"], f"{path}.left", depth + 1, None))


def ensemble_to_dict(ensemble: Ensemble) -> dict:
    """The schema-v1 document: each tree a nested object, built from the
    table's last slot back, so every child exists before its parent."""
    feature, threshold = ensemble.feature.tolist(), ensemble.threshold.tolist()
    children, value = ensemble.children.tolist(), ensemble.value.tolist()
    nodes: list = [None] * len(value)
    for slot in reversed(range(len(value))):
        right, left = children[2 * slot], children[2 * slot + 1]
        nodes[slot] = (
            {"weight": value[slot]}
            if right == slot
            else {
                "feature": feature[slot],
                "threshold": threshold[slot],
                "left": nodes[left],
                "right": nodes[right],
            }
        )
    return {
        "version": MODEL_SCHEMA_VERSION,
        "base_score": ensemble.base_score,
        "learning_rate": ensemble.learning_rate,
        "feature_count": ensemble.feature_count,
        "trees": [nodes[root] for root in ensemble.roots.tolist()],
    }


def ensemble_from_dict(obj: dict) -> Ensemble:
    if not isinstance(obj, dict):
        raise ModelSchemaError("model document must be an object")
    version = obj.get("version")
    if type(version) is not int or version != MODEL_SCHEMA_VERSION:  # not True, not 1.0
        raise ModelSchemaError(f"unsupported model version {version!r}")
    for key in ("base_score", "learning_rate", "feature_count", "trees"):
        if key not in obj:
            raise ModelSchemaError(f"model missing field {key!r}")
    feature_count = _model_integer(obj, "feature_count", "feature_count")
    if feature_count < 1:
        raise ModelSchemaError("feature_count: must be >= 1")
    if not isinstance(obj["trees"], list):
        raise ModelSchemaError("trees: must be a list")
    base_score = _model_number(obj, "base_score", "base_score")
    learning_rate = _model_number(obj, "learning_rate", "learning_rate")
    table = _Table()
    for i, tree in enumerate(obj["trees"]):
        _read_tree(tree, feature_count, f"trees[{i}]", table)
    return Ensemble(base_score, learning_rate, feature_count, table)


def ensemble_to_json(ensemble: Ensemble) -> str:
    return json.dumps(ensemble_to_dict(ensemble), sort_keys=True)


def ensemble_from_json(text: str) -> Ensemble:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelSchemaError(f"model is not valid JSON: {exc}") from exc
    except RecursionError as exc:  # the JSON reader recurses once per level
        raise ModelSchemaError("model nests too deeply to read") from exc
    return ensemble_from_dict(obj)
