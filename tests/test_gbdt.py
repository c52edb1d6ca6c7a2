import gc
import hashlib
import types

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ckoord import gbdt
from ckoord.gbdt import (
    _BLOCK_CELLS,
    FEATURE_COUNT,
    Ensemble,
    ModelSchemaError,
    TrainConfig,
    TreeNode,
    ensemble_from_json,
    ensemble_to_json,
    fit_tree,
    leaf_weight,
    regression_metrics,
    split_gain,
    train_ensemble,
    tree_predict,
)
from ckoord.simulator import run_scenario
from ckoord.trace import feature_matrix
import fit_reference
import predict_reference
from helpers import cfg_with
from gbdt_reference import (
    ref_ensemble_predict,
    ref_fit_tree,
    ref_predict_row,
    ref_train,
    same_structure,
    squared_error_objective,
)


def test_leaf_weight_hand_values():
    assert leaf_weight(-4.0, 2.0, 1.0) == pytest.approx(4.0 / 3.0, abs=1e-15)
    assert leaf_weight(0.0, 7.0, 0.5) == 0.0
    assert leaf_weight(2.0, 0.0, 1.0) == pytest.approx(-2.0, abs=1e-15)


def test_split_gain_hand_values():
    assert split_gain(-1.0, 1.0, -1.0, 1.0, 0.0, 0.0) == pytest.approx(0.0, abs=1e-15)
    assert split_gain(-2.0, 1.0, 2.0, 1.0, 0.0, 0.0) == pytest.approx(4.0, abs=1e-15)
    assert split_gain(-2.0, 1.0, 2.0, 1.0, 0.0, 5.0) == pytest.approx(-1.0, abs=1e-15)


def test_fit_tree_constant_gradients_single_leaf():
    X = np.array([[0.0], [1.0], [2.0], [3.0]])
    g = np.full(4, -2.0)
    tree = fit_tree(X, g, TrainConfig(lam=1.0, min_samples_leaf=1))
    assert tree.is_leaf
    assert tree.weight == pytest.approx(8.0 / 5.0, abs=1e-12)


def test_fit_tree_two_point_split():
    # residual targets 0 and 10 as gradients of squared loss from pred 0
    X = np.array([[0.0], [1.0]])
    g = np.array([0.0, -10.0])
    cfg = TrainConfig(lam=0.0, tau=0.0, max_depth=1, min_samples_leaf=1)
    tree = fit_tree(X, g, cfg)
    assert not tree.is_leaf
    assert tree.feature == 0 and tree.threshold == 0.5
    assert tree.left.weight == pytest.approx(0.0, abs=1e-15)
    assert tree.right.weight == pytest.approx(10.0, abs=1e-15)


def test_fit_tree_huge_tau_single_leaf():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(20, 2))
    g = rng.normal(size=20)
    tree = fit_tree(X, g, TrainConfig(tau=1e9, min_samples_leaf=1))
    assert tree.is_leaf


def test_fit_tree_input_validation():
    with pytest.raises(ValueError):
        fit_tree(np.empty((0, 2)), np.empty(0), TrainConfig())
    with pytest.raises(ValueError):
        fit_tree(np.ones((3, 2)), np.ones(2), TrainConfig())
    bad = np.ones((3, 2))
    bad[0, 0] = np.nan
    with pytest.raises(ValueError):
        fit_tree(bad, np.ones(3), TrainConfig())


def test_train_constant_targets_one_round_recovers_constant():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(8, 3))
    y = np.full(8, 2.7)
    cfg = TrainConfig(learning_rate=1.0, lam=0.0, num_rounds=1, base_score=0.0)
    model = train_ensemble(X, y, cfg)
    assert np.allclose(model.predict(X), 2.7, atol=1e-9)
    assert model.predict_row(rng.normal(size=3)) == pytest.approx(2.7, abs=1e-9)


def test_train_learning_rate_zero_stays_at_base():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(10, 2))
    y = rng.normal(size=10) + 5
    model = train_ensemble(X, y, TrainConfig(learning_rate=0.0, base_score=1.5, num_rounds=5))
    assert np.all(model.predict(X) == 1.5)


def test_train_rejects_non_finite():
    X = np.ones((4, 2))
    y = np.array([1.0, 2.0, np.inf, 3.0])
    with pytest.raises(ValueError):
        train_ensemble(X, y, TrainConfig())


def test_empty_ensemble_predicts_base_score():
    model = Ensemble(base_score=0.8, feature_count=2)
    assert np.all(model.predict(np.zeros((3, 2))) == 0.8)


def test_single_leaf_tree_prediction():
    model = Ensemble(base_score=1.0, learning_rate=0.2, feature_count=9)
    model.trees.append(TreeNode(weight=0.5))
    assert model.predict_row(np.zeros(9)) == pytest.approx(1.1, abs=1e-15)


def test_predict_rejects_wrong_feature_count():
    model = Ensemble(feature_count=9)
    with pytest.raises(ValueError):
        model.predict(np.zeros((2, 4)))
    with pytest.raises(ValueError):
        model.predict_row(np.zeros(4))


def test_predict_pure_function():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(30, 4))
    y = rng.normal(size=30)
    model = train_ensemble(X, y, TrainConfig(num_rounds=10))
    a = model.predict(X)
    b = model.predict(X)
    assert np.array_equal(a, b)


def test_training_loss_non_increasing_across_rounds():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(40, 3))
    y = 2.0 + X[:, 0] - 0.5 * X[:, 1] + 0.1 * rng.normal(size=40)
    for lr in (0.1, 0.5, 1.0):
        cfg = TrainConfig(learning_rate=lr, num_rounds=25, lam=1.0)
        model = train_ensemble(X, y, cfg)
        partial = Ensemble(base_score=cfg.base_score, learning_rate=lr, feature_count=3)
        last = float(np.sum((partial.predict(X) - y) ** 2))
        for tree in model.trees:
            partial.trees.append(tree)
            current = float(np.sum((partial.predict(X) - y) ** 2))
            assert current <= last + 1e-9
            last = current


# thresholds of hand-built trees, and probe values that fall on them
PROBE_LEVELS = (-1.0, -0.5, 0.0, 0.5, 1.0)
PROBE_SPECIALS = (np.inf, -np.inf, np.nan)


def hand_built_tree(rng, feature_count, depth, p_split):
    """A tree whose leftmost path splits ``depth`` times; every other node
    below the depth limit splits with probability p_split."""
    root = TreeNode()
    stack = [(root, 0, True)]
    while stack:
        node, level, spine = stack.pop()
        if level < depth and (spine or rng.random() < p_split):
            node.feature = int(rng.integers(feature_count))
            node.threshold = float(rng.choice(PROBE_LEVELS))
            node.left, node.right = TreeNode(), TreeNode()
            stack.append((node.left, level + 1, spine))
            stack.append((node.right, level + 1, False))
        else:
            node.weight = float(rng.normal(scale=0.3))
    return root


@st.composite
def prediction_cases(draw):
    """An ensemble, a pool of probe rows and the pool indices of the rows to
    predict together: 1 row, or one block of rows, one fewer or one more.

    Half the ensembles are trained; the others are built by hand, from no
    tree to 40, with mixed depths up to 12.  Probes mix values on the hand
    thresholds, normal draws, infinities and NaN.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.integers(1, FEATURE_COUNT))
    if draw(st.booleans()):
        n = draw(st.integers(4, 120))
        X = rng.normal(size=(n, d))
        cfg = TrainConfig(
            learning_rate=draw(st.sampled_from([0.1, 0.3, 1.0])),
            num_rounds=draw(st.integers(1, 30)),
            max_depth=draw(st.integers(1, 4)),
            min_samples_leaf=draw(st.integers(1, 3)),
            base_score=draw(st.sampled_from([0.0, 0.7, -1.3])),
        )
        model = train_ensemble(X, 1.0 + X[:, 0] + rng.normal(size=n), cfg)
    else:
        depths = draw(st.lists(st.integers(0, 12), max_size=40))
        p_split = draw(st.sampled_from([0.0, 0.3, 0.45]))
        model = Ensemble(
            base_score=draw(st.sampled_from([0.0, -0.0, 0.7, 1e-3])),
            learning_rate=draw(st.sampled_from([0.0, 0.1, 0.37, 1.0])),
            feature_count=d,
            trees=[hand_built_tree(rng, d, depth, p_split) for depth in depths],
        )
    values = np.concatenate([PROBE_LEVELS, PROBE_SPECIALS, rng.normal(size=8)])
    pool = rng.choice(values, size=(48, d))
    block = max(1, _BLOCK_CELLS // max(1, len(model.trees)))
    count = draw(st.sampled_from([1, block - 1, block, block + 1]))
    return model, pool, rng.integers(pool.shape[0], size=count)


@settings(max_examples=40, deadline=None, database=None)
@given(prediction_cases())
def test_packed_prediction_is_bit_identical_to_the_one_row_loop(case):
    model, pool, rows = case
    want = np.array([predict_reference.predict_row(model, x) for x in pool])
    assert model.predict(pool[rows]).tobytes() == want[rows].tobytes()
    for x, expected in zip(pool[:8], want):
        assert np.float64(model.predict_row(x)).tobytes() == expected.tobytes()


def test_prediction_repacks_when_the_trees_change():
    rng = np.random.default_rng(8)
    X = rng.normal(size=(60, 3))
    model = train_ensemble(X, X[:, 0] + 0.1 * rng.normal(size=60), TrainConfig(num_rounds=6))
    grown = Ensemble(base_score=0.2, learning_rate=0.1, feature_count=3)

    def check():
        want = [predict_reference.predict_row(grown, x) for x in X]
        assert grown.predict(X).tolist() == want

    check()
    for tree in model.trees:  # appended between predictions
        grown.trees.append(tree)
        check()
    grown.trees[2] = model.trees[0]
    check()
    grown.trees.pop()
    check()
    grown.trees = list(reversed(model.trees))
    check()


def test_nan_goes_right_and_infinities_follow_the_comparison():
    tree = TreeNode(feature=0, threshold=0.5, left=TreeNode(weight=1.0), right=TreeNode(weight=2.0))
    model = Ensemble(base_score=0.0, learning_rate=1.0, feature_count=1, trees=[tree])
    probe = np.array([[np.nan], [-np.inf], [np.inf], [0.5], [0.25]])
    assert model.predict(probe).tolist() == [2.0, 1.0, 2.0, 2.0, 1.0]


def test_predict_rejects_a_tree_that_splits_outside_the_features():
    tree = TreeNode(feature=3, threshold=0.0, left=TreeNode(), right=TreeNode())
    with pytest.raises(ValueError, match="outside"):
        Ensemble(feature_count=3, trees=[tree]).predict(np.zeros((2, 3)))


def test_regularized_objective_non_increasing_at_full_step():
    # with shrinkage the cumulative leaf penalty can outweigh the eta-scaled
    # loss reduction, so the regularized form is only monotone at eta = 1
    rng = np.random.default_rng(4)
    X = rng.normal(size=(40, 3))
    y = 2.0 + X[:, 0] - 0.5 * X[:, 1] + 0.1 * rng.normal(size=40)
    for lam in (0.0, 1.0):
        cfg = TrainConfig(learning_rate=1.0, num_rounds=25, lam=lam, tau=0.0)
        model = train_ensemble(X, y, cfg)
        partial = Ensemble(base_score=cfg.base_score, learning_rate=1.0, feature_count=3)
        last = squared_error_objective(partial, X, y, cfg)
        for tree in model.trees:
            partial.trees.append(tree)
            current = squared_error_objective(partial, X, y, cfg)
            assert current <= last + 1e-9
            last = current


def test_two_sample_loss_drops_and_matches_reference():
    X = [[0.0], [1.0]]
    y = [1.0, 3.0]
    trees = ref_train(X, y, rounds=50, learning_rate=0.3, max_depth=4,
                      lam=1.0, tau=0.0, min_samples_leaf=1, base_score=0.0)

    def ref_mse(upto):
        total = 0.0
        for xi, yi in zip(X, y):
            pred = ref_ensemble_predict(trees[:upto], xi, 0.3, 0.0)
            total += (pred - yi) ** 2
        return total / len(y)

    assert ref_mse(50) < ref_mse(1)
    cfg = TrainConfig(learning_rate=0.3, lam=1.0, num_rounds=50, min_samples_leaf=1)
    model = train_ensemble(np.array(X), np.array(y), cfg)
    for xi in X:
        assert model.predict_row(np.array(xi)) == pytest.approx(
            ref_ensemble_predict(trees, xi, 0.3, 0.0), abs=1e-9
        )


def test_fit_tree_matches_reference_oracle_sample():
    rng = np.random.default_rng(5)
    for trial in range(40):
        n = int(rng.integers(2, 65))
        d = int(rng.integers(1, 3))
        X = rng.normal(size=(n, d))
        if trial % 3 == 0:
            X = np.round(X)  # duplicate feature values
        g = rng.normal(size=n)
        cfg = TrainConfig(
            lam=float(rng.choice([0.0, 0.5, 1.0])),
            tau=float(rng.choice([0.0, 0.1])),
            max_depth=int(rng.integers(1, 3)),
            min_samples_leaf=int(rng.integers(1, 4)),
        )
        tree = fit_tree(X, g, cfg)
        ref = ref_fit_tree(
            X.tolist(), g.tolist(), [1.0] * n,
            cfg.max_depth, cfg.lam, cfg.tau, cfg.min_samples_leaf,
        )
        assert same_structure(ref, tree), f"trial {trial}: tree diverges from oracle"
        probe = rng.normal(size=(16, d))
        got = tree_predict(tree, probe)
        want = [ref_predict_row(ref, row.tolist()) for row in probe]
        assert np.allclose(got, want, atol=1e-9)


# Few distinct values per column, so most columns are full of ties.
LEVELS = (-1.5, -0.25, 0.0, 0.5, 2.0, 3.75)


@st.composite
def tie_heavy_nodes(draw):
    """A fit_tree input whose gradient sums are exact in float64.

    g are multiples of 1/4, so prefix sums and row-order sums agree bit for
    bit and ties on gain are real ties for both the trainer and the oracle.
    """
    m = draw(st.integers(2, 24))
    d = draw(st.integers(1, FEATURE_COUNT))
    columns = []
    for _ in range(d):
        if draw(st.integers(0, 3)) == 0:
            columns.append([draw(st.sampled_from(LEVELS))] * m)  # constant column
        else:
            columns.append(draw(st.lists(st.sampled_from(LEVELS), min_size=m, max_size=m)))
    # coarse gradients make tied gains common, within a feature and across
    g = draw(st.lists(st.integers(-8, 8).map(lambda k: k / 4.0), min_size=m, max_size=m))
    cfg = TrainConfig(
        lam=draw(st.sampled_from([0.0, 0.5, 1.0])),
        tau=draw(st.sampled_from([0.0, 0.25])),
        max_depth=draw(st.integers(1, 4)),
        min_samples_leaf=draw(
            st.one_of(st.integers(1, 2), st.integers(max(1, m // 2 - 2), m // 2 + 1))
        ),
    )
    return np.array(columns).T, np.array(g), cfg


# mirror-image gradients: thresholds 0.5 and 2.5 tie exactly, the lower wins
SYMMETRIC_TIE = (
    np.array([[0.0], [1.0], [2.0], [3.0]]),
    np.array([1.0, -1.0, -1.0, 1.0]),
    TrainConfig(lam=1.0, max_depth=1, min_samples_leaf=1),
)


@settings(max_examples=60, deadline=None, database=None)
@given(tie_heavy_nodes())
@example(SYMMETRIC_TIE)
def test_fit_tree_matches_reference_oracle_property(case):
    X, g, cfg = case
    tree = fit_tree(X, g, cfg)
    ref = ref_fit_tree(
        X.tolist(), g.tolist(), [1.0] * len(g),
        cfg.max_depth, cfg.lam, cfg.tau, cfg.min_samples_leaf,
    )
    assert same_structure(ref, tree)
    # every level and every midpoint between levels, in each column
    probe_values = np.sort(np.concatenate([LEVELS, np.convolve(LEVELS, [0.5, 0.5], "valid")]))
    probe = np.tile(probe_values[:, None], (1, X.shape[1]))
    probe = np.vstack([X, probe, probe[::-1]])
    got = tree_predict(tree, probe)
    want = [ref_predict_row(ref, row.tolist()) for row in probe]
    assert np.allclose(got, want, rtol=0.0, atol=1e-9)


@st.composite
def loop_sized_nodes(draw):
    """A fit_tree input of 2 to 1,500 rows with non-dyadic gradients.

    Half the draws have more than 910 rows, so the upper nodes score their
    features in several blocks.  Columns are continuous, tie-heavy or
    constant; the arrays come from a drawn seed, since hypothesis lists of
    this length would be slow to generate.
    """
    m = draw(st.one_of(st.integers(2, 910), st.integers(911, 1500)))
    kinds = draw(
        st.lists(st.sampled_from(["normal", "ties", "constant"]), min_size=1, max_size=FEATURE_COUNT)
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = {
        "normal": lambda: rng.normal(size=m),
        "ties": lambda: rng.choice(LEVELS, size=m),
        "constant": lambda: np.full(m, rng.choice(LEVELS)),
    }
    X = np.column_stack([columns[kind]() for kind in kinds])
    g = rng.normal(scale=draw(st.sampled_from([0.01, 1.0, 30.0])), size=m)
    cfg = TrainConfig(
        lam=draw(st.sampled_from([0.0, 0.5, 1.0])),
        tau=draw(st.sampled_from([0.0, 0.1])),
        max_depth=draw(st.integers(1, 4)),
        min_samples_leaf=draw(st.integers(1, 3)),
    )
    return X, g, cfg


@settings(max_examples=60, deadline=None, database=None)
@given(loop_sized_nodes())
def test_fit_tree_is_bit_identical_to_the_hessian_trainer(case):
    """Counting rows in place of summing unit hessians keeps every bit."""
    X, g, cfg = case
    tree = fit_tree(X, g, cfg)
    ref = fit_reference.fit_tree(X, g, np.ones(g.size), cfg)
    assert ensemble_to_json(Ensemble(trees=[tree])) == ensemble_to_json(Ensemble(trees=[ref]))


def tied_dataset():
    """2,000 rows: rounded columns full of ties, one constant column, noise.

    Large enough that the upper nodes score their features in several blocks.
    """
    rng = np.random.default_rng(20261018)
    X = rng.normal(size=(2000, FEATURE_COUNT))
    X[:, :3] = np.round(X[:, :3], 1)
    X[:, 4] = 0.5
    X[:, 6] = np.round(2.0 * X[:, 6])
    y = 1.0 + X[:, 0] * X[:, 1] + np.abs(X[:, 2]) + 0.5 * X[:, 6] + 0.1 * rng.normal(size=2000)
    return X, y


# sha256 of ensemble_to_json.  The first two were recorded with a trainer
# that stable-sorts every feature at every node, the direct form of exact
# greedy, so they hold the pre-sorted trainer to the same model bytes.  The
# third, in the control loop's shape (the packaged scenario's train config
# on MAX_TRAIN_ROWS rows), was recorded with the trainer that summed a
# hessian array of ones.  "rows" takes the first rows of the dataset.
@pytest.mark.parametrize(
    "overrides, digest",
    [
        ({}, "b5cde297bfdd7d86b30c67805ad40b5378864f7d1b078a822aff2e38d7a03169"),
        (
            {"min_samples_leaf": 3, "lam": 0.0},
            "cb99d0bc687d263ae98ffa4aa61d349d5d788570650f058467ca9ebb0ad460cd",
        ),
        (
            {"rows": 1200, "max_depth": 3, "num_rounds": 60, "min_samples_leaf": 1},
            "b69c0cc85c2275d5331f4704fac1609bccbc23748c1cfdf9f4c52dbef0b4aec3",
        ),
    ],
)
def test_trained_model_bytes_are_pinned(overrides, digest):
    X, y = tied_dataset()
    overrides = dict(overrides)
    rows = overrides.pop("rows", None)
    cfg = TrainConfig(**{"num_rounds": 20, **overrides})
    model = train_ensemble(X[:rows], y[:rows], cfg)
    assert hashlib.sha256(ensemble_to_json(model).encode()).hexdigest() == digest


def test_fit_tree_presorted_order_gives_the_same_tree():
    X, y = tied_dataset()
    order = np.argsort(X.T, axis=1, kind="stable")
    for cfg in (TrainConfig(), TrainConfig(min_samples_leaf=3, lam=0.0, max_depth=5)):
        sorted_inside = Ensemble(trees=[fit_tree(X, -y, cfg)])
        presorted = Ensemble(trees=[fit_tree(X, -y, cfg, order=order)])
        assert not sorted_inside.trees[0].is_leaf
        assert ensemble_to_json(presorted) == ensemble_to_json(sorted_inside)


@st.composite
def boosting_runs(draw):
    """A train_ensemble input on which a node's split often recurs.

    Columns are tie-heavy, constant or continuous, and one row is an
    outlier in every column, so early trees keep peeling it off at the root.
    Sizes span one-block and several-block nodes; depth, penalties and
    min_samples_leaf vary, and 2 to 30 rounds reuse the layouts.
    """
    m = draw(st.one_of(st.integers(2, 80), st.integers(8192 // FEATURE_COUNT + 1, 1200)))
    kinds = draw(
        st.lists(st.sampled_from(["normal", "ties", "constant"]), min_size=1, max_size=FEATURE_COUNT)
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = {
        "normal": lambda: rng.normal(size=m),
        "ties": lambda: rng.choice(LEVELS, size=m),
        "constant": lambda: np.full(m, rng.choice(LEVELS)),
    }
    X = np.column_stack([columns[kind]() for kind in kinds])
    X[rng.integers(m)] = 50.0
    y = 1.0 + X[:, 0] + rng.normal(scale=draw(st.sampled_from([0.01, 0.5])), size=m)
    cfg = TrainConfig(
        learning_rate=draw(st.sampled_from([0.1, 0.5])),
        lam=draw(st.sampled_from([0.0, 0.5, 1.0])),
        tau=draw(st.sampled_from([0.0, 0.1])),
        max_depth=draw(st.integers(1, 4)),
        num_rounds=draw(st.integers(2, 30)),
        min_samples_leaf=draw(st.integers(1, 3)),
    )
    return X, y, cfg


@settings(max_examples=60, deadline=None, database=None)
@given(boosting_runs())
def test_train_ensemble_is_bit_identical_to_the_hessian_trainer(case):
    """Rounds that reuse the previous tree's layouts grow the same trees
    as rounds that partition every node afresh."""
    X, y, cfg = case
    want = ensemble_to_json(fit_reference.train_ensemble(X, y, cfg))
    assert ensemble_to_json(train_ensemble(X, y, cfg)) == want


@settings(max_examples=60, deadline=None, database=None)
@given(boosting_runs())
def test_train_predictions_are_the_ensembles_own_predictions(case):
    """The leaf updates add each round's term to the rows the partition
    routes to each leaf, as the packed walk adds it, so the trainer's
    predictions are predict(X) bit for bit."""
    X, y, cfg = case
    model = train_ensemble(X, y, cfg)
    assert model.train_predictions.tobytes() == model.predict(X).tobytes()


# strictly monotone maps: each keeps a column's partitions, so its gains
# differ from the column's only by rounding
MONOTONE = (lambda x: 2.0 * x, lambda x: -x, lambda x: x**3, lambda x: x - 0.1)


@st.composite
def near_tie_nodes(draw):
    """A fit_tree input whose features tie or nearly tie at every node.

    Each column after the first is a copy of an earlier one (an exact tie,
    which the lower index must win), a strictly monotone map of one, or now
    and then a fresh column, which the contender rule may leave out.  The
    gradients are continuous, or alternate in sign around a common size so
    that S = sum |g| is far above any |G|.
    """
    m = draw(st.integers(2, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    fresh = lambda: rng.choice(LEVELS, size=m) if draw(st.booleans()) else rng.normal(size=m)
    columns = [fresh()]
    for _ in range(draw(st.integers(1, FEATURE_COUNT - 1))):
        source = columns[draw(st.integers(0, len(columns) - 1))]
        op = draw(st.sampled_from((None, "fresh") + MONOTONE))
        columns.append(source.copy() if op is None else fresh() if op == "fresh" else op(source))
    X = np.column_stack(columns)
    size = draw(st.sampled_from([1e-3, 1.0, 1e3]))
    if draw(st.booleans()):
        g = rng.normal(scale=size, size=m)
    else:
        signs = np.where(np.arange(m) % 2, -1.0, 1.0)
        g = size * signs + rng.normal(scale=size * draw(st.sampled_from([1e-6, 1e-12])), size=m)
    cfg = TrainConfig(
        lam=draw(st.sampled_from([0.0, 0.5, 1.0])),
        tau=draw(st.sampled_from([0.0, 0.1])),
        max_depth=draw(st.integers(1, 3)),
        min_samples_leaf=draw(st.integers(1, 3)),
    )
    return X, g, cfg


@settings(max_examples=40, deadline=None, database=None)
@given(near_tie_nodes())
def test_contender_rule_keeps_the_bytes_at_near_ties(case):
    """Re-scoring only the features whose prefix gain is within 2E of the
    best grows the hessian trainer's tree, and E bounds, at every candidate
    of every node the fit laid out, the gap between its prefix gain and its
    row-order re-score."""
    X, g, cfg = case
    ref = fit_reference.fit_tree(X, g, np.ones(g.size), cfg)
    root = gbdt._root_layout(X, cfg)
    tree = fit_tree(X, g, cfg, root=root)
    assert ensemble_to_json(Ensemble(trees=[tree])) == ensemble_to_json(Ensemble(trees=[ref]))
    for layout in held_layouts(root, tree):
        m = layout.rows.size
        if not layout.has.size:
            continue
        g_node = g.take(layout.rows)
        bound = gbdt._rescore_bound(g_node, cfg)
        assert np.isfinite(bound)
        gains = gbdt._candidate_gains(g, layout, cfg)
        for gain, at, n_left in zip(gains.tolist(), layout.at.tolist(), layout.n_left.tolist()):
            f, pos = divmod(at, m)
            x = layout.XT[f].take(layout.rows)
            below, above = layout.XT[f, layout.order[f, pos : pos + 2]]
            rescored, (_, count), _ = gbdt._rescore(g_node, x, (below + above) / 2.0, cfg)
            assert count == n_left  # the threshold separates the candidate's rows
            assert abs(gain - rescored) <= bound


def test_rescore_bound_is_infinite_where_it_is_not_shown():
    g = np.array([1.0, -2.0, 0.5])
    assert np.isfinite(gbdt._rescore_bound(g, TrainConfig(lam=0.0, min_samples_leaf=1)))
    # a square that overflows, or a denominator that may vanish
    assert gbdt._rescore_bound(1e160 * g, TrainConfig()) == np.inf
    assert gbdt._rescore_bound(g, TrainConfig(lam=-1.0, min_samples_leaf=1)) == np.inf
    assert gbdt._rescore_bound(g, TrainConfig(lam=float("nan"))) == np.inf
    # every feature is then re-scored, so the trees still match
    X = np.array([[0.0, 3.0], [1.0, 2.0], [2.0, 1.0], [3.0, 0.0]])
    gs, cfg = 1e160 * np.array([1.0, -2.0, 0.5, 0.25]), TrainConfig(min_samples_leaf=1)
    with np.errstate(over="ignore"):
        want = fit_reference.fit_tree(X, gs, np.ones(4), cfg)
        got = fit_tree(X, gs, cfg)
    assert ensemble_to_json(Ensemble(trees=[got])) == ensemble_to_json(Ensemble(trees=[want]))


def held_layouts(layout, tree):
    """The layouts ``layout`` still holds below it, checked against the
    tree whose round just built or reused them."""
    assert (layout.split is None) == tree.is_leaf
    held = [layout]
    if layout.split is not None:
        (feature, threshold), kids = layout.split
        assert (feature, threshold) == (tree.feature, tree.threshold)
        go_left = layout.XT[feature].take(layout.rows) < threshold
        for kid, child, side in zip(kids, (tree.left, tree.right), (go_left, ~go_left)):
            if kid is not None:
                assert np.array_equal(kid.rows, layout.rows[side])
                held += held_layouts(kid, child)
    return held


def test_a_fit_holds_at_most_the_previous_trees_layouts():
    X, y = tied_dataset()
    X, y = X[:300], y[:300]
    # a per-leaf cost turns nodes that split in one tree into leaves in another
    cfg = TrainConfig(num_rounds=30, max_depth=4, tau=5.0)
    n, d = X.shape
    held_cells = []

    def holding(fit):
        def wrapper(X, g, cfg, **kwargs):
            tree = fit(X, g, cfg, **kwargs)
            layouts = held_layouts(kwargs["root"], tree)
            alive = [obj for obj in gc.get_objects() if isinstance(obj, gbdt._Layout)]
            assert {id(layout) for layout in layouts} == {id(obj) for obj in alive}
            held_cells.append(sum(layout.order.size for layout in layouts))
            return tree

        return wrapper

    real = gbdt.fit_tree
    gbdt.fit_tree = holding(real)
    try:
        model = train_ensemble(X, y, cfg)
    finally:
        gbdt.fit_tree = real
    assert len(held_cells) == cfg.num_rounds
    assert held_cells[0] > n * d  # the first tree splits below its root
    assert max(held_cells) <= cfg.max_depth * n * d
    # the returned ensemble's data reaches no layout: nothing outlives the fit
    seen, stack = set(), [model]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType, types.FunctionType)):
            continue
        seen.add(id(obj))
        assert not isinstance(obj, gbdt._Layout)
        stack.extend(gc.get_referents(obj))
    assert len(seen) > len(model.trees)  # the walk reached the trees


def test_train_shaped_model_bytes_are_pinned():
    """`ckoord train`'s defaults on 8,016 rows of the packaged scenario run
    with controllers off: 100 rounds of depth-4 trees.  The digest was
    recorded with the trainer that partitioned every node afresh each round.
    """
    rows = run_scenario(
        cfg_with("controllers.enabled=false", "horizon=334", "interference=[]"), seed=1
    ).trace_rows
    X, y = feature_matrix(rows)
    model = train_ensemble(X[:8016], y[:8016], TrainConfig())
    digest = hashlib.sha256(ensemble_to_json(model).encode()).hexdigest()
    assert digest == "bc4a8fd3da7e3d1d46000b7c52df42ba07bef090e2d2e2a51fe125183f073653"


def test_metrics_hand_values():
    m = regression_metrics(np.array([1.0, 1.0]), np.array([0.9, 1.1]))
    assert m["mae"] == pytest.approx(0.1, abs=1e-12)
    assert m["acc"] == pytest.approx(0.9, abs=1e-12)
    assert m["mse"] == pytest.approx(0.01, abs=1e-12)


def test_metrics_perfect_and_mean_predictor():
    y = np.array([1.0, 2.0, 3.0])
    perfect = regression_metrics(y, y.copy())
    assert perfect == {"mse": 0.0, "mae": 0.0, "r2": 1.0, "acc": 1.0}
    at_mean = regression_metrics(y, np.full(3, 2.0))
    assert at_mean["r2"] == pytest.approx(0.0, abs=1e-12)


def test_metrics_acc_requires_positive_targets():
    with pytest.raises(ValueError):
        regression_metrics(np.array([0.0, 1.0]), np.array([0.1, 1.0]))
    without = regression_metrics(np.array([0.0, 1.0]), np.array([0.1, 1.0]), include_acc=False)
    assert "acc" not in without


def test_serialization_round_trip_identical_predictions():
    rng = np.random.default_rng(6)
    X = rng.normal(size=(50, 9))
    y = 1.0 + np.abs(rng.normal(size=50))
    model = train_ensemble(X, y, TrainConfig(num_rounds=20))
    restored = ensemble_from_json(ensemble_to_json(model))
    probe = rng.normal(size=(20, 9))
    assert np.array_equal(model.predict(probe), restored.predict(probe))


def test_serialized_document_shape():
    import json

    model = Ensemble(base_score=0.5, learning_rate=0.1, feature_count=9)
    model.trees.append(TreeNode(weight=1.0))
    doc = json.loads(ensemble_to_json(model))
    assert doc["version"] == 1
    assert doc["feature_count"] == 9
    assert doc["trees"] == [{"weight": 1.0}]


def test_deserialization_rejects_bad_documents():
    with pytest.raises(ModelSchemaError):
        ensemble_from_json("not json")
    with pytest.raises(ModelSchemaError):
        ensemble_from_json('{"version": 2, "base_score": 0, "learning_rate": 0.1, "feature_count": 9, "trees": []}')
    with pytest.raises(ModelSchemaError):
        ensemble_from_json('{"version": 1, "base_score": 0}')
    with pytest.raises(ModelSchemaError):
        ensemble_from_json(
            '{"version": 1, "base_score": 0, "learning_rate": 0.1, "feature_count": 2,'
            ' "trees": [{"feature": 5, "threshold": 0, "left": {"weight": 0}, "right": {"weight": 0}}]}'
        )
