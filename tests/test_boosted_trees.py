import math
import re

import numpy as np
import pytest

from satira import DataError
from satira.models import BoostConfig, BoostedTreesModel, gbt_fit, gbt_predict
from satira.models.boosted_trees import (
    TIE_RTOL,
    RegressionTree,
    TreeNode,
    _segment_cumsum,
    gbt_from_text,
    gbt_margins,
    gbt_to_text,
    load_gbt,
    logistic_loss,
    save_gbt,
    sigmoid,
)


def separable_1d(n=20):
    x = np.linspace(-1, 1, n).reshape(-1, 1)
    y = (x[:, 0] >= 0).astype(float)
    return x, y


class TestFit:
    def test_balanced_base_score_zero(self):
        X, y = separable_1d(20)
        model = gbt_fit(X, y, BoostConfig(n_rounds=1))
        assert model.base_score == pytest.approx(0.0, abs=1e-12)

    def test_separable_perfect_within_ten_rounds(self):
        X, y = separable_1d(20)
        model = gbt_fit(X, y, BoostConfig(n_rounds=10))
        _, labels = gbt_predict(model, X)
        assert np.array_equal(labels, y.astype(np.int64))

    def test_single_class_labels_stay_on_class(self):
        X = np.arange(10, dtype=float).reshape(-1, 1)
        y = np.ones(10)
        model = gbt_fit(X, y, BoostConfig(n_rounds=5))
        proba, labels = gbt_predict(model, X)
        assert np.all(labels == 1)
        base_loss = logistic_loss(np.full(10, model.base_score), y)
        assert model.train_loss[-1] <= base_loss + 1e-12

    def test_n_rounds_validation(self):
        with pytest.raises(ValueError):
            BoostConfig(n_rounds=0)

    @pytest.mark.parametrize("name, value", [
        ("learning_rate", math.nan), ("learning_rate", -1.0), ("learning_rate", 0.0),
        ("learning_rate", math.inf), ("reg_lambda", -1.0), ("reg_lambda", math.nan),
        ("reg_lambda", math.inf),
    ])
    def test_unusable_learning_rate_or_reg_lambda_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            BoostConfig(**{name: value})

    @pytest.mark.parametrize("base_score", [math.nan, math.inf, -math.inf])
    def test_non_finite_base_score_rejected(self, base_score):
        with pytest.raises(ValueError, match="base_score must be finite"):
            BoostedTreesModel((), base_score, BoostConfig(n_rounds=1), n_features=1)

    def test_depth_bound_respected(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(80, 4))
        y = (rng.random(80) > 0.5).astype(float)
        model = gbt_fit(X, y, BoostConfig(n_rounds=8, max_depth=3))
        assert all(tree.depth() <= 3 for tree in model.trees)

    def test_loss_non_increasing_random_data(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            n = int(rng.integers(20, 80))
            f = int(rng.integers(1, 6))
            X = rng.normal(size=(n, f))
            y = (rng.random(n) > 0.5).astype(float)
            if len(set(y)) < 2:
                y[0] = 1.0 - y[0]
            model = gbt_fit(X, y, BoostConfig(n_rounds=25))
            losses = model.train_loss
            assert all(l2 <= l1 + 1e-12 for l1, l2 in zip(losses, losses[1:]))

    def test_leaf_weights_are_newton_steps(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(60, 3))
        y = (X[:, 0] + 0.3 * rng.normal(size=60) > 0).astype(float)
        cfg = BoostConfig(n_rounds=4, reg_lambda=1.0)
        model = gbt_fit(X, y, cfg)
        # replay boosting to recover per-round gradients, then check leaves
        margins = np.full(len(y), model.base_score)
        tree_sum = np.zeros(len(y))
        for tree in model.trees:
            p = sigmoid(margins)
            g = p - y
            h = p * (1 - p)
            # route every row to its leaf
            leaf_rows: dict[int, list[int]] = {}
            for row in range(len(y)):
                node_id = 0
                while not tree.nodes[node_id].is_leaf:
                    node = tree.nodes[node_id]
                    node_id = node.left if X[row, node.feature] < node.threshold else node.right
                leaf_rows.setdefault(node_id, []).append(row)
            for node_id, rows in leaf_rows.items():
                expected = -g[rows].sum() / (h[rows].sum() + cfg.reg_lambda)
                assert tree.nodes[node_id].weight == pytest.approx(expected, abs=1e-12)
            tree_sum += tree.predict(X)
            margins = model.base_score + cfg.learning_rate * tree_sum

    def test_fit_is_deterministic(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(50, 4))
        y = (rng.random(50) > 0.5).astype(float)
        y[:2] = [0.0, 1.0]
        m1 = gbt_fit(X, y, BoostConfig(n_rounds=10))
        m2 = gbt_fit(X, y, BoostConfig(n_rounds=10))
        assert m1.train_loss == m2.train_loss
        assert m1.trees == m2.trees

    def test_non_finite_features_rejected(self):
        X = np.array([[1.0], [np.inf]])
        with pytest.raises(DataError, match="finite"):
            gbt_fit(X, np.array([0.0, 1.0]), BoostConfig(n_rounds=1))

    def test_non_binary_labels_rejected(self):
        X = np.array([[1.0], [2.0]])
        with pytest.raises(DataError, match="binary"):
            gbt_fit(X, np.array([0.0, 2.0]), BoostConfig(n_rounds=1))



def reference_split(X, g, h, rows, reg_lambda):
    """Brute-force split search: sort each feature's column within the node and
    score every cut between distinct values. Ties as in the model: the first
    gain within TIE_RTOL of the best, by feature, then threshold."""
    G = g[rows].sum()
    H = h[rows].sum()
    candidates = []  # (gain, feature, threshold) by feature, then threshold
    for j in range(X.shape[1]):
        order = np.argsort(X[rows, j], kind="stable")
        xs = X[rows, j][order]
        gs = np.cumsum(g[rows][order])
        hs = np.cumsum(h[rows][order])
        for i in np.flatnonzero(xs[:-1] < xs[1:]):
            gain = 0.5 * (
                gs[i] ** 2 / (hs[i] + reg_lambda)
                + (G - gs[i]) ** 2 / (H - hs[i] + reg_lambda)
                - G * G / (H + reg_lambda)
            )
            candidates.append((gain, j, float(0.5 * (xs[i] + xs[i + 1]))))
    best = max((gain for gain, _, _ in candidates), default=0.0)
    if not best > 0:
        return None
    return next((j, t) for gain, j, t in candidates if gain >= best - TIE_RTOL * best)


def reference_fit(X, y, cfg):
    """gbt_fit's boosting loop over reference_split; returns the trees."""
    p_bar = float(np.clip(y.mean(), 1e-6, 1.0 - 1e-6))
    base_score = float(np.log(p_bar / (1.0 - p_bar)))
    margins = np.full(len(y), base_score)
    tree_sum = np.zeros(len(y))
    trees = []
    for _ in range(cfg.n_rounds):
        p = sigmoid(margins)
        g = p - y
        h = p * (1.0 - p)
        nodes = []

        def build(rows, depth):
            node_id = len(nodes)
            nodes.append(None)
            split = None
            if depth < cfg.max_depth and len(rows) >= 2:
                split = reference_split(X, g, h, rows, cfg.reg_lambda)
            if split is None:
                weight = -g[rows].sum() / (h[rows].sum() + cfg.reg_lambda)
                nodes[node_id] = TreeNode(is_leaf=True, weight=float(weight))
                return node_id
            feature, threshold = split
            goes_left = X[rows, feature] < threshold
            left = build(rows[goes_left], depth + 1)
            right = build(rows[~goes_left], depth + 1)
            nodes[node_id] = TreeNode(
                is_leaf=False, feature=feature, threshold=threshold, left=left, right=right
            )
            return node_id

        build(np.arange(len(y)), 0)
        trees.append(RegressionTree(tuple(nodes)))
        tree_sum += trees[-1].predict(X)
        margins = base_score + cfg.learning_rate * tree_sum
    return trees


MATRIX_KINDS = ("counts", "tfidf", "signed")


def random_matrix(rng, kind, n):
    """An n-row matrix of one kind of values, plus an all-zero column, a
    constant non-zero column and a column with a single non-zero, shuffled."""
    f = int(rng.integers(1, 7))
    if kind == "counts":
        X = rng.poisson(0.7, size=(n, f)).astype(float)
    elif kind == "tfidf":
        X = np.where(rng.random((n, f)) < 0.4, rng.integers(1, 4, (n, f)), 0.0)
        X *= np.log((1 + n) / (1 + (X > 0).sum(axis=0))) + 1.0
        X /= np.maximum(np.linalg.norm(X, axis=1, keepdims=True), 1e-12)
    else:  # negative values put the zero bin in the middle of the value order
        X = np.where(rng.random((n, f)) < 0.5, np.round(rng.normal(size=(n, f)), 1), 0.0)
    single = np.zeros(n)
    single[rng.integers(n)] = rng.choice([-1.5, 2.0])
    X = np.column_stack([X, np.zeros(n), np.full(n, 3.0), single])
    return X[:, rng.permutation(X.shape[1])]


class TestReferenceSearch:
    @pytest.mark.parametrize("seed", range(24))
    def test_every_node_matches_brute_force_search(self, seed):
        rng = np.random.default_rng(100 + seed)
        kind = MATRIX_KINDS[seed % len(MATRIX_KINDS)]
        n = (2, 3, 5)[seed % 3] if seed < 6 else int(rng.integers(6, 50))
        X = random_matrix(rng, kind, n)
        y = (rng.random(n) < 0.5).astype(float)
        y[:2] = [0.0, 1.0]
        cfg = BoostConfig(n_rounds=6, max_depth=4, reg_lambda=(1.0, 0.3)[seed % 2])
        model = gbt_fit(X, y, cfg)
        expected = reference_fit(X, y, cfg)
        for t, (tree, ref) in enumerate(zip(model.trees, expected)):
            for node_id, (node, want) in enumerate(zip(tree.nodes, ref.nodes)):
                assert (node.feature, node.threshold) == (want.feature, want.threshold), (
                    f"tree {t} node {node_id}"
                )
        assert model.trees == tuple(expected)

    def test_segment_cumsum_error_stays_at_segment_scale(self):
        rng = np.random.default_rng(4)
        lengths = rng.integers(1, 8, 3000)
        starts = np.concatenate([[0], np.cumsum(lengths)[:-1]])
        values = rng.normal(size=lengths.sum()) + 1000.0
        expected = np.concatenate([np.cumsum(values[s : s + k]) for s, k in zip(starts, lengths)])
        # a plain cumsum minus each segment's offset is off by ~1e-9 here
        atol = 8 * np.finfo(float).eps * np.abs(expected).max()
        np.testing.assert_allclose(_segment_cumsum(values, starts), expected, rtol=0, atol=atol)

    def test_duplicated_column_tie_picks_lowest_feature(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=40)
        y = (x + 0.5 * rng.normal(size=40) > 0).astype(float)
        # the copy, the mirror and the shift cut the rows as column 0 does,
        # with sums grouped differently
        X = np.column_stack([x, x, -x, x + 1.0])
        model = gbt_fit(X, y, BoostConfig(n_rounds=10, max_depth=3))
        features = {n.feature for tree in model.trees for n in tree.nodes if not n.is_leaf}
        assert features == {0}


class TestPredict:
    def test_zero_trees_is_base_probability(self):
        model = BoostedTreesModel((), base_score=0.4, config=BoostConfig(n_rounds=1), n_features=2)
        proba, _ = gbt_predict(model, np.zeros((5, 2)))
        assert np.allclose(proba, 1.0 / (1.0 + math.exp(-0.4)))

    def test_single_stump_hand_computed(self):
        w = 0.7
        stump = RegressionTree(
            (
                TreeNode(is_leaf=False, feature=0, threshold=0.5, left=1, right=2),
                TreeNode(is_leaf=True, weight=-w),
                TreeNode(is_leaf=True, weight=+w),
            )
        )
        cfg = BoostConfig(n_rounds=1, learning_rate=0.1)
        model = BoostedTreesModel((stump,), base_score=0.0, config=cfg, n_features=1)
        X = np.array([[0.0], [1.0]])
        proba, labels = gbt_predict(model, X)
        assert proba[0] == pytest.approx(1 / (1 + math.exp(0.1 * w)), abs=1e-12)
        assert proba[1] == pytest.approx(1 / (1 + math.exp(-0.1 * w)), abs=1e-12)
        assert labels.tolist() == [0, 1]

    def test_dimension_mismatch(self):
        X, y = separable_1d(10)
        model = gbt_fit(X, y, BoostConfig(n_rounds=2))
        with pytest.raises(DataError, match="features"):
            gbt_predict(model, np.zeros((3, 0)))

    def test_margins_additive_in_trees(self):
        X, y = separable_1d(12)
        model = gbt_fit(X, y, BoostConfig(n_rounds=3))
        partial = BoostedTreesModel(model.trees[:2], model.base_score, model.config, 1)
        third = model.trees[2].predict(X)
        assert np.allclose(
            gbt_margins(model, X),
            gbt_margins(partial, X) + model.learning_rate * third,
        )


class TestSerialization:
    def test_round_trip(self, tmp_path):
        X, y = separable_1d(16)
        model = gbt_fit(X, y, BoostConfig(n_rounds=4))
        path = tmp_path / "model.txt"
        save_gbt(model, path)
        loaded = load_gbt(path)
        assert loaded.base_score == model.base_score
        assert loaded.config == model.config
        p1, _ = gbt_predict(model, X)
        p2, _ = gbt_predict(loaded, X)
        assert np.array_equal(p1, p2)

    def test_version_mismatch(self):
        with pytest.raises(DataError, match="unsupported"):
            gbt_from_text("# not-a-model v0\n")

    @pytest.mark.parametrize("value", ["None", "1.5", "x"])
    def test_malformed_n_features_header(self, value):
        X, y = separable_1d(16)
        text = gbt_to_text(gbt_fit(X, y, BoostConfig(n_rounds=2)))
        assert " n_features=1\n" in text
        with pytest.raises(DataError, match=f"header n_features='{value}' is malformed"):
            gbt_from_text(text.replace(" n_features=1\n", f" n_features={value}\n"))

    @pytest.mark.parametrize("key, value, message", [
        ("n_rounds", "0", "n_rounds must be >= 1, got 0"),
        ("max_depth", "-1", "max_depth must be >= 0, got -1"),
        ("n_features", "-1", "header n_features=-1 must be >= 0"),
    ])
    def test_impossible_header_value_names_the_file(self, tmp_path, key, value, message):
        X, y = separable_1d(16)
        text = gbt_to_text(gbt_fit(X, y, BoostConfig(n_rounds=1, max_depth=0)))
        path = tmp_path / "model.txt"
        path.write_text(re.sub(rf" {key}=\S+", f" {key}={value}", text), encoding="utf-8")
        with pytest.raises(DataError, match=re.escape(f"{path}: {message}")):
            load_gbt(path)

    @pytest.mark.parametrize("pattern, value", [
        (r"(?m)^(\d+\tleaf\t)\S+$", "nan"), (r"(?m)^(\d+\tleaf\t)\S+$", "-inf"),
        (r"(?m)^(\d+\tsplit\t\d+\t)[^\t]+", "inf"),
        (r"(?m)^(\d+\tsplit\t\d+\t)[^\t]+", "nan"),
    ], ids=["leaf-nan", "leaf-minus-inf", "threshold-inf", "threshold-nan"])
    def test_non_finite_node_value_names_the_line(self, pattern, value):
        # gbt_fit writes only finite weights and thresholds; a NaN leaf used to
        # load and label every row that reaches it real
        X, y = separable_1d(16)
        text = gbt_to_text(gbt_fit(X, y, BoostConfig(n_rounds=2)))
        text, count = re.subn(pattern, rf"\g<1>{value}", text, count=1)
        assert count == 1
        lineno = text[:text.index(f"\t{value}")].count("\n") + 1
        with pytest.raises(DataError, match=f"line {lineno}: '{value}' is not a finite number"):
            gbt_from_text(text)

    def test_every_truncation_rejected(self):
        X, y = separable_1d(16)
        lines = gbt_to_text(gbt_fit(X, y, BoostConfig(n_rounds=3))).splitlines(keepends=True)
        for k in range(len(lines)):
            with pytest.raises(DataError):
                gbt_from_text("".join(lines[:k]))
