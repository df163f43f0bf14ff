"""Gradient-boosted regression trees with the binary logistic objective.

Newton boosting: each round fits a depth-limited tree to the current
gradients g_i = p_i - y_i and hessians h_i = p_i (1 - p_i). Splits are
found by exact search maximizing

    gain = 1/2 * (G_L^2 / (H_L + lambda) + G_R^2 / (H_R + lambda)
                  - G^2 / (H + lambda))

and each leaf takes the Newton step w = -G_leaf / (H_leaf + lambda).
The final prediction is sigmoid(base_score + learning_rate * sum of tree
outputs).

The search is exact but reads only the non-zeros (Chen & Guestrin 2016,
section 3.4). Once per fit each feature gets one bin per distinct value of
its column, 0 included, in value order. Each node sums g, h and its row
count into those bins over its own non-zeros, and a feature's zero bin is
the node total minus its non-zero bins (per-node histograms as in Ke et
al. 2017, section 3). A threshold is the midpoint between consecutive
values present in the node. Gains within TIE_RTOL (relative) of the best
count as ties, broken toward the lowest feature index, then the lowest
threshold, so results do not depend on how the sums are grouped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..errors import DataError
from ..fileio import BodyReader, parse_file
from ._labels import binary_labels

GBT_FORMAT = "satira-gbt v1"


def sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def logistic_loss(margins: np.ndarray, y: np.ndarray) -> float:
    """Mean binary cross-entropy computed stably from raw margins."""
    return float(np.mean(np.logaddexp(0.0, margins) - y * margins))


@dataclass(frozen=True)
class TreeNode:
    is_leaf: bool
    weight: float = 0.0
    feature: int = -1
    threshold: float = 0.0
    left: int = -1
    right: int = -1


@dataclass(frozen=True)
class RegressionTree:
    nodes: tuple[TreeNode, ...]

    def predict(self, X: np.ndarray) -> np.ndarray:
        out = np.empty(len(X), dtype=np.float64)
        stack = [(0, np.arange(len(X)))]
        while stack:
            node_id, rows = stack.pop()
            node = self.nodes[node_id]
            if node.is_leaf:
                out[rows] = node.weight
                continue
            goes_left = X[rows, node.feature] < node.threshold
            stack.append((node.left, rows[goes_left]))
            stack.append((node.right, rows[~goes_left]))
        return out

    def depth(self) -> int:
        def node_depth(node_id: int) -> int:
            node = self.nodes[node_id]
            if node.is_leaf:
                return 0
            return 1 + max(node_depth(node.left), node_depth(node.right))

        return node_depth(0)


@dataclass(frozen=True)
class BoostConfig:
    n_rounds: int = 100
    learning_rate: float = 0.1
    max_depth: int = 3
    reg_lambda: float = 1.0

    def __post_init__(self):
        if self.n_rounds < 1:
            raise ValueError(f"n_rounds must be >= 1, got {self.n_rounds}")
        if self.max_depth < 0:
            raise ValueError(f"max_depth must be >= 0, got {self.max_depth}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if not (math.isfinite(self.reg_lambda) and self.reg_lambda >= 0):
            raise ValueError(f"reg_lambda must be finite and >= 0, got {self.reg_lambda}")


@dataclass(frozen=True)
class BoostedTreesModel:
    trees: tuple[RegressionTree, ...]
    base_score: float
    config: BoostConfig
    n_features: int
    train_loss: tuple[float, ...] = field(default=())

    def __post_init__(self):
        if not math.isfinite(self.base_score):
            raise ValueError(f"base_score must be finite, got {self.base_score}")

    @property
    def learning_rate(self) -> float:
        return self.config.learning_rate


TIE_RTOL = 1e-12


@dataclass(frozen=True)
class _ValueBins:
    """The non-zeros of a feature matrix and the value bins of its features.

    Feature j owns bins ``start[j]`` up to ``start[j + 1]``: one per
    distinct value of column j, 0 among them, in increasing value order.
    """

    row: np.ndarray  # row of each non-zero, in row-major order
    bin: np.ndarray  # bin of each non-zero
    value: np.ndarray  # value of each bin
    feature: np.ndarray  # feature of each bin
    start: np.ndarray  # first bin of each feature
    zero: np.ndarray  # bin of the value 0 of each feature


def _bin_values(X: np.ndarray) -> _ValueBins:
    rows, features = np.nonzero(X)
    n_features = X.shape[1]
    feature = np.concatenate([features, np.arange(n_features)])
    value = np.concatenate([X[rows, features], np.zeros(n_features)])
    order = np.lexsort((value, feature))
    feature, value = feature[order], value[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = (feature[1:] != feature[:-1]) | (value[1:] != value[:-1])
    bin_of = np.empty(len(order), dtype=np.intp)
    bin_of[order] = np.cumsum(first) - 1
    bin_feature = feature[first]
    return _ValueBins(
        row=rows,
        bin=bin_of[: len(rows)],
        value=value[first],
        feature=bin_feature,
        start=np.searchsorted(bin_feature, np.arange(n_features)),
        zero=bin_of[len(rows):],
    )


def _segment_cumsum(values: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Running sums of ``values`` that restart at each index in ``starts``
    (``starts[0] == 0``). One ``np.cumsum``: each segment's first value is
    offset by the sum of the segment before it, so the running sum stays at
    the scale of one segment and its rounding does not grow with their count.
    """
    totals = np.add.reduceat(values, starts)
    shifted = values.copy()
    shifted[starts[1:]] -= totals[:-1]
    running = np.cumsum(shifted)
    base = np.zeros(len(starts))
    base[1:] = running[starts[1:] - 1] - totals[:-1]
    return running - np.repeat(base, np.diff(starts, append=len(values)))


def _best_split(bins: _ValueBins, g, h, nz, G, H, n_rows, reg_lambda):
    """Exact split search over all features and thresholds for one node.

    ``nz`` indexes the node's non-zeros in ``bins``; ``G``, ``H`` and
    ``n_rows`` are the node's gradient and hessian sums and its row count.
    Returns (feature, threshold) or None when no split has positive gain.
    """
    n_bins = len(bins.value)
    b = bins.bin[nz]
    r = bins.row[nz]
    count = np.bincount(b, minlength=n_bins)
    grad = np.bincount(b, weights=g[r], minlength=n_bins)
    hess = np.bincount(b, weights=h[r], minlength=n_bins)
    # a zero bin holds the part of the node its feature's non-zeros leave
    count[bins.zero] = n_rows - np.add.reduceat(count, bins.start)
    grad[bins.zero] = G - np.add.reduceat(grad, bins.start)
    hess[bins.zero] = H - np.add.reduceat(hess, bins.start)

    present = np.flatnonzero(count)
    feature = bins.feature[present]
    same = feature[:-1] == feature[1:]
    # a cut after present bin i sends bins up to i of its feature left
    cut = np.flatnonzero(same)
    if len(cut) == 0:
        return None
    starts = np.flatnonzero(np.concatenate([[True], ~same]))
    G_L = _segment_cumsum(grad[present], starts)[cut]
    H_L = _segment_cumsum(hess[present], starts)[cut]
    G_R = G - G_L
    H_R = H - H_L
    gains = 0.5 * (
        G_L * G_L / (H_L + reg_lambda)
        + G_R * G_R / (H_R + reg_lambda)
        - G * G / (H + reg_lambda)
    )
    best = gains.max()
    if not best > 0:
        return None
    # cuts run by feature, then value: the first near-best is the tie winner
    i = cut[np.argmax(gains >= best - TIE_RTOL * best)]
    value = bins.value[present]
    return int(feature[i]), float(0.5 * (value[i] + value[i + 1]))


def _grow_tree(X, bins: _ValueBins, g, h, cfg: BoostConfig) -> tuple[RegressionTree, np.ndarray]:
    """The tree, and the weight of the leaf each training row reaches."""
    nodes: list[TreeNode] = []
    row_left = np.zeros(len(g), dtype=bool)
    row_weight = np.empty(len(g), dtype=np.float64)

    def build(rows: np.ndarray, nz: np.ndarray, depth: int) -> int:
        node_id = len(nodes)
        nodes.append(TreeNode(is_leaf=True))  # placeholder
        G = g[rows].sum()
        H = h[rows].sum()
        split = None
        if depth < cfg.max_depth and len(rows) >= 2:
            split = _best_split(bins, g, h, nz, G, H, len(rows), cfg.reg_lambda)
        if split is None:
            weight = float(-G / (H + cfg.reg_lambda))
            nodes[node_id] = TreeNode(is_leaf=True, weight=weight)
            row_weight[rows] = weight
            return node_id
        feature, threshold = split
        goes_left = X[rows, feature] < threshold
        row_left[rows] = goes_left
        nz_left = row_left[bins.row[nz]]
        left = build(rows[goes_left], nz[nz_left], depth + 1)
        right = build(rows[~goes_left], nz[~nz_left], depth + 1)
        nodes[node_id] = TreeNode(
            is_leaf=False, feature=feature, threshold=threshold, left=left, right=right
        )
        return node_id

    build(np.arange(len(g)), np.arange(len(bins.row)), 0)
    return RegressionTree(tuple(nodes)), row_weight


def gbt_fit(X, y, config: BoostConfig = BoostConfig()) -> BoostedTreesModel:
    """Boost ``n_rounds`` trees on the logistic loss.

    ``base_score`` is the log-odds of the base rate (clipped so degenerate
    single-class labels stay finite). The per-round mean training loss is
    recorded on the returned model.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise DataError("X must be a 2-D feature matrix")
    y = binary_labels(y, len(X), "matrix rows")
    if not np.isfinite(X).all():
        raise DataError("features must be finite")

    p_bar = float(np.clip(y.mean(), 1e-6, 1.0 - 1e-6))
    base_score = float(np.log(p_bar / (1.0 - p_bar)))

    margins = np.full(len(y), base_score, dtype=np.float64)
    tree_sum = np.zeros(len(y), dtype=np.float64)
    bins = _bin_values(X)
    trees: list[RegressionTree] = []
    losses: list[float] = []
    for _ in range(config.n_rounds):
        p = sigmoid(margins)
        g = p - y
        h = p * (1.0 - p)
        tree, row_weight = _grow_tree(X, bins, g, h, config)
        trees.append(tree)
        tree_sum += row_weight
        margins = base_score + config.learning_rate * tree_sum
        losses.append(logistic_loss(margins, y))
    return BoostedTreesModel(tuple(trees), base_score, config, X.shape[1], tuple(losses))


def gbt_margins(model: BoostedTreesModel, X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    total = np.zeros(len(X), dtype=np.float64)
    for tree in model.trees:
        total += tree.predict(X)
    return model.base_score + model.learning_rate * total


def gbt_predict(model: BoostedTreesModel, X) -> tuple[np.ndarray, np.ndarray]:
    """Probabilities of the positive (fake) class and 0/1 labels at 0.5."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise DataError("X must be a 2-D feature matrix")
    if X.shape[1] != model.n_features:
        raise DataError(
            f"matrix has {X.shape[1]} features, model expects {model.n_features}"
        )
    proba = sigmoid(gbt_margins(model, X))
    labels = (proba >= 0.5).astype(np.int64)
    return proba, labels


def gbt_to_text(model: BoostedTreesModel) -> str:
    cfg = model.config
    lines = [
        f"# {GBT_FORMAT}",
        f"# n_rounds={cfg.n_rounds} learning_rate={cfg.learning_rate!r} "
        f"max_depth={cfg.max_depth} reg_lambda={cfg.reg_lambda!r} "
        f"base_score={model.base_score!r} n_features={model.n_features}",
    ]
    for i, tree in enumerate(model.trees):
        lines.append(f"tree {i} {len(tree.nodes)}")
        for node_id, node in enumerate(tree.nodes):
            if node.is_leaf:
                lines.append(f"{node_id}\tleaf\t{node.weight!r}")
            else:
                lines.append(
                    f"{node_id}\tsplit\t{node.feature}\t{node.threshold!r}"
                    f"\t{node.left}\t{node.right}"
                )
    return "".join(line + "\n" for line in lines)


def _finite(text: str) -> float:
    """A leaf weight or split threshold: ``gbt_fit`` writes only finite ones."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not a finite number")
    return value


def _node_from_fields(r: BodyReader, node_id: int, n_nodes: int, n_features: int) -> TreeNode:
    parts = r.fields(f"node {node_id}")
    if parts[0] != str(node_id):
        raise r.error(f"expected node {node_id}, got {parts[0]!r}")
    if parts[1:2] == ["leaf"] and len(parts) == 3:
        (weight,) = r.parse(_finite, parts[2])
        return TreeNode(is_leaf=True, weight=weight)
    if parts[1:2] != ["split"] or len(parts) != 6:
        raise r.error("expected 'leaf <weight>' or 'split <feature> <threshold> <left> <right>'")
    feature, left, right = r.parse(int, parts[2], parts[4], parts[5])
    (threshold,) = r.parse(_finite, parts[3])
    if not 0 <= feature < n_features:
        raise r.error(f"feature {feature} is out of range")
    # children follow their parent, which also rules out cycles
    if not (node_id < left < n_nodes and node_id < right < n_nodes):
        raise r.error(f"child ids {left}, {right} must lie in ({node_id}, {n_nodes})")
    return TreeNode(is_leaf=False, feature=feature, threshold=threshold, left=left, right=right)


def gbt_from_text(text: str) -> BoostedTreesModel:
    r = BodyReader(text, GBT_FORMAT)
    config = BoostConfig(
        n_rounds=r.meta_value("n_rounds", int),
        learning_rate=r.meta_value("learning_rate", float),
        max_depth=r.meta_value("max_depth", int),
        reg_lambda=r.meta_value("reg_lambda", float),
    )
    n_features = r.meta_count("n_features", 0)
    trees: list[RegressionTree] = []
    for i in range(config.n_rounds):
        header = r.fields(f"tree {i} header", sep=" ")
        if header[:2] != ["tree", str(i)] or len(header) != 3:
            raise r.error(f"expected header 'tree {i} <n_nodes>'")
        (n_nodes,) = r.parse(int, header[2])
        if n_nodes < 1:
            raise r.error(f"tree {i} has no nodes")
        nodes = [_node_from_fields(r, k, n_nodes, n_features) for k in range(n_nodes)]
        trees.append(RegressionTree(tuple(nodes)))
    r.end()
    return BoostedTreesModel(tuple(trees), r.meta_value("base_score", float), config, n_features)


def save_gbt(model: BoostedTreesModel, path) -> None:
    Path(path).write_text(gbt_to_text(model), encoding="utf-8")


def load_gbt(path) -> BoostedTreesModel:
    return parse_file(path, gbt_from_text)
