"""Multinomial Naive Bayes trained on count or TF-IDF features.

Classes are binary with 1 = fake (the positive class) and 0 = real. The
class axis everywhere is ordered [fake, real] so that argmax ties resolve
deterministically toward fake.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..errors import DataError
from ..fileio import BodyReader, float_rows, parse_file
from ..vectorize import DocTermMatrix
from ._labels import binary_labels

NB_FORMAT = "satira-nb v1"

# class axis order: positive (fake=1) first
CLASS_ORDER = (1, 0)


@dataclass(frozen=True)
class NaiveBayesModel:
    class_log_prior: np.ndarray  # (2,) ordered [fake, real]
    feature_log_prob: np.ndarray  # (2, n_features) log P(feature | class)
    alpha: float

    @property
    def n_features(self) -> int:
        return self.feature_log_prob.shape[1]


def _entry_rows(X: DocTermMatrix) -> np.ndarray:
    return np.repeat(np.arange(X.n_rows), np.diff(X.indptr))


def nb_fit(X: DocTermMatrix, y, alpha: float = 1.0) -> NaiveBayesModel:
    """Estimate smoothed per-class feature likelihoods and class priors.

    feature_log_prob[c][f] = log((count(f, c) + alpha) / (total(c) + alpha * n_features))
    """
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    y = binary_labels(y, X.n_rows, "matrix rows")
    if (X.values < 0).any():
        raise DataError("feature values must be non-negative")

    n = len(y)
    rows = _entry_rows(X)
    entry_class = y[rows]
    counts = np.empty((2, X.n_cols), dtype=np.float64)
    priors = np.empty(2, dtype=np.float64)
    for ci, cls in enumerate(CLASS_ORDER):
        n_c = int((y == cls).sum())
        if n_c == 0:
            raise DataError(f"class {cls} absent from training labels")
        priors[ci] = math.log(n_c / n)
        mask = entry_class == cls
        counts[ci] = np.bincount(
            X.indices[mask], weights=X.values[mask], minlength=X.n_cols
        )
    totals = counts.sum(axis=1, keepdims=True)
    # single log of the smoothed ratio: equal probabilities stay bitwise
    # equal across classes, so prediction ties resolve consistently
    feature_log_prob = np.log((counts + alpha) / (totals + alpha * X.n_cols))
    return NaiveBayesModel(priors, feature_log_prob, alpha)


def nb_joint_scores(model: NaiveBayesModel, X: DocTermMatrix) -> np.ndarray:
    """Per-class log joint scores, columns ordered [fake, real]."""
    if X.n_cols != model.n_features:
        raise DataError(
            f"matrix has {X.n_cols} features, model expects {model.n_features}"
        )
    rows = _entry_rows(X)
    scores = np.tile(model.class_log_prior, (X.n_rows, 1))
    for ci in range(2):
        contrib = X.values * model.feature_log_prob[ci][X.indices]
        scores[:, ci] += np.bincount(rows, weights=contrib, minlength=X.n_rows)
    return scores


# score ties resolve toward fake; detected at 1e-9 relative so that
# mathematically equal joint scores stay tied despite summation-order noise
TIE_RTOL = 1e-9


def nb_predict(model: NaiveBayesModel, X: DocTermMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Predicted 0/1 labels plus the per-class log joint scores.

    Fake wins unless the real-class score leads by more than TIE_RTOL
    relative, making the tie-break toward fake robust to float rounding.
    """
    scores = nb_joint_scores(model, X)
    gap = scores[:, 0] - scores[:, 1]  # fake minus real
    scale = np.maximum(1.0, np.abs(scores).max(axis=1))
    labels = (gap >= -TIE_RTOL * scale).astype(np.int64)
    return labels, scores


def nb_to_text(model: NaiveBayesModel) -> str:
    lines = [
        f"# {NB_FORMAT}",
        f"# alpha={model.alpha!r} n_features={model.n_features}",
        "prior\t" + float_rows(model.class_log_prior, "\t")[0],
    ]
    rows = float_rows(model.feature_log_prob.T, "\t")
    lines.extend(f"{j}\t{row}" for j, row in enumerate(rows))
    return "".join(line + "\n" for line in lines)


def nb_from_text(text: str) -> NaiveBayesModel:
    r = BodyReader(text, NB_FORMAT)
    alpha = r.meta_value("alpha", float)
    n_features = r.meta_count("n_features", 0)
    priors = r.floats("row", 2, "prior", "\t")
    # exactly n_features rows, labelled with their column index in order
    rows = [r.floats("feature index", 2, str(j), "\t") for j in range(n_features)]
    r.end()
    feature_log_prob = np.array(rows, dtype=np.float64).reshape(n_features, 2).T.copy()
    return NaiveBayesModel(priors, feature_log_prob, alpha)


def save_nb(model: NaiveBayesModel, path) -> None:
    Path(path).write_text(nb_to_text(model), encoding="utf-8")


def load_nb(path) -> NaiveBayesModel:
    return parse_file(path, nb_from_text)
