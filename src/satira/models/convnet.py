"""1-D convolutional text classifier over frozen pretrained embeddings.

Architecture: embedding lookup (row 0 = padding/OOV, all zero) -> valid
1-D convolution -> ReLU -> per-filter global max pool -> single dense
sigmoid unit. Trained with mini-batch Adam on binary cross-entropy; the
embedding matrix is never updated. During training the conv weights, conv
bias, dense weights and dense bias are views into one float64 vector, which
Adam updates in place; only the learning rate is set, the betas and eps are
fixed at ``BETA1``, ``BETA2`` and ``EPS``. Everything runs in double
precision so finite-difference gradient checks are meaningful. Inference
projects the whole embedding through the filters once per call, so a
sequence's probability depends only on it and the model; ``PREDICT_CHUNK``
only bounds the memory of a call.

Every weight is finite. A model is saved as ``satira-cnn v2`` text: a
``<name> <shape>`` line per matrix, then one line per leading index holding
the base64 of that row's little-endian float64 bytes, or ``0`` for a row
whose bytes are all zero (the OOV row and the row of every token without a
pretrained vector). Every value reads back bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterator

import numpy as np

from ..errors import DataError
from ..fileio import BodyReader, base64_rows, parse_file
from ._labels import binary_labels
from .boosted_trees import logistic_loss, sigmoid

CNN_FORMAT = "satira-cnn v2"

# sequences per pass in cnn_predict: bounds its memory, changes no probability
PREDICT_CHUNK = 16

TRAINABLE = ("conv_weights", "conv_bias", "dense_weights", "dense_bias")


# Adam's decay rates and epsilon (Kingma & Ba 2015); only the learning rate is set
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 10
    batch_size: int = 10
    learning_rate: float = 1e-3
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate}")


@dataclass(frozen=True)
class ConvNetModel:
    embedding: np.ndarray  # (V, d) frozen
    conv_weights: np.ndarray  # (n_filters, kernel_size, d)
    conv_bias: np.ndarray  # (n_filters,)
    dense_weights: np.ndarray  # (n_filters,)
    dense_bias: float
    max_sequence_length: int

    def __post_init__(self):
        if np.any(self.embedding[0] != 0.0):
            raise ValueError("embedding row 0 is reserved for padding/OOV and must be zero")
        for name in ("embedding", *TRAINABLE):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"{name} must be finite")
        if self.max_sequence_length < self.kernel_size:
            raise ValueError(f"max_sequence_length {self.max_sequence_length} "
                             f"must be >= kernel_size {self.kernel_size}")

    @property
    def vocab_size(self) -> int:
        return self.embedding.shape[0]

    @property
    def n_filters(self) -> int:
        return self.conv_weights.shape[0]

    @property
    def kernel_size(self) -> int:
        return self.conv_weights.shape[1]


def init_convnet(
    embedding: np.ndarray,
    n_filters: int = 126,
    kernel_size: int = 5,
    max_sequence_length: int = 400,
    seed: int = 0,
) -> ConvNetModel:
    """Glorot-uniform conv/dense weights, zero biases, frozen embeddings."""
    embedding = np.asarray(embedding, dtype=np.float64)
    if embedding.ndim != 2:
        raise ValueError("embedding must be a 2-D matrix")
    d = embedding.shape[1]
    for name, value in (("n_filters", n_filters), ("kernel_size", kernel_size),
                        ("embedding width", d)):
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")
    rng = np.random.default_rng(seed)
    conv_limit = np.sqrt(6.0 / (kernel_size * d + n_filters))
    dense_limit = np.sqrt(6.0 / (n_filters + 1))
    return ConvNetModel(
        embedding=embedding,
        conv_weights=rng.uniform(-conv_limit, conv_limit, size=(n_filters, kernel_size, d)),
        conv_bias=np.zeros(n_filters, dtype=np.float64),
        dense_weights=rng.uniform(-dense_limit, dense_limit, size=n_filters),
        dense_bias=0.0,
        max_sequence_length=max_sequence_length,
    )


def _check_ids(model: ConvNetModel, ids: np.ndarray) -> np.ndarray:
    ids = np.asarray(ids, dtype=np.int64)
    if ids.ndim == 1:
        ids = ids[None, :]
    if ids.shape[1] != model.max_sequence_length:
        raise DataError(
            f"sequences must be padded to length {model.max_sequence_length}, "
            f"got {ids.shape[1]}"
        )
    if ids.size and (ids.min() < 0 or ids.max() >= model.vocab_size):
        raise DataError(
            f"token ids must lie in [0, {model.vocab_size}), "
            f"got range [{ids.min()}, {ids.max()}]"
        )
    return ids


def _project(model: ConvNetModel, rows: np.ndarray) -> np.ndarray:
    """(n, K, F) array Y of embedding rows: Y[u, j] = rows[u] @ conv_weights[:, j].T."""
    F, K, d = model.conv_weights.shape
    w_all = model.conv_weights.transpose(2, 1, 0).reshape(d, K * F)
    return (rows @ w_all).reshape(len(rows), K, F)


def _preactivations(model: ConvNetModel, Y: np.ndarray, index: np.ndarray) -> np.ndarray:
    """(B, T, F), T = L - K + 1: window t of row b is the bias plus the sum over
    offsets j of Y[index[b, t + j], j], so no (B, T, K*d) window tensor is built."""
    K = model.kernel_size
    T = index.shape[1] - K + 1
    z = Y[index[:, :T], 0]
    for j in range(1, K):
        z += Y[index[:, j : j + T], j]
    z += model.conv_bias
    return z


def _used_columns(ids: np.ndarray, kernel_size: int) -> int:
    """How many leading columns of ``ids`` the windows need: those up to and
    including the first window that starts after the last non-zero id (it may
    exceed the width). Every later window reads only id 0 too, so its
    pre-activation is bitwise equal to that first one's, and max and argmax,
    which keep the first of equal values, give the same results without it."""
    used = np.flatnonzero(ids.any(axis=0))
    return (used[-1] + 1 if len(used) else 0) + kernel_size


def _logits(model: ConvNetModel, Y: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Logits from ``Y``, the whole embedding projected. The dense layer is a sum per
    row, not a BLAS product, so no logit depends on the rows beside it."""
    ids = ids[:, :_used_columns(ids, model.kernel_size)]
    pooled = np.maximum(_preactivations(model, Y, ids).max(axis=1), 0.0)
    return (pooled * model.dense_weights).sum(axis=1) + model.dense_bias


def cnn_forward(model: ConvNetModel, token_ids) -> float:
    """Probability of the positive (fake) class for one padded sequence, as
    ``cnn_predict`` gives it."""
    return float(cnn_predict(model, token_ids)[0][0])


def cnn_gradients(model: ConvNetModel, ids: np.ndarray, y: np.ndarray):
    """Analytic mean-BCE gradients for every trainable parameter."""
    ids = _check_ids(model, ids)
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    B = len(ids)
    F, K, d = model.conv_weights.shape
    # the weights change every step, so only this batch's distinct tokens are projected;
    # they are taken from every column, so the trim below leaves the projection as it is
    tokens, inverse = np.unique(ids, return_inverse=True)
    index = inverse.reshape(ids.shape)[:, :_used_columns(ids, K)]
    activations = _preactivations(model, _project(model, model.embedding[tokens]), index)
    np.maximum(activations, 0.0, out=activations)  # the ReLU, in place
    arg_top = np.argmax(activations, axis=1)  # (B, F) first max wins
    pooled = activations[np.arange(B)[:, None], arg_top, np.arange(F)]  # (B, F)
    # freed before the backward pass allocates: kept, it made a training step 6% slower
    del activations
    logits = pooled @ model.dense_weights + model.dense_bias

    d_logit = (sigmoid(logits) - y) / B  # (B,)
    d_dense_w = pooled.T @ d_logit
    d_dense_b = float(d_logit.sum())

    # max pool routes each filter's gradient to its winning window; the
    # ReLU gate kills it when that window's pre-activation is <= 0
    d_pooled = d_logit[:, None] * model.dense_weights[None, :]  # (B, F)
    d_top = d_pooled * (pooled > 0.0)  # (B, F)

    # gather only each filter's winning window, straight from the embedding
    rows = np.arange(B)[:, None, None]
    positions = arg_top[:, :, None] + np.arange(K)  # (B, F, K)
    win_top = model.embedding[ids[rows, positions]].reshape(B, F, K * d)
    d_conv_w = np.einsum("bf,bfk->fk", d_top, win_top).reshape(F, K, d)
    d_conv_b = d_top.sum(axis=0)

    grads = (d_conv_w, d_conv_b, d_dense_w, d_dense_b)
    return logistic_loss(logits, y), dict(zip(TRAINABLE, grads))


def grad_check(model: ConvNetModel, token_ids, y, h: float = 1e-5) -> float:
    """Max relative error of analytic vs central-difference gradients."""
    ids = _check_ids(model, token_ids)
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    _, grads = cnn_gradients(model, ids, y)

    def loss_with(name: str, i: int, step: float) -> float:
        """Inference loss with value i of ``name`` moved by ``step``."""
        value = np.array(getattr(model, name), dtype=np.float64)  # a copy; 0-d for dense_bias
        value.reshape(-1)[i] += step
        bumped = replace(model, **{name: value if value.ndim else float(value)})
        return logistic_loss(_logits(bumped, _project(bumped, bumped.embedding), ids), y)

    worst = 0.0
    for name in TRAINABLE:
        analytic = np.ravel(grads[name])
        numeric = np.array([(loss_with(name, i, h) - loss_with(name, i, -h)) / (2.0 * h)
                            for i in range(analytic.size)])
        err = np.abs(analytic - numeric)
        scale = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-6)
        worst = max(worst, float((err / scale).max()))
    return worst


def cnn_train(
    model: ConvNetModel, ids, y, cfg: TrainConfig = TrainConfig()
) -> tuple[ConvNetModel, list[float]]:
    """Mini-batch Adam on BCE; embeddings stay frozen.

    Returns a trained copy of the model (the input is untouched) plus the
    mean training loss per epoch. Deterministic for a fixed seed: the
    shuffle stream is seeded per call.
    """
    ids = _check_ids(model, ids)
    y = binary_labels(y, len(ids), "sequences")
    if cfg.epochs > 0 and len(np.unique(y)) < 2:
        raise DataError("training needs at least one example of each class")

    # one vector holds every trainable value; the model being trained views it
    theta = np.concatenate([np.ravel(getattr(model, name)) for name in TRAINABLE],
                           dtype=np.float64)
    views, offset = {}, 0
    for name in TRAINABLE:
        shape = np.shape(getattr(model, name))
        stop = offset + math.prod(shape)
        views[name] = theta[offset:stop].reshape(shape)  # dense_bias: a 0-d view
        offset = stop
    current = replace(model, **views)
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    rng = np.random.default_rng(cfg.seed)
    history: list[float] = []
    n = len(y)
    t = 0  # Adam steps taken
    for epoch in range(cfg.epochs):
        perm = rng.permutation(n)
        total = 0.0
        for start in range(0, n, cfg.batch_size):
            batch = perm[start : start + cfg.batch_size]
            loss, grads = cnn_gradients(current, ids[batch], y[batch])
            if np.isnan(loss):
                raise ArithmeticError(
                    f"nan training loss at epoch {epoch}, batch {start // cfg.batch_size}"
                )
            total += loss * len(batch)
            g = np.concatenate([np.ravel(grads[name]) for name in TRAINABLE])
            # Adam (Kingma & Ba 2015, Algorithm 1), element by element
            t += 1
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * g * g
            theta -= (cfg.learning_rate * (m / (1.0 - BETA1**t))
                      / (np.sqrt(v / (1.0 - BETA2**t)) + EPS))
        history.append(total / n)
    return replace(current, dense_bias=float(current.dense_bias)), history


def cnn_predict(model: ConvNetModel, ids) -> tuple[np.ndarray, np.ndarray]:
    """Batch probabilities and 0/1 labels at the 0.5 threshold.

    Projects the whole embedding once, then runs ``PREDICT_CHUNK`` sequences
    at a time, so peak memory does not grow with the number of sequences.
    """
    ids = _check_ids(model, ids)
    Y = _project(model, model.embedding)
    logits = np.empty(len(ids), dtype=np.float64)
    for start in range(0, len(ids), PREDICT_CHUNK):
        chunk = slice(start, start + PREDICT_CHUNK)
        logits[chunk] = _logits(model, Y, ids[chunk])
    proba = sigmoid(logits)
    return proba, (proba >= 0.5).astype(np.int64)


def cnn_to_text(model: ConvNetModel) -> Iterator[str]:
    """The model's ``satira-cnn v2`` text, a line at a time, never held whole."""
    yield f"# {CNN_FORMAT}\n"
    yield (f"# vocab={model.vocab_size} dim={model.embedding.shape[1]} "
           f"filters={model.n_filters} kernel={model.kernel_size} "
           f"max_len={model.max_sequence_length}\n")
    # matrices: a "<name> <shape>" section line, then one line per leading index
    for name in ("embedding", "conv_weights"):
        matrix = getattr(model, name)
        yield " ".join([name, *map(str, matrix.shape)]) + "\n"
        yield from (row + "\n" for row in base64_rows(matrix))
    for name in ("conv_bias", "dense_weights", "dense_bias"):
        (row,) = base64_rows(getattr(model, name))
        yield f"{name} {row}\n"


def cnn_from_text(text: str) -> ConvNetModel:
    r = BodyReader(text, CNN_FORMAT)
    V, d, F, K, max_len = (
        r.meta_value(key, int) for key in ("vocab", "dim", "filters", "kernel", "max_len")
    )
    if min(V, d, F, K, max_len) < 1:
        raise DataError("header counts vocab, dim, filters, kernel and max_len must be positive")

    def read_matrix(name: str, shape: tuple[int, ...]) -> np.ndarray:
        expected = " ".join([name, *map(str, shape)])
        if r.fields(f"section {name!r}", sep=" ") != expected.split(" "):
            raise r.error(f"expected section header {expected!r}")
        if shape[0] > r.lines_left:
            raise r.error(f"{name} declares {shape[0]} rows, but the file has "
                          f"{r.lines_left} lines left")
        try:
            # zero-filled, so a zero row is never written and costs no memory
            matrix = np.zeros((shape[0], math.prod(shape[1:])), dtype=np.float64)
        except (ValueError, MemoryError) as exc:
            raise r.error(f"{name} of shape {shape} is too large to hold") from exc
        rows = r.table(f"{name} row", 1, sep=" ", rows=shape[0])
        rows.base64_floats(f"{name} row", 0, matrix)
        rows.check()
        return matrix.reshape(shape)

    def read_vector(name: str, size: int) -> np.ndarray:
        row = r.table(f"section {name}", 2, sep=" ", rows=1)
        row.labels("section", [name])
        vector = np.zeros((1, size), dtype=np.float64)
        row.base64_floats("section", 1, vector)
        row.check()
        return vector[0]

    model = ConvNetModel(
        embedding=read_matrix("embedding", (V, d)),
        conv_weights=read_matrix("conv_weights", (F, K, d)),
        conv_bias=read_vector("conv_bias", F),
        dense_weights=read_vector("dense_weights", F),
        dense_bias=float(read_vector("dense_bias", 1)[0]),
        max_sequence_length=max_len,
    )
    r.end()
    return model


def save_cnn(model: ConvNetModel, path) -> None:
    with Path(path).open("w", encoding="utf-8") as f:
        f.writelines(cnn_to_text(model))


def load_cnn(path) -> ConvNetModel:
    return parse_file(path, cnn_from_text)
