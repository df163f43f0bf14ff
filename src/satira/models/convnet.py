"""1-D convolutional text classifier over frozen pretrained embeddings.

Architecture: embedding lookup (row 0 = padding/OOV, all zero) -> valid
1-D convolution -> ReLU -> per-filter global max pool -> single dense
sigmoid unit. Trained with mini-batch Adam on binary cross-entropy; the
embedding matrix is never updated. During training the conv weights, conv
bias, dense weights and dense bias are views into one float64 vector, which
Adam updates in place; only the learning rate is set, the betas and eps are
fixed at ``BETA1``, ``BETA2`` and ``EPS``. Everything runs in double
precision so finite-difference gradient checks are meaningful.

A model is saved as ``satira-cnn v2`` text: a ``<name> <shape>`` line per
matrix, then one line per leading index holding the base64 of that row's
little-endian float64 bytes, or ``0`` for a row whose bytes are all zero
(the OOV row and the row of every token without a pretrained vector).
Every value reads back bit for bit. ``satira-cnn v1`` files, which hold
each float as its shortest ``repr``, are still read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from ..errors import DataError
from ..fileio import BodyReader, base64_rows, parse_file
from ._labels import binary_labels
from .boosted_trees import logistic_loss, sigmoid

CNN_FORMAT = "satira-cnn v2"
# the same layout with ``repr`` floats (fileio.float_rows); read, no longer written
CNN_FORMAT_V1 = "satira-cnn v1"

# sequences per forward pass in cnn_predict
PREDICT_CHUNK = 64

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


def _forward_batch(model: ConvNetModel, ids: np.ndarray):
    """Logits plus the caches backprop needs.

    The embeddings are frozen, so each distinct token of the batch is
    projected through all K kernel offsets once: Y[u, j] = embedding[u] @
    conv_weights[:, j].T. The pre-activation of window t is then the sum
    over offsets j of Y at the token in position t + j, so no (B, T, K*d)
    window tensor is built. T = L - K + 1.
    """
    B, L = ids.shape
    K = model.kernel_size
    F = model.n_filters
    d = model.embedding.shape[1]
    T = L - K + 1
    tokens, inverse = np.unique(ids, return_inverse=True)
    inverse = inverse.reshape(B, L)
    w_all = model.conv_weights.transpose(2, 1, 0).reshape(d, K * F)
    Y = (model.embedding[tokens] @ w_all).reshape(len(tokens), K, F)
    z = Y[inverse[:, :T], 0]  # (B, T, F)
    for j in range(1, K):
        z += Y[inverse[:, j : j + T], j]
    z += model.conv_bias
    activations = np.maximum(z, 0.0)
    arg_top = np.argmax(activations, axis=1)  # (B, F) first max wins
    rows = np.arange(B)[:, None]
    cols = np.arange(F)[None, :]
    pooled = activations[rows, arg_top, cols]  # (B, F)
    z_top = z[rows, arg_top, cols]
    logits = pooled @ model.dense_weights + model.dense_bias
    cache = (z_top, pooled, arg_top)
    return logits, cache


def cnn_forward(model: ConvNetModel, token_ids) -> float:
    """Probability of the positive (fake) class for one padded sequence."""
    ids = _check_ids(model, token_ids)
    logits, _ = _forward_batch(model, ids)
    return float(sigmoid(logits)[0])


def cnn_gradients(model: ConvNetModel, ids: np.ndarray, y: np.ndarray):
    """Analytic mean-BCE gradients for every trainable parameter."""
    ids = _check_ids(model, ids)
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    logits, (z_top, pooled, arg_top) = _forward_batch(model, ids)
    B, F = pooled.shape
    K = model.kernel_size
    d = model.embedding.shape[1]

    d_logit = (sigmoid(logits) - y) / B  # (B,)
    d_dense_w = pooled.T @ d_logit
    d_dense_b = float(d_logit.sum())

    # max pool routes each filter's gradient to its winning window; the
    # ReLU gate kills it when that window's pre-activation is <= 0
    d_pooled = d_logit[:, None] * model.dense_weights[None, :]  # (B, F)
    gate = (z_top > 0.0).astype(np.float64)
    d_z_top = d_pooled * gate  # (B, F)

    # gather only each filter's winning window, straight from the embedding
    rows = np.arange(B)[:, None, None]
    positions = arg_top[:, :, None] + np.arange(K)  # (B, F, K)
    win_top = model.embedding[ids[rows, positions]].reshape(B, F, K * d)
    d_conv_w = np.einsum("bf,bfk->fk", d_z_top, win_top).reshape(F, K, d)
    d_conv_b = d_z_top.sum(axis=0)

    loss = logistic_loss(logits, y)
    grads = {
        "conv_weights": d_conv_w,
        "conv_bias": d_conv_b,
        "dense_weights": d_dense_w,
        "dense_bias": d_dense_b,
    }
    return loss, grads


def grad_check(model: ConvNetModel, token_ids, y, h: float = 1e-5) -> float:
    """Max relative error of analytic vs central-difference gradients."""
    ids = _check_ids(model, token_ids)
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    _, grads = cnn_gradients(model, ids, y)

    def loss_with(name: str, flat: np.ndarray) -> float:
        shape = np.shape(getattr(model, name))
        value = flat.reshape(shape) if shape else float(flat[0])
        logits, _ = _forward_batch(replace(model, **{name: value}), ids)
        return logistic_loss(logits, y)

    worst = 0.0
    for name in TRAINABLE:
        base = np.atleast_1d(np.asarray(getattr(model, name), dtype=np.float64)).reshape(-1)
        analytic = np.atleast_1d(np.asarray(grads[name], dtype=np.float64)).reshape(-1)
        numeric = np.empty_like(base)
        for i in range(base.size):
            bumped = base.copy()
            bumped[i] = base[i] + h
            plus = loss_with(name, bumped)
            bumped[i] = base[i] - h
            minus = loss_with(name, bumped)
            numeric[i] = (plus - minus) / (2.0 * h)
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

    Runs ``PREDICT_CHUNK`` sequences at a time, so peak memory does not
    grow with the number of sequences.
    """
    ids = _check_ids(model, ids)
    logits = np.empty(len(ids), dtype=np.float64)
    for start in range(0, len(ids), PREDICT_CHUNK):
        chunk = slice(start, start + PREDICT_CHUNK)
        logits[chunk], _ = _forward_batch(model, ids[chunk])
    proba = sigmoid(logits)
    return proba, (proba >= 0.5).astype(np.int64)


def cnn_to_text(model: ConvNetModel) -> str:
    lines = [
        f"# {CNN_FORMAT}",
        f"# vocab={model.vocab_size} dim={model.embedding.shape[1]} "
        f"filters={model.n_filters} kernel={model.kernel_size} "
        f"max_len={model.max_sequence_length}",
    ]
    # matrices: a "<name> <shape>" section line, then one line per leading index
    for name in ("embedding", "conv_weights"):
        matrix = getattr(model, name)
        lines.append(" ".join([name, *map(str, matrix.shape)]))
        lines.extend(base64_rows(matrix))
    for name in ("conv_bias", "dense_weights", "dense_bias"):
        lines.append(f"{name} " + base64_rows(getattr(model, name))[0])
    return "".join(line + "\n" for line in lines)


def cnn_from_text(text: str) -> ConvNetModel:
    r = BodyReader(text, CNN_FORMAT, CNN_FORMAT_V1)
    row = r.base64_floats if r.format == CNN_FORMAT else r.floats
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
            # zero-filled, so a v2 zero row is never written and costs no memory
            matrix = np.zeros((shape[0], math.prod(shape[1:])), dtype=np.float64)
        except (ValueError, MemoryError) as exc:
            raise r.error(f"{name} of shape {shape} is too large to hold") from exc
        for i in range(shape[0]):
            row(f"{name} row", matrix.shape[1], out=matrix[i])
        return matrix.reshape(shape)

    model = ConvNetModel(
        embedding=read_matrix("embedding", (V, d)),
        conv_weights=read_matrix("conv_weights", (F, K, d)),
        conv_bias=row("section", F, "conv_bias"),
        dense_weights=row("section", F, "dense_weights"),
        dense_bias=float(row("section", 1, "dense_bias")[0]),
        max_sequence_length=max_len,
    )
    r.end()
    return model


def save_cnn(model: ConvNetModel, path) -> None:
    Path(path).write_text(cnn_to_text(model), encoding="utf-8")


def load_cnn(path) -> ConvNetModel:
    return parse_file(path, cnn_from_text)
