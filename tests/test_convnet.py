import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from satira import DataError
from satira.fileio import LINE_BLOCK
from satira.models import (
    TrainConfig,
    cnn_forward,
    cnn_gradients,
    cnn_predict,
    cnn_train,
    encode_corpus,
    grad_check,
    init_convnet,
    logistic_loss,
    sigmoid,
)
from satira.models.convnet import (
    BETA1,
    BETA2,
    EPS,
    PREDICT_CHUNK,
    TRAINABLE,
    _logits,
    _preactivations,
    _project,
    cnn_from_text,
    cnn_to_text,
    load_cnn,
    save_cnn,
)

# tiny_model(71, vocab=4, dim=2, filters=2, kernel=2, seq_len=4) with
# embedding row 2 zeroed and non-zero biases
CNN_TEXT = """\
# satira-cnn v2
# vocab=4 dim=2 filters=2 kernel=2 max_len=4
embedding 4 2
0
cOeBbnkvrL94t5Cr6sqmvw==
0
5mLFRrgVxj/oygbSv7vmvw==
conv_weights 2 2 2
PPR89x2f5T9+kJmBopLvvwoo56fzL+G/Agj7ZV2w6L8=
6LA60DuY2z+0ELLgAkPYvxA4aW1NxMI/cg4MCNKt7L8=
conv_bias AAAAAAAA0D+DtjrSlxKwgQ==
dense_weights fqFsPknj4r9b4N8h9Ib0Pw==
dense_bias AAAAAAAAwD8=
"""


def model_text(model) -> str:
    """The whole text ``cnn_to_text`` yields a piece at a time."""
    return "".join(cnn_to_text(model))


def tiny_model(seed=0, vocab=20, dim=8, filters=4, kernel=3, seq_len=7):
    rng = np.random.default_rng(seed)
    embedding = rng.normal(0, 0.5, size=(vocab, dim))
    embedding[0] = 0.0
    return init_convnet(
        embedding,
        n_filters=filters,
        kernel_size=kernel,
        max_sequence_length=seq_len,
        seed=seed + 1,
    )


def oracle_forward(model, ids):
    """Direct triple-loop convolution, independent of the vectorized path."""
    F, K, d = model.conv_weights.shape
    L = len(ids)
    pooled = []
    for f in range(F):
        best = None
        for t in range(L - K + 1):
            z = float(model.conv_bias[f])
            for j in range(K):
                for m in range(d):
                    z += float(model.conv_weights[f, j, m]) * float(
                        model.embedding[ids[t + j], m]
                    )
            a = z if z > 0.0 else 0.0
            best = a if best is None or a > best else best
        pooled.append(best)
    logit = float(model.dense_bias)
    for f in range(F):
        logit += float(model.dense_weights[f]) * pooled[f]
    return 1.0 / (1.0 + math.exp(-logit))


class TestForward:
    def test_all_pad_gives_sigmoid_of_dense_bias(self):
        model = tiny_model()
        assert np.all(model.conv_bias == 0.0)
        ids = np.zeros(model.max_sequence_length, dtype=np.int64)
        expected = 1.0 / (1.0 + math.exp(-model.dense_bias))
        assert cnn_forward(model, ids) == pytest.approx(expected, abs=1e-15)

    def test_output_strictly_in_unit_interval(self):
        model = tiny_model(3)
        rng = np.random.default_rng(4)
        for _ in range(1000):
            ids = rng.integers(0, model.vocab_size, size=model.max_sequence_length)
            p = cnn_forward(model, ids)
            assert 0.0 < p < 1.0

    def test_matches_direct_summation_oracle(self):
        rng = np.random.default_rng(9)
        for seed in range(5):
            model = tiny_model(seed)
            ids = rng.integers(0, model.vocab_size, size=model.max_sequence_length)
            assert cnn_forward(model, ids) == pytest.approx(
                oracle_forward(model, ids), abs=1e-10
            )

    def test_id_out_of_range_rejected(self):
        model = tiny_model()
        ids = np.zeros(model.max_sequence_length, dtype=np.int64)
        ids[0] = model.vocab_size
        with pytest.raises(DataError, match="token ids"):
            cnn_forward(model, ids)

    def test_wrong_length_rejected(self):
        model = tiny_model()
        with pytest.raises(DataError, match="padded"):
            cnn_forward(model, np.zeros(3, dtype=np.int64))

    def test_nonzero_pad_row_rejected_at_init(self):
        rng = np.random.default_rng(0)
        embedding = rng.normal(size=(5, 4))
        with pytest.raises(ValueError, match="row 0"):
            init_convnet(embedding, n_filters=2, kernel_size=2, max_sequence_length=4)


def im2col_forward(model, ids):
    """Logits and backprop caches through an explicit (B, T, K*d) window tensor."""
    B, L = ids.shape
    F, K, d = model.conv_weights.shape
    T = L - K + 1
    X = model.embedding[ids]
    windows = np.empty((B, T, K * d))
    for j in range(K):
        windows[:, :, j * d : (j + 1) * d] = X[:, j : j + T, :]
    z = windows @ model.conv_weights.reshape(F, K * d).T + model.conv_bias
    arg_top = np.argmax(np.maximum(z, 0.0), axis=1)
    z_top = z[np.arange(B)[:, None], arg_top, np.arange(F)[None, :]]
    pooled = np.maximum(z_top, 0.0)
    logits = pooled @ model.dense_weights + model.dense_bias
    return logits, windows, z_top, pooled, arg_top


def im2col_gradients(model, ids, y):
    logits, windows, z_top, pooled, arg_top = im2col_forward(model, ids)
    B, F = pooled.shape
    d_logit = (1.0 / (1.0 + np.exp(-logits)) - y) / B
    d_z_top = d_logit[:, None] * model.dense_weights[None, :] * (z_top > 0.0)
    win_top = windows[np.arange(B)[:, None], arg_top, :]
    return {
        "conv_weights": np.einsum("bf,bfk->fk", d_z_top, win_top).reshape(
            model.conv_weights.shape
        ),
        "conv_bias": d_z_top.sum(axis=0),
        "dense_weights": pooled.T @ d_logit,
        "dense_bias": float(d_logit.sum()),
    }


def mixed_batch(model, rng):
    """PREDICT_CHUNK + 1 sequences: repeats, an all-padding row, OOV (id 0) rows."""
    L = model.max_sequence_length
    ids = rng.integers(0, model.vocab_size, size=(PREDICT_CHUNK + 1, L))
    ids[1] = 0  # all padding
    ids[2] = 5  # one token repeated
    ids[3, ::2] = 0  # OOV between known tokens
    ids[4, L // 2 :] = 0  # short document, right-padded
    ids[5] = ids[6]  # a repeated document
    ids[PREDICT_CHUNK] = ids[0]  # same document on both sides of the chunk boundary
    return ids


class TestDeduplicatedForward:
    def test_predict_matches_per_sequence_forward(self):
        model = tiny_model(80)
        ids = mixed_batch(model, np.random.default_rng(81))
        proba, labels = cnn_predict(model, ids)
        single = np.array([cnn_forward(model, row) for row in ids])
        np.testing.assert_allclose(proba, single, rtol=0, atol=1e-12)
        assert np.array_equal(labels, (single >= 0.5).astype(np.int64))

    def test_predict_matches_direct_summation_oracle(self):
        model = tiny_model(82)
        ids = mixed_batch(model, np.random.default_rng(83))
        proba, _ = cnn_predict(model, ids)
        oracle = np.array([oracle_forward(model, row) for row in ids])
        np.testing.assert_allclose(proba, oracle, rtol=0, atol=1e-10)

    def test_inference_logits_match_im2col(self):
        model = tiny_model(84)
        ids = mixed_batch(model, np.random.default_rng(85))
        logits = _logits(model, _project(model, model.embedding), ids)
        np.testing.assert_allclose(logits, im2col_forward(model, ids)[0], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("chunk", [1, 7, PREDICT_CHUNK])
    def test_probability_depends_only_on_the_document(self, monkeypatch, chunk):
        # wide enough that a GEMM over a chunk's rows rounds each row by its neighbours
        model = tiny_model(91, vocab=300, dim=64, filters=32, kernel=3, seq_len=24)
        ids = mixed_batch(model, np.random.default_rng(92))
        ids[[8, 11, PREDICT_CHUNK - 1]] = ids[7]  # one document at several positions
        alone = [cnn_forward(model, row) for row in ids]
        monkeypatch.setattr("satira.models.convnet.PREDICT_CHUNK", chunk)
        proba, _ = cnn_predict(model, ids)
        assert [p.hex() for p in proba.tolist()] == [p.hex() for p in alone]

    def test_gradients_match_im2col(self):
        model = tiny_model(86)
        ids = mixed_batch(model, np.random.default_rng(87))
        y = np.arange(len(ids)) % 2.0
        _, grads = cnn_gradients(model, ids, y)
        expected = im2col_gradients(model, ids, y)
        for name, value in expected.items():
            np.testing.assert_allclose(grads[name], value, rtol=0, atol=1e-12, err_msg=name)

    def test_empty_corpus_predicts_nothing(self):
        model = tiny_model(88)
        ids = encode_corpus([], {}, model.max_sequence_length)
        assert ids.shape == (0, model.max_sequence_length) and ids.dtype == np.int64
        proba, labels = cnn_predict(model, ids)
        assert proba.shape == (0,) and labels.shape == (0,)

    def test_predict_peak_memory_flat_in_document_count(self):
        model = tiny_model(89, filters=16, seq_len=40)
        rng = np.random.default_rng(90)

        def peak(n_docs):
            ids = rng.integers(0, model.vocab_size, size=(n_docs, model.max_sequence_length))
            tracemalloc.start()
            try:
                cnn_predict(model, ids)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(4 * PREDICT_CHUNK) <= 1.25 * peak(PREDICT_CHUNK)


def full_window_gradients(model, ids, y):
    """cnn_gradients over every window, the trailing ones of padding alone included:
    the reference for dropping those windows."""
    y = np.asarray(y, dtype=np.float64)
    B = len(ids)
    F, K, d = model.conv_weights.shape
    tokens, inverse = np.unique(ids, return_inverse=True)
    activations = _preactivations(model, _project(model, model.embedding[tokens]),
                                  inverse.reshape(ids.shape))
    np.maximum(activations, 0.0, out=activations)
    arg_top = np.argmax(activations, axis=1)
    pooled = activations[np.arange(B)[:, None], arg_top, np.arange(F)]
    logits = pooled @ model.dense_weights + model.dense_bias
    d_logit = (sigmoid(logits) - y) / B
    d_top = d_logit[:, None] * model.dense_weights[None, :] * (pooled > 0.0)
    positions = arg_top[:, :, None] + np.arange(K)
    win_top = model.embedding[ids[np.arange(B)[:, None, None], positions]].reshape(B, F, K * d)
    grads = (np.einsum("bf,bfk->fk", d_top, win_top).reshape(F, K, d), d_top.sum(axis=0),
             pooled.T @ d_logit, float(d_logit.sum()))
    return logistic_loss(logits, y), dict(zip(TRAINABLE, grads))


def full_window_logits(model, ids):
    Y = _project(model, model.embedding)
    pooled = np.maximum(_preactivations(model, Y, ids).max(axis=1), 0.0)
    return (pooled * model.dense_weights).sum(axis=1) + model.dense_bias


def padded_batch(model, rng, lengths):
    """One row per length: that many random ids (some of them 0, for OOV), then padding."""
    ids = np.zeros((len(lengths), model.max_sequence_length), dtype=np.int64)
    for row, n in zip(ids, lengths):
        row[:n] = rng.integers(0, model.vocab_size, size=n)
    return ids


class TestTrailingPaddingWindows:
    """Windows after the batch's last non-zero id are dropped, but for the first;
    every result stays bitwise equal to the one over all windows."""

    @pytest.mark.parametrize("shape", ["full", "ragged", "ends_in_oov", "all_padding"])
    def test_bitwise_equal_to_every_window(self, shape):
        model = tiny_model(93, vocab=40, dim=6, filters=12, kernel=3, seq_len=30)
        rng = np.random.default_rng(94)
        # with positive vectors and biases, the filters of negative weights peak at
        # a window of padding alone
        weights = model.conv_weights.copy()
        weights[::2] = -np.abs(weights[::2])
        model = replace(model, embedding=np.abs(model.embedding), conv_weights=weights,
                        conv_bias=rng.uniform(0.1, 0.5, size=model.n_filters))
        ids = padded_batch(model, rng, {"full": [30, 12, 7], "ragged": [9, 17, 4, 1],
                                        "ends_in_oov": [6, 19, 3], "all_padding": [0, 0]}[shape])
        if shape == "ends_in_oov":
            ids[1, 11:19] = 0  # the longest document's last 8 tokens have no id
        y = np.arange(len(ids)) % 2.0
        loss, grads = cnn_gradients(model, ids, y)
        expected_loss, expected = full_window_gradients(model, ids, y)
        assert loss.hex() == expected_loss.hex()
        for name in TRAINABLE:
            assert np.asarray(grads[name]).tobytes() == np.asarray(expected[name]).tobytes(), name
        logits = _logits(model, _project(model, model.embedding), ids)
        assert logits.tobytes() == full_window_logits(model, ids).tobytes()


class TestGradients:
    def test_grad_check_random_instances(self):
        rng = np.random.default_rng(12)
        for seed in range(4):
            model = tiny_model(seed + 20)
            ids = rng.integers(0, model.vocab_size, size=(1, model.max_sequence_length))
            y = np.array([float(seed % 2)])
            assert grad_check(model, ids, y) < 1e-4

    def test_dense_bias_gradient_tight(self):
        model = tiny_model(31)
        rng = np.random.default_rng(32)
        ids = rng.integers(0, model.vocab_size, size=(1, model.max_sequence_length))
        y = np.array([1.0])
        _, grads = cnn_gradients(model, ids, y)
        h = 1e-6

        def loss_at(bias):
            bumped = replace(model, dense_bias=bias)
            return logistic_loss(_logits(bumped, _project(bumped, bumped.embedding), ids), y)

        numeric = (loss_at(model.dense_bias + h) - loss_at(model.dense_bias - h)) / (2 * h)
        assert grads["dense_bias"] == pytest.approx(numeric, abs=1e-7)

    def test_zero_weight_model_bias_gradient_is_p_minus_y(self):
        model = tiny_model(40)
        zeroed = model.__class__(
            embedding=model.embedding,
            conv_weights=np.zeros_like(model.conv_weights),
            conv_bias=np.zeros_like(model.conv_bias),
            dense_weights=np.zeros_like(model.dense_weights),
            dense_bias=0.0,
            max_sequence_length=model.max_sequence_length,
        )
        ids = np.ones((1, model.max_sequence_length), dtype=np.int64)
        for y in (0.0, 1.0):
            _, grads = cnn_gradients(zeroed, ids, np.array([y]))
            assert grads["dense_bias"] == 0.5 - y  # p = sigmoid(0) = 0.5 exactly


def disjoint_token_ids(n_per_class, seq_len, vocab_half, rng):
    """Class 1 uses ids [1, half], class 0 uses (half, 2*half]."""
    ids = np.zeros((2 * n_per_class, seq_len), dtype=np.int64)
    y = np.zeros(2 * n_per_class)
    for i in range(2 * n_per_class):
        cls = i % 2
        lo = 1 if cls == 1 else vocab_half + 1
        length = int(rng.integers(seq_len // 2, seq_len + 1))
        ids[i, :length] = rng.integers(lo, lo + vocab_half, size=length)
        y[i] = cls
    return ids, y


class TestTraining:
    def test_separable_reaches_full_accuracy(self):
        rng = np.random.default_rng(50)
        vocab_half = 12
        embedding = rng.normal(0, 0.5, size=(2 * vocab_half + 1, 8))
        embedding[0] = 0.0
        model = init_convnet(embedding, n_filters=8, kernel_size=3,
                             max_sequence_length=12, seed=51)
        ids, y = disjoint_token_ids(20, 12, vocab_half, rng)
        cfg = TrainConfig(epochs=10, batch_size=10, learning_rate=0.01, seed=52)
        trained, history = cnn_train(model, ids, y, cfg)
        _, labels = cnn_predict(trained, ids)
        assert np.array_equal(labels, y.astype(np.int64))
        assert len(history) == 10

    def test_zero_epochs_identity(self):
        model = tiny_model(60)
        ids = np.ones((4, model.max_sequence_length), dtype=np.int64)
        y = np.array([1.0, 0.0, 1.0, 0.0])
        trained, history = cnn_train(model, ids, y, TrainConfig(epochs=0))
        assert history == []
        assert np.array_equal(trained.conv_weights, model.conv_weights)
        assert np.array_equal(trained.dense_weights, model.dense_weights)
        assert trained.dense_bias == model.dense_bias

    def test_same_seed_bitwise_identical_history(self):
        model = tiny_model(61)
        rng = np.random.default_rng(62)
        ids = rng.integers(0, model.vocab_size, size=(12, model.max_sequence_length))
        y = np.array([i % 2 for i in range(12)], dtype=float)
        cfg = TrainConfig(epochs=3, batch_size=4, seed=7)
        _, h1 = cnn_train(model, ids, y, cfg)
        _, h2 = cnn_train(model, ids, y, cfg)
        assert h1 == h2  # bitwise

    def test_embedding_frozen(self):
        model = tiny_model(63)
        before = model.embedding.copy()
        ids = np.ones((6, model.max_sequence_length), dtype=np.int64)
        y = np.array([1.0, 0.0, 1.0, 0.0, 1.0, 0.0])
        trained, _ = cnn_train(model, ids, y, TrainConfig(epochs=2, batch_size=3))
        assert np.array_equal(trained.embedding, before)
        assert np.array_equal(model.embedding, before)

    def test_input_model_untouched(self):
        model = tiny_model(64)
        conv_before = model.conv_weights.copy()
        ids = np.ones((4, model.max_sequence_length), dtype=np.int64)
        y = np.array([1.0, 0.0, 1.0, 0.0])
        cnn_train(model, ids, y, TrainConfig(epochs=1, batch_size=2))
        assert np.array_equal(model.conv_weights, conv_before)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_loss_reports_coordinates(self):
        # finite weights whose dense products overflow to +inf and -inf, as after divergence
        model = replace(tiny_model(65), conv_bias=np.full(4, 10.0),
                        dense_weights=np.array([1e308, -1e308, 1e308, -1e308]))
        ids = np.ones((2, model.max_sequence_length), dtype=np.int64)
        y = np.array([1.0, 0.0])
        with pytest.raises(ArithmeticError, match="epoch 0"):
            cnn_train(model, ids, y, TrainConfig(epochs=1, batch_size=2))

    @pytest.mark.parametrize("learning_rate", [math.nan, -1.0, 0.0, math.inf])
    def test_unusable_learning_rate_rejected(self, learning_rate):
        with pytest.raises(ValueError, match="learning_rate must be finite"):
            TrainConfig(learning_rate=learning_rate)

    def test_single_class_training_rejected(self):
        model = tiny_model(66)
        ids = np.ones((3, model.max_sequence_length), dtype=np.int64)
        with pytest.raises(DataError, match="each class"):
            cnn_train(model, ids, np.array([1.0, 1.0, 1.0]), TrainConfig(epochs=1))


def reference_adam_step(params, grads, state, lr):
    """Adam over a dict of per-parameter arrays, the scalar dense bias a float."""
    state["t"] += 1
    t = state["t"]
    for name in TRAINABLE:
        g = np.asarray(grads[name], dtype=np.float64)
        state["m"][name] = BETA1 * state["m"][name] + (1.0 - BETA1) * g
        state["v"][name] = BETA2 * state["v"][name] + (1.0 - BETA2) * g * g
        m_hat = state["m"][name] / (1.0 - BETA1**t)
        v_hat = state["v"][name] / (1.0 - BETA2**t)
        update = lr * m_hat / (np.sqrt(v_hat) + EPS)
        if np.shape(params[name]):
            params[name] = params[name] - update
        else:
            params[name] = float(params[name] - update)
    return params


def reference_train(model, ids, y, cfg):
    """Oracle for cnn_train: one copy per parameter and a new model per batch."""
    y = np.asarray(y, dtype=np.float64)
    params = {name: np.asarray(getattr(model, name), dtype=np.float64).copy()
              for name in TRAINABLE}
    params["dense_bias"] = float(model.dense_bias)
    state = {
        "t": 0,
        "m": {k: np.zeros_like(np.asarray(v, dtype=np.float64)) for k, v in params.items()},
        "v": {k: np.zeros_like(np.asarray(v, dtype=np.float64)) for k, v in params.items()},
    }
    current = replace(model, **params)
    rng = np.random.default_rng(cfg.seed)
    history = []
    n = len(y)
    for _ in range(cfg.epochs):
        perm = rng.permutation(n)
        total = 0.0
        for start in range(0, n, cfg.batch_size):
            batch = perm[start : start + cfg.batch_size]
            loss, grads = cnn_gradients(current, ids[batch], y[batch])
            total += loss * len(batch)
            params = reference_adam_step(params, grads, state, cfg.learning_rate)
            current = replace(current, **params)
        history.append(total / n)
    return current, history


class TestReferenceAdam:
    @pytest.mark.parametrize("epochs", [0, 3])
    @pytest.mark.parametrize("learning_rate", [1e-3, 0.01])
    @pytest.mark.parametrize("batch_size", [5, 13])
    def test_bitwise_equal_to_per_parameter_adam(self, epochs, learning_rate, batch_size):
        model = replace(tiny_model(80, vocab=30, dim=6, filters=5, kernel=3, seq_len=9),
                        dense_bias=-0.37)
        rng = np.random.default_rng(81)
        ids = rng.integers(0, model.vocab_size, size=(13, model.max_sequence_length))
        y = np.array([i % 3 == 0 for i in range(13)], dtype=np.float64)
        cfg = TrainConfig(epochs=epochs, batch_size=batch_size,
                          learning_rate=learning_rate, seed=82)
        expected, expected_history = reference_train(model, ids, y, cfg)
        trained, history = cnn_train(model, ids, y, cfg)
        assert [x.hex() for x in history] == [x.hex() for x in expected_history]
        assert type(trained.dense_bias) is float
        assert model_text(trained) == model_text(expected)
        if epochs:
            assert model_text(trained) != model_text(model)


class TestSerialization:
    def test_round_trip(self, tmp_path):
        model = tiny_model(70)
        path = tmp_path / "model.txt"
        save_cnn(model, path)
        loaded = load_cnn(path)
        assert np.array_equal(loaded.embedding, model.embedding)
        assert np.array_equal(loaded.conv_weights, model.conv_weights)
        assert np.array_equal(loaded.conv_bias, model.conv_bias)
        assert np.array_equal(loaded.dense_weights, model.dense_weights)
        assert loaded.dense_bias == model.dense_bias
        assert loaded.max_sequence_length == model.max_sequence_length

    def test_save_never_holds_the_whole_text(self, tmp_path):
        # a 2.1 MB text: the rows are encoded and written one at a time
        model = tiny_model(75, vocab=2000, dim=100, filters=2, kernel=2, seq_len=3)
        path = tmp_path / "model.txt"
        tracemalloc.start()
        try:
            save_cnn(model, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = path.stat().st_size
        assert size > 2_000_000 and peak < size / 20
        assert path.read_text(encoding="utf-8") == model_text(model)

    def test_load_holds_no_second_copy_of_the_rows(self):
        # the rows are decoded a block at a time into the matrix, so beside the
        # text's lines and the matrix the load holds about two blocks of bytes
        model = tiny_model(76, vocab=2000, dim=500, filters=2, kernel=2, seq_len=3)
        text = model_text(model)
        tracemalloc.start()
        try:
            loaded = cnn_from_text(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert loaded.embedding.tobytes() == model.embedding.tobytes()
        matrix = loaded.embedding.nbytes
        assert matrix == 8_000_000 > 4 * LINE_BLOCK and peak < len(text) + 1.5 * matrix

    def test_version_mismatch(self):
        with pytest.raises(DataError, match="unsupported"):
            cnn_from_text("# stale-format v0\n")

    @staticmethod
    def assert_every_truncation_rejected(text):
        lines = text.splitlines(keepends=True)
        for k in range(len(lines)):
            with pytest.raises(DataError):
                cnn_from_text("".join(lines[:k]))

    def test_every_truncation_rejected(self):
        assert model_text(cnn_from_text(CNN_TEXT)) == CNN_TEXT
        self.assert_every_truncation_rejected(CNN_TEXT)

    def test_v1_file_rejected_naming_the_file(self, tmp_path):
        path = tmp_path / "model.txt"
        path.write_text(CNN_TEXT.replace("satira-cnn v2", "satira-cnn v1"), encoding="utf-8")
        expected = f"{path}: unsupported file (expected header '# satira-cnn v2')"
        with pytest.raises(DataError, match=re.escape(expected)):
            load_cnn(path)

    def test_non_positive_header_count_rejected(self, tmp_path):
        path = tmp_path / "model.txt"
        path.write_text(CNN_TEXT.replace("vocab=4", "vocab=-1"), encoding="utf-8")
        with pytest.raises(DataError, match="model.txt: header counts .* must be positive"):
            load_cnn(path)

    @pytest.mark.parametrize(
        "vocab, dim, message",
        [(10**18, 2, "line 3: embedding declares 1000000000000000000 rows, but the file "
                     "has 10 lines left"),
         (4, 10**18, "line 3: embedding of shape .* is too large to hold"),
         (4, 10**8, "line 5: embedding row: expected 100000000 floats")],
        ids=["huge-vocab", "huge-dim", "large-dim-v2-zero-row-first"],
    )
    def test_header_count_beyond_the_file_rejected_before_reading(self, vocab, dim, message):
        # the matrix is zero-filled lazily and a zero row is never written, so a
        # large declared dim costs no memory before the first non-zero row fails
        text = CNN_TEXT.replace("vocab=4 dim=2", f"vocab={vocab} dim={dim}")
        text = text.replace("embedding 4 2", f"embedding {vocab} {dim}")
        with pytest.raises(DataError, match=message):
            cnn_from_text(text)

    def test_v2_writes_zero_rows_as_one_field(self):
        lines = model_text(cnn_from_text(CNN_TEXT)).splitlines()
        assert lines[2] == "embedding 4 2"
        assert [row == "0" for row in lines[3:7]] == [True, False, True, False]
        assert lines[-1] == "dense_bias AAAAAAAAwD8="  # 0.125 as little-endian float64 bytes

    def test_special_values_round_trip_bitwise(self):
        special = [-0.0, 1.7976931348623157e308, -1.7976931348623157e308, 5e-324,
                   -2.2250738585072e-308, 1.0]
        model = tiny_model(73, vocab=3, dim=len(special), filters=1, kernel=1, seq_len=1)
        embedding = model.embedding.copy()
        embedding[1] = special
        embedding[2] = -0.0
        model = model.__class__(
            embedding=embedding, conv_weights=model.conv_weights,
            conv_bias=np.array([-0.0]), dense_weights=np.array([5e-324]),
            dense_bias=-1.7976931348623157e308, max_sequence_length=1)
        text = model_text(model)
        embedding_rows = text.splitlines()[3:6]
        assert embedding_rows[0] == "0" and "0" not in embedding_rows[1:]  # -0.0 is written
        loaded = cnn_from_text(text)
        for name in ("embedding", "conv_weights", "conv_bias", "dense_weights"):
            assert getattr(loaded, name).tobytes() == getattr(model, name).tobytes()
        assert np.float64(loaded.dense_bias).tobytes() == np.float64(model.dense_bias).tobytes()

    @pytest.mark.parametrize("name", ["embedding", *TRAINABLE])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_weight_refused(self, name, value):
        model = tiny_model(74)
        bad = np.array(getattr(model, name), dtype=np.float64)
        bad.reshape(-1)[-1] = value
        with pytest.raises(ValueError, match=f"^{name} must be finite$"):
            replace(model, **{name: bad if bad.ndim else float(bad)})

    def test_non_finite_model_file_names_the_file(self, tmp_path):
        # base64 of little-endian nan, in place of the dense bias 0.125
        path = tmp_path / "model.txt"
        path.write_text(CNN_TEXT.replace("dense_bias AAAAAAAAwD8=", "dense_bias AAAAAAAA+H8="),
                        encoding="utf-8")
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}: dense_bias must be finite$"):
            load_cnn(path)

    @pytest.mark.parametrize(
        "line, bad, message",
        [(5, "AAAAAAAA!AA=", "line 5: embedding row: .*base64"),
         (5, "AAAAAAAAAAA=", "line 5: embedding row: expected 2 floats \\(16 bytes\\), got 8"),
         (5, "0 AAAAAAAAAAA=", "line 5: embedding row: expected 1 fields, got 2"),
         (7, "0.5 0", "line 7: embedding row: expected 1 fields, got 2"),
         (11, "conv_bias 0 0", "line 11: section conv_bias: expected 2 fields, got 3")],
        ids=["bad-character", "one-float-short", "zero-and-a-row", "v1-row-with-a-zero",
             "zero-per-value"],
    )
    def test_corrupt_v2_row_names_its_line(self, line, bad, message):
        lines = CNN_TEXT.split("\n")
        lines[line - 1] = bad
        with pytest.raises(DataError, match=message):
            cnn_from_text("\n".join(lines))
