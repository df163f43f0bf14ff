"""Every trainer checks its labels the same way, before any cast."""

import numpy as np
import pytest

from satira import DataError, VectorizerConfig, make_document
from satira.models import TrainConfig, cnn_train, gbt_fit, nb_fit
from satira.vectorize import fit as fit_vectorizer, transform
from tests.test_convnet import tiny_model


def nb_trainer(y):
    docs = [make_document(f"d{i}", text) for i, text in enumerate(["a b", "b c", "c a"])]
    cfg = VectorizerConfig(max_df=1.0)
    return nb_fit(transform(docs, fit_vectorizer(docs, cfg), cfg), y)


def gbt_trainer(y):
    return gbt_fit(np.arange(6.0).reshape(3, 2), y)


def cnn_trainer(y):
    model = tiny_model(90)
    return cnn_train(model, np.ones((3, model.max_sequence_length), dtype=np.int64), y,
                     TrainConfig(epochs=1))


TRAINERS = {"nb": nb_trainer, "gbt": gbt_trainer, "cnn": cnn_trainer}


@pytest.mark.parametrize("trainer", TRAINERS.values(), ids=TRAINERS.keys())
class TestLabels:
    def test_wrong_length_rejected(self, trainer):
        with pytest.raises(DataError, match="labels length 2 != "):
            trainer([1, 0])

    @pytest.mark.parametrize("labels", [[1, 0, 0.5], [1, 0, 2], [1, 0, -1], [0.5, 1.7, 0.2]],
                             ids=["half", "two", "minus-one", "fractions"])
    def test_non_binary_value_rejected(self, trainer, labels):
        with pytest.raises(DataError, match="labels must be binary 0/1"):
            trainer(labels)
