"""The three benchmark workloads, each a closed loop of whole pipeline passes.

A pass calls the public ``satira`` functions in the order the CLI does and
wraps every call in a span named ``<module>.<step>``. Checkpoints cut the
pass into segments of about a second, between which the harness measures
the host's speed; a segment dominated by numpy's compiled loops (GBT
fit, CNN training) says so. The last checkpoint ends the timed part. The workload
then checks the outputs, outside any span.

* ``analysis``: the paper's lexico-grammatical study (preprocess,
  stylometrics, stats); no model code runs.
* ``bow``: ``satira train`` + ``evaluate`` for Naive Bayes on three feature
  sets and for boosted trees on word counts (vectorize, boosted_trees).
* ``cnn``: ``satira train --model cnn`` + ``evaluate`` (embeddings, convnet).
"""

from __future__ import annotations

import math
import shutil
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

import numpy as np

from corpus import DIM, GeneratorConfig, read_lexicons, write_inputs
from tracing import Tracer

from satira import (
    Analyzer,
    Label,
    Lexicon,
    NanPolicy,
    SplitConfig,
    StopPhraseList,
    TTestVariant,
    VectorizerConfig,
    Weighting,
    clean_corpus,
    corpus_profile,
    density_histogram,
    evaluate,
    fit,
    load_corpus,
    ngram_frequency,
    split,
    top_fraction,
    transform,
    ttest_two_tailed,
)
from satira.models import (
    BoostConfig,
    TrainConfig,
    build_token_index,
    cnn_predict,
    cnn_train,
    encode_corpus,
    gbt_fit,
    gbt_predict,
    init_convnet,
    load_cnn,
    load_embeddings,
    load_gbt,
    load_nb,
    nb_fit,
    nb_predict,
    save_cnn,
    save_gbt,
    save_nb,
)
from satira.stylometrics import parse_tagged_file
from satira.vectorize import load_vocabulary, save_vocabulary

# Sizes: one pass takes 2-5 s on one core, so a 35 s run repeats it 5-17
# times; the GBT round count and CNN training subset keep passes that short.
GBT_ROUNDS = 8
CNN_TRAIN_DOCS = 100
CNN_EPOCHS = 2
CNN_MAX_LEN = 400  # the paper's architecture: 126 filters, kernel 5, batch 10
TOP_FRACTION = 0.01
DENSITY_BINS = 20
F1_FLOOR = 0.6  # catches a broken model, not a drift in quality
F1_CHECK = "macro-F1 above floor"

NB_FEATURES = (
    ("nb_count", VectorizerConfig()),
    ("nb_tfidf", VectorizerConfig(weighting=Weighting.TFIDF)),
    ("nb_char", VectorizerConfig(analyzer=Analyzer.CHAR, ngram_range=(2, 4))),
)


@dataclass(frozen=True)
class Inputs:
    corpus: Path
    tags: Path
    vectors: Path | None
    work: Path  # artifacts written and read back during a pass
    stop_phrases: StopPhraseList
    cliches: Lexicon
    emotions: Lexicon
    seed: int


@dataclass
class Outcome:
    docs_scored: int  # documents measured (analysis) or held-out predictions
    checks: list[tuple[str, bool]] = field(default_factory=list)
    f1: dict[str, float] = field(default_factory=dict)  # held-out macro-F1 per model
    probes: dict[str, Callable[[], object]] = field(default_factory=dict)

    def all_checks(self) -> list[tuple[str, bool]]:
        floors = [(f"{F1_CHECK}: {m} {v:.4f} > {F1_FLOOR}", v > F1_FLOOR) for m, v in self.f1.items()]
        return self.checks + floors


@dataclass(frozen=True)
class Workload:
    name: str
    generator: GeneratorConfig
    noisy: bool  # raw text with noise and stop phrases, or cleaned text
    vectors: bool  # whether to write a word-vector file
    run_pass: Callable[[Inputs, Tracer], Outcome]


def prepare(workload: Workload, root: Path, out: Path, seed: int, gen: GeneratorConfig | None = None) -> Inputs:
    """Generate the workload's input files under ``out`` and load the lexicons."""
    lex_dir = root / "lexicons"
    paths = write_inputs(
        out, gen or workload.generator, read_lexicons(lex_dir), seed, workload.noisy, workload.vectors
    )
    work = out / "artifacts"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    return Inputs(
        corpus=paths["corpus"],
        tags=paths["tags"],
        vectors=paths.get("vectors"),
        work=work,
        stop_phrases=StopPhraseList.from_file(lex_dir / "stop_phrases.txt"),
        cliches=Lexicon.from_file(lex_dir / "cliches.txt", name="cliches"),
        emotions=Lexicon.from_file(lex_dir / "emotions.txt", name="emotions"),
        seed=seed,
    )


def _binary(docs) -> np.ndarray:
    return np.array([1 if d.label is Label.FAKE else 0 for d in docs], dtype=np.int64)


def _labels(values) -> list[Label]:
    return [Label.FAKE if v == 1 else Label.REAL for v in values]


def _evaluate(tr: Tracer, model: str, predicted, gold, outcome: Outcome) -> None:
    with tr.span("evaluation.evaluate") as counts:
        report = evaluate(_labels(predicted), gold)
    counts[f"{model}_macro_f1"] = report.macro_f1
    outcome.f1[model] = report.macro_f1


# ------------------------------------------------------------ analysis

MEASURES = (
    ("J", lambda v: v.journalistic_register),
    ("S", lambda v: v.sentiment_intensity),
    ("fpp", lambda v: math.nan if v.fpp_verb_ratio is None else v.fpp_verb_ratio),
)


def _reference_t(a: np.ndarray, b: np.ndarray, variant: TTestVariant) -> float:
    a, b = a[~np.isnan(a)], b[~np.isnan(b)]
    va, vb = a.var(ddof=1), b.var(ddof=1)
    if variant is TTestVariant.POOLED:
        pooled = ((len(a) - 1) * va + (len(b) - 1) * vb) / (len(a) + len(b) - 2)
        se = np.sqrt(pooled * (1.0 / len(a) + 1.0 / len(b)))
    else:
        se = np.sqrt(va / len(a) + vb / len(b))
    return float((a.mean() - b.mean()) / se)


def _surviving_stop_phrases(docs, phrases: StopPhraseList) -> int:
    targets = {tuple(p.split()) for p in phrases.phrases}
    return sum(
        tuple(doc.tokens[i : i + k]) in targets
        for doc in docs
        for i in range(len(doc.tokens))
        for k in (1, 2, 3)
    )


def analysis_pass(inp: Inputs, tr: Tracer) -> Outcome:
    """Per-document steps land in ``predict``, corpus-level statistics in ``fit``."""
    samples: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    tests = []
    with tr.span("pass"):
        with tr.span("corpus_io.load", "predict") as loaded:
            corpus = load_corpus(inp.corpus)
        with tr.span("preprocess.clean", "predict") as cleaning:
            cleaned = clean_corpus(corpus, stop_phrases=inp.stop_phrases)
        tr.checkpoint()
        for n in (1, 2, 3):
            with tr.span("preprocess.ngram_frequency", "fit") as ngrams:
                freq = ngram_frequency(cleaned, n)
            with tr.span("preprocess.top_fraction", "fit"):
                top_fraction(freq, TOP_FRACTION)
            if tr.enabled:
                ngrams["keys"] = len(freq.counts)
        tr.checkpoint()
        with tr.span("stylometrics.read_tags", "predict"):
            tagged = parse_tagged_file(inp.tags.read_text(encoding="utf-8"))
        with tr.span("stylometrics.profile", "predict") as profiling:
            profile = corpus_profile(cleaned, inp.cliches, inp.emotions, tagged)
        for measure, get in MEASURES:
            fake = np.array([get(v) for v in profile[Label.FAKE]])
            real = np.array([get(v) for v in profile[Label.REAL]])
            samples[measure] = (fake, real)
            for variant in (TTestVariant.POOLED, TTestVariant.WELCH):
                with tr.span("stats.ttest", "fit"):
                    result = ttest_two_tailed(fake, real, variant, NanPolicy.OMIT)
                tests.append((measure, variant, result))
            for values in (fake, real):
                with tr.span("stats.density", "fit"):
                    density_histogram(values, DENSITY_BINS)
        tr.checkpoint()

    if tr.enabled:
        loaded["docs"] = len(corpus)
        cleaning["tokens_in"] = sum(d.size for d in corpus)
        cleaning["tokens_out"] = sum(d.size for d in cleaned)
        sizes = {d.id: d.size for d in cleaned}
        profiling["lexicon_hits"] = sum(
            round((v.journalistic_register + v.sentiment_intensity) * sizes[v.doc_id])
            for vectors in profile.values()
            for v in vectors
        )
    outcome = Outcome(docs_scored=len(corpus))
    values = np.concatenate([np.concatenate(pair) for pair in samples.values()])
    values = values[~np.isnan(values)]
    # MeasureVector already raises outside [0, 1], which counts as a failed
    # pass; this check still catches a build that drops that guard
    outcome.checks.append(("measures lie in [0, 1]", bool(((values >= 0) & (values <= 1)).all())))
    outcome.checks.append(("no stop phrase survives cleaning", _surviving_stop_phrases(cleaned, inp.stop_phrases) == 0))
    for measure, variant, result in tests:
        ref = _reference_t(*samples[measure], variant)
        ok = abs(result.statistic - ref) <= 1e-9 * max(1.0, abs(ref))
        outcome.checks.append((f"{variant.value} t on {measure} matches numpy", ok))
    return outcome


# ----------------------------------------------------------------- bow


def bow_pass(inp: Inputs, tr: Tracer) -> Outcome:
    """Train and save every model (``fit``), then load each one, featurize
    the held-out set and predict (``predict``), as ``satira train`` runs
    followed by ``satira evaluate`` runs do."""
    fitted, scored = {}, {}
    with tr.span("pass"):
        with tr.span("corpus_io.load") as loaded:
            corpus = load_corpus(inp.corpus)
        with tr.span("corpus_io.split"):
            train, test = split(corpus, SplitConfig(seed=inp.seed))
        y = _binary(train.documents)
        gold = [d.label for d in test.documents]
        outcome = Outcome(docs_scored=0)
        for name, cfg in NB_FEATURES:
            step = "fit_char" if cfg.analyzer is Analyzer.CHAR else "fit_word"
            with tr.span(f"vectorize.{step}", "fit") as fitting:
                vocab = fit(train.documents, cfg)
            with tr.span("vectorize.transform", "fit") as matrix:
                X = transform(train.documents, vocab, cfg)
            with tr.span("naive_bayes.fit", "fit"):
                model = nb_fit(X, y)
            with tr.span("vectorize.save", "fit"):
                save_vocabulary(vocab, inp.work / f"{name}.vocabulary.txt")
            with tr.span("naive_bayes.save", "fit"):
                save_nb(model, inp.work / f"{name}.model.txt")
            fitted[name] = (vocab, model)
            if tr.enabled:
                fitting["vocab_size"] = len(vocab)
                matrix["nnz"] = X.nnz
            if name == "nb_count":
                X_count = X
            tr.checkpoint()
        # boosted trees on dense word counts, sharing the count vocabulary
        with tr.span("vectorize.toarray", "fit"):
            X_dense = X_count.toarray()
        with tr.span("boosted_trees.fit", "fit") as boosting:
            gbt = gbt_fit(X_dense, y, BoostConfig(n_rounds=GBT_ROUNDS))
        with tr.span("boosted_trees.save", "fit"):
            save_gbt(gbt, inp.work / "gbt.model.txt")
        tr.checkpoint("numpy")

        for name, _ in NB_FEATURES:
            with tr.span("vectorize.load", "predict"):
                vocab = load_vocabulary(inp.work / f"{name}.vocabulary.txt")
            with tr.span("vectorize.transform", "predict") as matrix:
                X_test = transform(test.documents, vocab, vocab.config)
            with tr.span("naive_bayes.load", "predict"):
                model = load_nb(inp.work / f"{name}.model.txt")
            with tr.span("naive_bayes.predict", "predict"):
                predicted, scores = nb_predict(model, X_test)
            _evaluate(tr, name, predicted, gold, outcome)
            outcome.docs_scored += len(test)
            scored[name] = (vocab, X_test, scores)
            if tr.enabled:
                matrix["nnz"] = X_test.nnz
        with tr.span("vectorize.load", "predict"):
            vocab = load_vocabulary(inp.work / "nb_count.vocabulary.txt")
        with tr.span("vectorize.transform", "predict") as matrix:
            X_test = transform(test.documents, vocab, vocab.config)
        with tr.span("vectorize.toarray", "predict"):
            X_test_dense = X_test.toarray()
        with tr.span("boosted_trees.load", "predict"):
            gbt_read = load_gbt(inp.work / "gbt.model.txt")
        with tr.span("boosted_trees.predict", "predict"):
            proba, predicted = gbt_predict(gbt_read, X_test_dense)
        _evaluate(tr, "gbt", predicted, gold, outcome)
        outcome.docs_scored += len(test)
        tr.checkpoint()

    if tr.enabled:
        loaded["docs"] = len(corpus)
        matrix["nnz"] = X_test.nnz
        boosting["rounds"] = len(gbt.trees)
        boosting["split_nodes"] = sum(not n.is_leaf for t in gbt.trees for n in t.nodes)
        boosting["final_train_loss"] = gbt.train_loss[-1]
    char_cfg = NB_FEATURES[-1][1]
    outcome.probes["vectorize.peak_mb"] = lambda: fit(train.documents, char_cfg)
    for name, (vocab, model) in fitted.items():
        vocab_read, X_test, scores = scored[name]
        same_vocab = (
            vocab_read.index == vocab.index
            and np.array_equal(vocab_read.document_frequency, vocab.document_frequency)
            and (vocab.idf is None or np.array_equal(vocab_read.idf, vocab.idf))
        )
        outcome.checks.append((f"{name} vocabulary round-trips", same_vocab))
        _, in_memory = nb_predict(model, X_test)
        outcome.checks.append((f"{name} loaded model predicts like the fitted one", np.array_equal(scores, in_memory)))
    in_memory, _ = gbt_predict(gbt, X_test_dense)
    outcome.checks.append(("gbt loaded model predicts like the fitted one", np.array_equal(proba, in_memory)))
    return outcome


# ----------------------------------------------------------------- cnn


def cnn_pass(inp: Inputs, tr: Tracer) -> Outcome:
    """Train side lands in ``fit``; load, encode and predict in ``predict``."""
    model_path = inp.work / "cnn.model.txt"
    with tr.span("pass"):
        with tr.span("corpus_io.load") as loaded:
            corpus = load_corpus(inp.corpus)
        with tr.span("corpus_io.split"):
            train, test = split(corpus, SplitConfig(seed=inp.seed))
        subset = train.documents[:CNN_TRAIN_DOCS]
        y = _binary(subset).astype(np.float64)
        gold = [d.label for d in test.documents]
        with tr.span("embeddings.build_index", "fit"):
            index = build_token_index(train.documents)
        with tr.span("embeddings.load", "fit") as embedding:
            matrix, coverage = load_embeddings(inp.vectors, index, DIM)
        with tr.span("embeddings.encode", "fit"):
            ids = encode_corpus(subset, index, CNN_MAX_LEN)
        with tr.span("convnet.init", "fit"):
            model = init_convnet(matrix, max_sequence_length=CNN_MAX_LEN, seed=inp.seed)
        tr.checkpoint()
        with tr.span("convnet.train", "fit") as training:
            trained, history = cnn_train(
                model, ids, y, TrainConfig(epochs=CNN_EPOCHS, batch_size=10, seed=inp.seed)
            )
        tr.checkpoint("numpy")
        with tr.span("convnet.save", "fit") as saving:
            save_cnn(trained, model_path)
        tr.checkpoint()

        with tr.span("convnet.load", "predict"):
            model_read = load_cnn(model_path)
        with tr.span("embeddings.encode", "predict"):
            test_ids = encode_corpus(test.documents, index, model_read.max_sequence_length)
        with tr.span("convnet.predict", "predict"):
            proba, predicted = cnn_predict(model_read, test_ids)
        outcome = Outcome(docs_scored=len(test))
        _evaluate(tr, "cnn", predicted, gold, outcome)
        tr.checkpoint()

    if tr.enabled:
        loaded["docs"] = len(corpus)
        embedding["coverage"] = coverage
        training["doc_epochs"] = len(subset) * CNN_EPOCHS
        training["final_epoch_loss"] = history[-1]
        saving["artifact_mb"] = model_path.stat().st_size / 2**20
    in_memory, _ = cnn_predict(trained, test_ids)
    outcome.checks.append(("cnn loaded model predicts like the trained one", np.array_equal(proba, in_memory)))
    outcome.probes["convnet.predict_peak_mb"] = lambda: cnn_predict(model_read, test_ids)
    return outcome


# why each workload exists is recorded in BENCHMARK.json and README.md
WORKLOADS = {
    w.name: w
    for w in (
        Workload("analysis", GeneratorConfig(n_docs=600, vocab_size=8000), True, False, analysis_pass),
        Workload("bow", GeneratorConfig(n_docs=400, vocab_size=6000), False, False, bow_pass),
        Workload("cnn", GeneratorConfig(n_docs=200, vocab_size=3000), False, True, cnn_pass),
    )
}

# input size of the warm-up pass that ends every set-up
WARMUP_DOCS = 24
WARMUP_VOCAB = 400


def warmup_config(gen: GeneratorConfig) -> GeneratorConfig:
    return replace(gen, n_docs=min(gen.n_docs, WARMUP_DOCS), vocab_size=min(gen.vocab_size, WARMUP_VOCAB))
