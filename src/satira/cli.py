"""Command-line front end.

Subcommands: clean, boilerplate, measure, ttest, train, evaluate,
features, predict, plot-data. Exit codes: 0 success, 1 usage error,
2 data error. ``SATIRA_LOG`` sets the log level. Options may come from a
JSON config file (``--config``); explicit flags win over the file.

Every output file starts with ``#`` metadata lines (tool version, config
hash, lexicon checksums) so results stay attributable; all randomness
derives from the single ``--seed`` value.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import math
import os
import sys
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .corpus_io import (
    Label,
    LabeledCorpus,
    SplitConfig,
    corpus_to_jsonl,
    load_corpus,
    split,
)
from .errors import DataError, SatiraError
from .evaluation import (
    evaluate,
    ranking_to_tsv,
    report_to_json,
    report_to_text,
    top_informative_features,
)
from .fileio import file_checksum, load_json, metadata_header, read_text, text_lines
from .models import (
    AdamConfig,
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
    load_token_index,
    nb_fit,
    nb_predict,
    token_index_to_text,
)
from .models.boosted_trees import gbt_to_text
from .models.convnet import cnn_to_text
from .models.naive_bayes import nb_to_text
from .preprocess import (
    NormalizationConfig,
    StopPhraseList,
    clean_corpus,
    ngram_frequency,
    ngram_frequency_to_tsv,
    top_fraction,
)
from .stats import (
    NanPolicy,
    TTestVariant,
    density_histogram,
    density_to_csv,
    ttest_two_tailed,
)
from .stylometrics import Lexicon, corpus_profile, parse_tagged_file, profile_to_csv
from .vectorize import (
    Analyzer,
    VectorizerConfig,
    Weighting,
    fit as fit_vectorizer,
    load_vocabulary,
    transform,
    vocabulary_to_text,
)

log = logging.getLogger("satira")


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _setup_logging():
    level = os.environ.get("SATIRA_LOG", "warning").upper()
    logging.basicConfig(
        level=getattr(logging, level, logging.WARNING),
        format="%(levelname)s %(name)s: %(message)s",
    )


def _load_config_file(path) -> dict:
    try:
        config = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise DataError(f"config file {path}: {exc}") from exc
    if not isinstance(config, dict):
        raise DataError(f"config file {path}: expected a JSON object")
    return config


def _resolve(args, key: str, default=None):
    """Flag value if given, else config-file value, else default."""
    value = getattr(args, key.replace("-", "_"), None)
    if value is not None:
        return value
    if args.file_config and key in args.file_config:
        return args.file_config[key]
    return default


def _out_dir(args) -> Path:
    out = Path(_resolve(args, "out", "out"))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write(path: Path, header: str, body: str):
    path.write_text(header + body, encoding="utf-8")
    log.info("wrote %s", path)


def _require(args, key: str):
    value = _resolve(args, key)
    if value is None:
        raise UsageError(f"missing required option --{key}")
    return value


def _lexicon_checksums(paths: dict) -> dict:
    return {name: file_checksum(p) for name, p in paths.items() if p}


def _corpus(args, key: str = "corpus") -> LabeledCorpus:
    return load_corpus(_require(args, key))


# ---------------------------------------------------------------- clean


def cmd_clean(args) -> int:
    corpus = _corpus(args)
    cfg = NormalizationConfig(
        strip_diacritics=not args.keep_diacritics,
        strip_latin=not args.keep_latin,
        strip_special=not args.keep_special,
        collapse_whitespace=not args.no_collapse_whitespace,
    )
    stop_path = _resolve(args, "stop-phrases")
    stop = StopPhraseList.from_file(stop_path) if stop_path else None
    cleaned = clean_corpus(corpus, cfg, stop)
    out = _out_dir(args)
    run_config = {
        "command": "clean",
        "corpus": str(_resolve(args, "corpus")),
        "normalization": dataclasses.asdict(cfg),
        "stop_phrases": str(stop_path) if stop_path else None,
        "segmented": bool(_resolve(args, "segmented", False)),
    }
    checksums = _lexicon_checksums({"stop_phrases": stop_path})
    _write(out / "cleaned.jsonl", metadata_header(run_config, checksums), corpus_to_jsonl(cleaned))
    return 0


# ---------------------------------------------------------- boilerplate


def cmd_boilerplate(args) -> int:
    corpus = _corpus(args)
    fraction = float(_resolve(args, "fraction", 0.1))
    out = _out_dir(args)
    run_config = {
        "command": "boilerplate",
        "corpus": str(_resolve(args, "corpus")),
        "fraction": fraction,
    }
    header = metadata_header(run_config)
    for n in (1, 2, 3):
        freq = ngram_frequency(corpus, n)
        _write(out / f"ngrams_{n}.tsv", header, ngram_frequency_to_tsv(freq))
        candidates = top_fraction(freq, fraction)
        body = "".join(f"{ngram}\t{count}\n" for ngram, count in candidates)
        _write(out / f"candidates_{n}.tsv", header, body)
    return 0


# -------------------------------------------------------------- measure


def cmd_measure(args) -> int:
    corpus = _corpus(args).labeled_only()
    cliches = Lexicon.from_file(_require(args, "cliches"), name="cliches")
    emotions = Lexicon.from_file(_require(args, "emotions"), name="emotions")
    tagged = None
    tagged_path = _resolve(args, "tagged")
    if tagged_path:
        tagged = parse_tagged_file(Path(tagged_path).read_text(encoding="utf-8"))
    profile = corpus_profile(corpus, cliches, emotions, tagged)
    out = _out_dir(args)
    run_config = {
        "command": "measure",
        "corpus": str(_resolve(args, "corpus")),
        "cliches": str(_resolve(args, "cliches")),
        "emotions": str(_resolve(args, "emotions")),
        "tagged": str(tagged_path) if tagged_path else None,
        "segmented": bool(_resolve(args, "segmented", False)),
    }
    checksums = _lexicon_checksums(
        {"cliches": _resolve(args, "cliches"), "emotions": _resolve(args, "emotions")}
    )
    _write(out / "measures.csv", metadata_header(run_config, checksums), profile_to_csv(profile))
    return 0


def _read_measures(path) -> dict[str, dict[Label, list[float]]]:
    lines = text_lines(read_text(path))
    rows = [(n, l) for n, l in enumerate(lines, start=1) if l and not l.startswith("#")]
    if not rows or rows[0][1] != "doc_id,label,J,S,fpp_ratio":
        raise DataError(f"{path}: expected a measures CSV with header doc_id,label,J,S,fpp_ratio")
    columns = {
        name: {Label.FAKE: [], Label.REAL: []} for name in ("J", "S", "fpp")
    }
    for lineno, row in rows[1:]:
        parts = row.split(",")
        if len(parts) != 5:
            raise DataError(f"{path}: line {lineno}: expected 5 fields")
        try:
            label = Label(parts[1])
            values = (float(parts[2]), float(parts[3]), float(parts[4]) if parts[4] else math.nan)
        except ValueError as exc:
            raise DataError(f"{path}: line {lineno}: {exc}") from exc
        for name, value in zip(("J", "S", "fpp"), values):
            columns[name][label].append(value)
    return columns


# ---------------------------------------------------------------- ttest


def cmd_ttest(args) -> int:
    columns = _read_measures(_require(args, "measures"))
    variant = TTestVariant(_resolve(args, "variant", "pooled"))
    # fpp may carry NaN for verbless documents, so omit is the working default
    policy = NanPolicy(_resolve(args, "nan-policy", "omit"))
    run_all = args.measure == "all"
    names = ("J", "S", "fpp") if run_all else (args.measure,)
    out_lines = []
    for name in names:
        fake = columns[name][Label.FAKE]
        real = columns[name][Label.REAL]
        try:
            result = ttest_two_tailed(fake, real, variant, policy)
        except ValueError as exc:
            # under "all", a degenerate column (never computed, or constant
            # across both classes) is reported and skipped
            if not run_all:
                raise
            line = f"measure={name} skipped: {exc}"
            print(line)
            out_lines.append(line)
            continue
        line = (
            f"measure={name} variant={variant.value} nan_policy={policy.value} "
            f"statistic={result.statistic!r} p_value={result.p_value!r} "
            f"df={result.df!r} n_fake={result.n_a} n_real={result.n_b}"
        )
        print(line)
        out_lines.append(line)
    out = _out_dir(args)
    run_config = {
        "command": "ttest",
        "measures": str(_resolve(args, "measures")),
        "variant": variant.value,
        "nan_policy": policy.value,
    }
    _write(out / "ttest.txt", metadata_header(run_config), "".join(l + "\n" for l in out_lines))
    return 0


# ------------------------------------------------------------ plot-data


def cmd_plot_data(args) -> int:
    columns = _read_measures(_require(args, "measures"))
    bins = int(_resolve(args, "bins", 50))
    out = _out_dir(args)
    run_config = {
        "command": "plot-data",
        "measures": str(_resolve(args, "measures")),
        "bins": bins,
    }
    header = metadata_header(run_config)
    for name, per_label in columns.items():
        for label, values in per_label.items():
            finite = [v for v in values if not math.isnan(v)]
            if not finite:
                log.info("skipping density for %s/%s: no finite values", name, label.value)
                continue
            est = density_histogram(finite, bins)
            _write(out / f"density_{name}_{label.value}.csv", header, density_to_csv(est))
    return 0


# ---------------------------------------------------------------- train


def _binary_labels(corpus: LabeledCorpus) -> np.ndarray:
    return np.array(
        [1 if d.label is Label.FAKE else 0 for d in corpus.documents], dtype=np.int64
    )


def _int_labels_to_enum(values) -> list[Label]:
    return [Label.FAKE if int(v) == 1 else Label.REAL for v in values]


def _ngram_range(value) -> list[int]:
    if not isinstance(value, str):
        return [int(v) for v in value]
    try:
        lo, hi = (int(v) for v in value.split(","))
    except ValueError as exc:
        raise UsageError(f"--ngram must be LO,HI, got {value!r}") from exc
    return [lo, hi]


def _split_config(args) -> SplitConfig:
    return SplitConfig(
        test_fraction=float(_resolve(args, "test-fraction", 0.2)),
        seed=int(_resolve(args, "seed", 42)),
        stratified=True,
    )


def _vectorize(cfg: dict, docs):
    vec_cfg = VectorizerConfig(
        weighting=Weighting(cfg["weighting"]), analyzer=Analyzer(cfg["analyzer"]),
        ngram_range=tuple(cfg["ngram"]), max_features=cfg["max_features"], max_df=cfg["max_df"],
    )
    vocab = fit_vectorizer(docs, vec_cfg)
    return vocab, transform(docs, vocab, vec_cfg)


def _fit_nb(cfg: dict, docs, y):
    vocab, X = _vectorize(cfg, docs)
    model = nb_fit(X, y, cfg["alpha"])
    return {"vocabulary.txt": vocabulary_to_text(vocab), "model.txt": nb_to_text(model)}, {}


def _fit_gbt(cfg: dict, docs, y):
    vocab, X = _vectorize(cfg, docs)
    boost_cfg = BoostConfig(n_rounds=cfg["rounds"], learning_rate=cfg["learning_rate"],
                            max_depth=cfg["depth"], reg_lambda=cfg["reg_lambda"])
    model = gbt_fit(X.toarray(), y, boost_cfg)
    artifacts = {"vocabulary.txt": vocabulary_to_text(vocab), "model.txt": gbt_to_text(model)}
    return artifacts, {"final_train_loss": model.train_loss[-1]}


def _fit_cnn(cfg: dict, docs, y):
    index = build_token_index(docs)
    matrix, coverage = load_embeddings(cfg["embeddings"], index, cfg["embed_dim"])
    log.info("embedding coverage: %.4f", coverage)
    model = init_convnet(matrix, n_filters=cfg["filters"], kernel_size=cfg["kernel"],
                         max_sequence_length=cfg["max_seq_len"], seed=cfg["seed"])
    train_cfg = TrainConfig(epochs=cfg["epochs"], batch_size=cfg["batch_size"],
                            adam=AdamConfig(lr=cfg["adam_lr"]), seed=cfg["seed"])
    ids = encode_corpus(docs, index, cfg["max_seq_len"])
    model, history = cnn_train(model, ids, y, train_cfg)
    artifacts = {"model.txt": cnn_to_text(model), "token_index.txt": token_index_to_text(index)}
    return artifacts, {"embedding_coverage": coverage, "loss_history": history}


def _vectorized(model_dir: Path, docs):
    vocab = load_vocabulary(model_dir / "vocabulary.txt")
    return transform(docs, vocab, vocab.config)


def _predict_nb(model_dir: Path, docs) -> np.ndarray:
    X = _vectorized(model_dir, docs)
    return nb_predict(load_nb(model_dir / "model.txt"), X)[0]


def _predict_gbt(model_dir: Path, docs) -> np.ndarray:
    X = _vectorized(model_dir, docs)
    return gbt_predict(load_gbt(model_dir / "model.txt"), X.toarray())[1]


def _predict_cnn(model_dir: Path, docs) -> np.ndarray:
    model = load_cnn(model_dir / "model.txt")
    index = load_token_index(model_dir / "token_index.txt")
    if len(index) != model.vocab_size - 1:
        raise DataError(
            f"{model_dir / 'token_index.txt'}: {len(index)} tokens, "
            f"but the model embeds {model.vocab_size - 1}"
        )
    ids = encode_corpus(docs, index, model.max_sequence_length)
    return cnn_predict(model, ids)[1]


class _Pipeline(NamedTuple):
    # (run.json key, flag / config-file key, type, default); default None = required
    options: tuple
    # fit(run config, train docs, 0/1 labels) -> ({filename: text}, extra run.json outputs)
    fit: Callable
    # predict(model dir, docs) -> 0/1 labels
    predict: Callable


_VECTORIZER_OPTIONS = (
    ("weighting", "weighting", str, "count"),
    ("analyzer", "analyzer", str, "word"),
    ("ngram", "ngram", _ngram_range, "1,1"),
    ("max_features", "max-features", int, 1500),
    ("max_df", "max-df", float, 0.7),
)

PIPELINES = {
    "nb": _Pipeline(_VECTORIZER_OPTIONS + (("alpha", "alpha", float, 1.0),), _fit_nb, _predict_nb),
    "gbt": _Pipeline(_VECTORIZER_OPTIONS + (
        ("rounds", "rounds", int, 100),
        ("learning_rate", "learning-rate", float, 0.1),
        ("depth", "depth", int, 3),
        ("reg_lambda", "reg-lambda", float, 1.0),
    ), _fit_gbt, _predict_gbt),
    "cnn": _Pipeline((
        ("embeddings", "embeddings", str, None),
        ("embed_dim", "embed-dim", int, 300),
        ("filters", "filters", int, 126),
        ("kernel", "kernel", int, 5),
        ("max_seq_len", "max-seq-len", int, 400),
        ("epochs", "epochs", int, 10),
        ("batch_size", "batch-size", int, 10),
        ("adam_lr", "learning-rate", float, 1e-3),
    ), _fit_cnn, _predict_cnn),
}


def cmd_train(args) -> int:
    corpus = _corpus(args).labeled_only()
    model_kind = _require(args, "model")
    pipeline = PIPELINES.get(model_kind)
    if pipeline is None:
        raise UsageError(f"unknown model {model_kind!r}; expected {', '.join(PIPELINES)}")
    split_cfg = _split_config(args)
    train_set, _ = split(corpus, split_cfg)
    out = _out_dir(args)

    run_config = {
        "command": "train",
        "corpus": str(_resolve(args, "corpus")),
        "model": model_kind,
        "seed": split_cfg.seed,
        "test_fraction": split_cfg.test_fraction,
        "stratified": split_cfg.stratified,
        "segmented": bool(_resolve(args, "segmented", False)),
        "version": __version__,
    }
    for key, flag, cast, default in pipeline.options:
        value = _require(args, flag) if default is None else _resolve(args, flag, default)
        run_config[key] = cast(value)

    # the header hash covers the resolved input config, fixed before training
    header = metadata_header(run_config)
    artifacts, outputs = pipeline.fit(run_config, train_set.documents, _binary_labels(train_set))
    for name, text in artifacts.items():
        # metadata goes between the artifact's format-tag line and its body
        tag, _, body = text.partition("\n")
        _write(out / name, f"{tag}\n{header}", body)
    record = dict(run_config, **outputs)
    _write(out / "run.json", header,
           json.dumps(record, sort_keys=True, ensure_ascii=False, indent=2) + "\n")
    log.info("trained %s model into %s", model_kind, out)
    return 0


# ------------------------------------------------------------- evaluate


# run.json keys that evaluate, features and predict read, with their JSON
# types (exact: a bool is not an int)
_RUN_KEYS = {"model": (str,), "seed": (int,), "test_fraction": (int, float), "stratified": (bool,)}


def _load_run(model_dir: Path) -> dict:
    run_path = model_dir / "run.json"
    if not run_path.exists():
        raise DataError(f"{model_dir}: missing run.json (not a training output dir?)")
    run = load_json(run_path)
    if not isinstance(run, dict):
        raise DataError(f"{run_path}: expected a JSON object")
    for key, types in _RUN_KEYS.items():
        if key not in run:
            raise DataError(f"{run_path}: missing key {key!r}")
        if type(run[key]) not in types:
            expected = " or ".join(t.__name__ for t in types)
            raise DataError(f"{run_path}: key {key!r} must be {expected}, got {run[key]!r}")
    return run


def _predict_with_run(run: dict, model_dir: Path, docs) -> np.ndarray:
    pipeline = PIPELINES.get(run.get("model"))
    if pipeline is None:
        raise DataError(f"run.json names unknown model {run.get('model')!r}")
    return pipeline.predict(model_dir, docs)


def _scoring_header(command: str, args, model_dir: Path, run: dict) -> str:
    """Header of an evaluate/predict output: its own command and scored corpus."""
    corpus = str(_resolve(args, "corpus"))
    return metadata_header(
        {"command": command, "model_dir": str(model_dir), "corpus": corpus, "run": run}
    )


def cmd_evaluate(args) -> int:
    model_dir = Path(_require(args, "model-dir"))
    run = _load_run(model_dir)
    corpus = _corpus(args).labeled_only()
    split_cfg = SplitConfig(
        test_fraction=run["test_fraction"], seed=run["seed"], stratified=run["stratified"]
    )
    _, test_set = split(corpus, split_cfg)
    pred = _predict_with_run(run, model_dir, test_set.documents)
    gold = [d.label for d in test_set.documents]
    report = evaluate(_int_labels_to_enum(pred), gold)
    text = report_to_text(report)
    print(text, end="")
    out = _out_dir(args)
    header = _scoring_header("evaluate", args, model_dir, run)
    _write(out / "report.txt", header, text)
    _write(out / "report.json", header, report_to_json(report))
    return 0


# ------------------------------------------------------------- features


def cmd_features(args) -> int:
    model_dir = Path(_require(args, "model-dir"))
    run = _load_run(model_dir)
    if run["model"] != "nb":
        raise DataError(
            f"feature rankings need a Naive Bayes model, run dir has {run['model']!r}"
        )
    model = load_nb(model_dir / "model.txt")
    vocab = load_vocabulary(model_dir / "vocabulary.txt")
    k = int(_resolve(args, "k", 30))
    out = _out_dir(args)
    run_config = {"command": "features", "model_dir": str(model_dir), "k": k}
    header = metadata_header(run_config)
    for score, suffix in (("log_ratio", ""), ("log_prob", "_logprob")):
        fake, real = top_informative_features(model, vocab, k, score=score)
        _write(out / f"features_fake{suffix}.tsv", header, ranking_to_tsv(fake))
        _write(out / f"features_real{suffix}.tsv", header, ranking_to_tsv(real))
    return 0


# -------------------------------------------------------------- predict


def cmd_predict(args) -> int:
    model_dir = Path(_require(args, "model-dir"))
    run = _load_run(model_dir)
    corpus = _corpus(args)
    pred = _predict_with_run(run, model_dir, corpus.documents)
    out = _out_dir(args)
    lines = []
    for doc, label in zip(corpus.documents, _int_labels_to_enum(pred)):
        lines.append(json.dumps({"id": doc.id, "label": label.value}, ensure_ascii=False))
    _write(
        out / "predictions.jsonl",
        _scoring_header("predict", args, model_dir, run),
        "".join(l + "\n" for l in lines),
    )
    return 0


# ----------------------------------------------------------------- main


def build_parser() -> _Parser:
    parser = _Parser(prog="satira", description=__doc__)
    parser.add_argument("--version", action="version", version=f"satira {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file; flags override its values")
        p.add_argument("--corpus", help="corpus file (JSONL or CSV)")
        p.add_argument("--segmented", action="store_true", default=None,
                       help="record that the corpus is the segmented variant")
        p.add_argument("--seed", type=int, help="master seed (default 42)")
        p.add_argument("--out", help="output directory (default ./out)")

    p_clean = sub.add_parser("clean", help="normalize text and drop stop phrases")
    common(p_clean)
    p_clean.add_argument("--stop-phrases", help="stop-phrase list file")
    p_clean.add_argument("--keep-diacritics", action="store_true")
    p_clean.add_argument("--keep-latin", action="store_true")
    p_clean.add_argument("--keep-special", action="store_true")
    p_clean.add_argument("--no-collapse-whitespace", action="store_true")
    p_clean.set_defaults(func=cmd_clean)

    p_boiler = sub.add_parser("boilerplate", help="n-gram dictionaries and top candidates")
    common(p_boiler)
    p_boiler.add_argument("--fraction", type=float, help="top fraction to keep (default 0.1)")
    p_boiler.set_defaults(func=cmd_boilerplate)

    p_measure = sub.add_parser("measure", help="per-article stylometric measures CSV")
    common(p_measure)
    p_measure.add_argument("--cliches", help="cliche lexicon file")
    p_measure.add_argument("--emotions", help="emotion lexicon file")
    p_measure.add_argument("--tagged", help="CoNLL-like surface<TAB>pos file")
    p_measure.set_defaults(func=cmd_measure)

    p_ttest = sub.add_parser("ttest", help="two-sample t-test per measure")
    common(p_ttest)
    p_ttest.add_argument("--measures", help="measures CSV from the measure subcommand")
    p_ttest.add_argument("--measure", choices=["J", "S", "fpp", "all"], default="all")
    p_ttest.add_argument("--variant", choices=["pooled", "welch"])
    p_ttest.add_argument("--nan-policy", choices=["propagate", "omit"])
    p_ttest.set_defaults(func=cmd_ttest)

    p_plot = sub.add_parser("plot-data", help="density CSVs for measure distributions")
    common(p_plot)
    p_plot.add_argument("--measures", help="measures CSV from the measure subcommand")
    p_plot.add_argument("--bins", type=int, help="histogram bins (default 50)")
    p_plot.set_defaults(func=cmd_plot_data)

    p_train = sub.add_parser("train", help="fit a model on the train split")
    common(p_train)
    p_train.add_argument("--model", choices=list(PIPELINES))
    p_train.add_argument("--weighting", choices=["count", "tfidf"])
    p_train.add_argument("--analyzer", choices=["word", "char"])
    p_train.add_argument("--ngram", help="LO,HI n-gram range (default 1,1)")
    p_train.add_argument("--max-features", type=int)
    p_train.add_argument("--max-df", type=float)
    p_train.add_argument("--test-fraction", type=float)
    p_train.add_argument("--alpha", type=float, help="NB smoothing (default 1.0)")
    p_train.add_argument("--rounds", type=int, help="GBT boosting rounds (default 100)")
    p_train.add_argument("--depth", type=int, help="GBT max tree depth (default 3)")
    p_train.add_argument("--reg-lambda", type=float, help="GBT leaf L2 (default 1.0)")
    p_train.add_argument("--learning-rate", type=float,
                         help="GBT shrinkage (default 0.1) / CNN Adam lr (default 1e-3)")
    p_train.add_argument("--embeddings", help="pretrained word-vector text file (CNN)")
    p_train.add_argument("--embed-dim", type=int, help="expected embedding dim (default 300)")
    p_train.add_argument("--filters", type=int, help="CNN conv filters (default 126)")
    p_train.add_argument("--kernel", type=int, help="CNN kernel size (default 5)")
    p_train.add_argument("--max-seq-len", type=int, help="CNN padded length (default 400)")
    p_train.add_argument("--epochs", type=int, help="CNN epochs (default 10)")
    p_train.add_argument("--batch-size", type=int, help="CNN batch size (default 10)")
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("evaluate", help="score the held-out split")
    common(p_eval)
    p_eval.add_argument("--model-dir", help="directory written by train")
    p_eval.set_defaults(func=cmd_evaluate)

    p_feat = sub.add_parser("features", help="most informative NB features")
    common(p_feat)
    p_feat.add_argument("--model-dir", help="directory written by train")
    p_feat.add_argument("--k", type=int, help="entries per ranking (default 30)")
    p_feat.set_defaults(func=cmd_features)

    p_pred = sub.add_parser("predict", help="label an unlabeled corpus")
    common(p_pred)
    p_pred.add_argument("--model-dir", help="directory written by train")
    p_pred.set_defaults(func=cmd_predict)

    return parser


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help / --version
        return int(exc.code or 0)
    try:
        args.file_config = (
            _load_config_file(args.config) if getattr(args, "config", None) else {}
        )
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (SatiraError, ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        log.debug("traceback", exc_info=True)
        return 2


if __name__ == "__main__":
    sys.exit(main())
