"""Command-line front end.

Subcommands: clean, boilerplate, measure, ttest, train, evaluate,
features, predict, plot-data. Exit codes: 0 success, 1 usage error,
2 data error. ``SATIRA_LOG`` sets the log level. Each subcommand takes
``--config``, ``--out`` and the options of its rows in ``_COMMANDS``, which
both the parser and the config lookup read. A JSON config file is keyed by
flag name without the dashes; flags win over it, its values must have the
row's JSON type, and keys the subcommand does not read are ignored.
``train`` rejects a flag that only models other than ``--model`` read.

Every output file starts with ``#`` metadata lines, all built by ``_header``
(a trained artifact's format tag follows them): the tool version, a hash of
the subcommand and of every option value it resolved (``--out`` and
``--config`` aside), and one ``# input <flag> sha256:...`` line per input
file it read (for ``--model-dir``, the run's ``run.json``), so results stay
attributable; all randomness of ``train`` derives from its ``--seed``.

Every output goes through ``_write``. Its first call in a command creates
``--out`` and fixes the header. Every option is resolved before the first
input is read, so a missing or mistyped option is reported first, and a
command that fails before its first write leaves no ``--out`` behind. Each
output is written under a temporary name and renamed when complete, so a
command that fails while writing leaves no partial file.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import logging
import math
import os
import sys
from pathlib import Path
from typing import Callable, Iterable, NamedTuple

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
from .fileio import file_checksum, json_object, load_json, parse_file
from .models import (
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
    ngram_frequencies,
    top_count,
)
from .stats import (
    NanPolicy,
    TTestVariant,
    density_histogram,
    density_to_csv,
    ttest_two_tailed,
)
from .stylometrics import (
    Lexicon,
    corpus_profile,
    parse_tagged_file,
    profile_from_csv,
    profile_to_csv,
)
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


class _Option(NamedTuple):
    flag: str  # without the leading dashes; also the config-file key
    # bool (a switch), int, float, str, _ngram_range, an input kind, or a tuple of choices
    kind: object
    default: object  # None: required
    help: str


def _input_file(value: str) -> Path:
    """Kind of an option naming an input file: output headers checksum the file."""
    return Path(value)


def _run_dir(value: str) -> Path:
    """Kind of an option naming a train output directory: output headers
    checksum its ``run.json``."""
    return Path(value) / "run.json"


_INPUT_KINDS = (_input_file, _run_dir)

# JSON types a config-file or run.json value may have, per kind (exact: a bool is not an int)
_JSON_TYPES = {bool: (bool,), int: (int,), float: (int, float), str: (str,),
               _input_file: (str,), _run_dir: (str,)}


def _config_value(args, flag: str):
    """The config file's value of ``flag``, checked against its row's kind."""
    kind, value = args.options[flag].kind, args.file_config[flag]
    if isinstance(kind, tuple):
        ok, expected = value in kind, "one of " + ", ".join(kind)
    elif kind is _ngram_range:
        ok = type(value) is str or (
            type(value) is list and len(value) == 2 and all(type(v) is int for v in value))
        expected = "'LO,HI' or [LO, HI]"
    else:
        ok = type(value) in _JSON_TYPES[kind]
        expected = " or ".join(t.__name__ for t in _JSON_TYPES[kind])
    if not ok:
        raise DataError(f"{args.config}: key {flag!r} must be {expected}, got {value!r}")
    return float(value) if kind is float else value


def _resolve(args, flag: str, default=None):
    """Flag value if given, else the config file's, else ``default`` or the
    row's default; an option left without a value is a usage error. An n-gram
    range comes back as ``[lo, hi]``, however it was given. Each value returned
    is recorded for ``_header``."""
    value = getattr(args, flag.replace("-", "_"))
    if value is None and flag in args.file_config:
        value = _config_value(args, flag)
    if value is None:
        value = args.options[flag].default if default is None else default
    if value is None:
        raise UsageError(f"missing required option --{flag}")
    if args.options[flag].kind is _ngram_range:
        value = _ngram_range(value)
    args.resolved[flag] = value
    return value


def _header(args) -> str:
    """Metadata lines of every output: the tool version, the hash of the
    subcommand and of every option value it has resolved, ``--out`` aside, and
    one ``# input <flag> sha256:<checksum>`` line per input file among them (an
    optional input left empty was not read). A line names the flag, never the
    path, since ``BodyReader`` reads ``key=value`` pairs from these lines and a
    path may hold ``=``."""
    options = {flag: value for flag, value in args.resolved.items() if flag != "out"}
    config = json.dumps({"command": args.command, "options": options},
                        sort_keys=True, ensure_ascii=False, default=str)
    lines = [f"# satira {__version__}",
             f"# config-hash {hashlib.sha256(config.encode('utf-8')).hexdigest()[:16]}"]
    for flag, value in sorted(options.items()):
        kind = args.options[flag].kind
        if kind in _INPUT_KINDS and value:
            lines.append(f"# input {flag} sha256:{file_checksum(kind(value))}")
    return "".join(line + "\n" for line in lines)


def _write(args, name: str, body: str | Iterable[str]) -> None:
    """Write the header, then ``body`` (text, or text chunks written as they
    come, so an output is never held whole) to ``name`` in ``--out``: to
    ``name.tmp``, renamed over ``name`` once complete and removed on any
    failure, so no partial output is left. The first call of a command
    creates ``--out`` and builds the header from the options resolved so
    far, so it is the same for every output of the command."""
    if args.header is None:
        Path(args.resolved["out"]).mkdir(parents=True, exist_ok=True)
        args.header = _header(args)
    path = Path(args.resolved["out"]) / name
    tmp = path.with_name(name + ".tmp")
    try:
        with tmp.open("w", encoding="utf-8") as f:
            f.write(args.header)
            f.writelines([body] if isinstance(body, str) else body)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    log.info("wrote %s", path)


# ---------------------------------------------------------------- clean


def cmd_clean(args) -> None:
    cfg = NormalizationConfig(
        strip_diacritics=not _resolve(args, "keep-diacritics"),
        strip_latin=not _resolve(args, "keep-latin"),
        strip_special=not _resolve(args, "keep-special"),
    )
    stop_path = _resolve(args, "stop-phrases")
    corpus = load_corpus(_resolve(args, "corpus"))
    stop = StopPhraseList.from_file(stop_path) if stop_path else None
    cleaned = clean_corpus(corpus, cfg, stop)
    _write(args, "cleaned.jsonl", corpus_to_jsonl(cleaned))


# ---------------------------------------------------------- boilerplate


def cmd_boilerplate(args) -> None:
    fraction = _resolve(args, "fraction")
    top_count(0, fraction)  # refuses a bad fraction before the corpus is read
    corpus = load_corpus(_resolve(args, "corpus"))
    for freq in ngram_frequencies(corpus, (1, 2, 3)):
        order = freq.ranking()
        k = top_count(len(order), fraction)
        top = list(freq.tsv(order[:k]))  # the candidates are the ranking's first lines
        _write(args, f"ngrams_{freq.n}.tsv", itertools.chain(top, freq.tsv(order[k:])))
        _write(args, f"candidates_{freq.n}.tsv", top)
        del order, top  # so the next n's ranking does not peak on top of them


# -------------------------------------------------------------- measure


def cmd_measure(args) -> None:
    corpus_path = _resolve(args, "corpus")
    cliches_path = _resolve(args, "cliches")
    emotions_path = _resolve(args, "emotions")
    tagged_path = _resolve(args, "tagged")
    corpus = load_corpus(corpus_path).labeled_only()
    if not corpus.documents:
        raise DataError(f"{corpus_path}: no labeled documents to measure")
    cliches = Lexicon.from_file(cliches_path, name="cliches")
    emotions = Lexicon.from_file(emotions_path, name="emotions")

    def parse_tagged(text: str):
        ratios = parse_tagged_file(text)
        if len(ratios) != len(corpus.documents):
            raise DataError(f"tagged input has {len(ratios)} documents, corpus {corpus_path} "
                            f"has {len(corpus.documents)} labeled documents")
        return ratios

    fpp_ratios = None
    if tagged_path:
        fpp_ratios = parse_file(tagged_path, parse_tagged)
    body = profile_to_csv(corpus_profile(corpus, cliches, emotions, fpp_ratios))
    _write(args, "measures.csv", body)


# measures column name -> its value in a MeasureVector, NaN where undefined
_COLUMNS = {
    "J": lambda v: v.journalistic_register,
    "S": lambda v: v.sentiment_intensity,
    "fpp": lambda v: math.nan if v.fpp_verb_ratio is None else v.fpp_verb_ratio,
}


def _measure_columns(args) -> dict[str, dict[Label, list[float]]]:
    profile = parse_file(_resolve(args, "measures"), profile_from_csv)
    return {name: {label: list(map(get, vectors)) for label, vectors in profile.items()}
            for name, get in _COLUMNS.items()}


# ---------------------------------------------------------------- ttest


def cmd_ttest(args) -> None:
    variant = TTestVariant(_resolve(args, "variant"))
    policy = NanPolicy(_resolve(args, "nan-policy"))
    measure = _resolve(args, "measure")
    columns = _measure_columns(args)
    run_all = measure == "all"
    names = ("J", "S", "fpp") if run_all else (measure,)
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
    _write(args, "ttest.txt", "".join(l + "\n" for l in out_lines))


# ------------------------------------------------------------ plot-data


def cmd_plot_data(args) -> None:
    bins = _resolve(args, "bins")
    columns = _measure_columns(args)
    for name, per_label in columns.items():
        for label, values in per_label.items():
            finite = [v for v in values if not math.isnan(v)]
            if not finite:
                log.info("skipping density for %s/%s: no finite values", name, label.value)
                continue
            est = density_histogram(finite, bins)
            _write(args, f"density_{name}_{label.value}.csv", density_to_csv(est))


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


def _vectorize(cfg: dict, docs):
    vec_cfg = VectorizerConfig(
        weighting=Weighting(cfg["weighting"]), analyzer=Analyzer(cfg["analyzer"]),
        ngram_range=tuple(cfg["ngram"]), max_features=cfg["max_features"], max_df=cfg["max_df"],
    )
    if vec_cfg.analyzer is Analyzer.CHAR:
        # vocabulary.txt cannot hold a feature with a tab or a newline, so refuse
        # before fitting rather than after
        bad = next((doc.id for doc in docs if "\t" in doc.text or "\n" in doc.text), None)
        if bad is not None:
            raise DataError(f"{cfg['corpus']}: training document {bad!r} holds a tab or a "
                            "newline, which a char n-gram cannot hold in vocabulary.txt; "
                            "run `satira clean` on the corpus first")
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
                            learning_rate=cfg["adam_lr"], seed=cfg["seed"])
    ids = encode_corpus(docs, index, cfg["max_seq_len"])
    model, history = cnn_train(model, ids, y, train_cfg)
    artifacts = {"model.txt": cnn_to_text(model), "token_index.txt": token_index_to_text(index)}
    return artifacts, {"embedding_coverage": coverage, "loss_history": history}


def _load_vectorizer_run(model_dir: Path, load_model):
    """A run's vocabulary and model, which must count the same features."""
    path = model_dir / "vocabulary.txt"
    vocab = load_vocabulary(path)
    model = load_model(model_dir / "model.txt")
    if len(vocab) != model.n_features:
        raise DataError(f"{path}: {len(vocab)} features, but the model has {model.n_features}")
    return vocab, model


def _predict_nb(model_dir: Path, docs) -> np.ndarray:
    vocab, model = _load_vectorizer_run(model_dir, load_nb)
    return nb_predict(model, transform(docs, vocab, vocab.config))[0]


def _predict_gbt(model_dir: Path, docs) -> np.ndarray:
    vocab, model = _load_vectorizer_run(model_dir, load_gbt)
    return gbt_predict(model, transform(docs, vocab, vocab.config).toarray())[1]


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
    # (run.json key, flag / config-file key, kind, default); default None = required
    options: tuple
    # fit(run config, train docs, 0/1 labels) -> ({filename: text or chunks}, run.json extras)
    fit: Callable
    # predict(model dir, docs) -> 0/1 labels
    predict: Callable


_VECTORIZER_OPTIONS = (
    ("weighting", "weighting", ("count", "tfidf"), "count"),
    ("analyzer", "analyzer", ("word", "char"), "word"),
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
        ("embeddings", "embeddings", _input_file, None),
        ("embed_dim", "embed-dim", int, 300),
        ("filters", "filters", int, 126),
        ("kernel", "kernel", int, 5),
        ("max_seq_len", "max-seq-len", int, 400),
        ("epochs", "epochs", int, 10),
        ("batch_size", "batch-size", int, 10),
        ("adam_lr", "learning-rate", float, 1e-3),
    ), _fit_cnn, _predict_cnn),
}


def _flag_readers() -> dict[str, dict[str, tuple]]:
    """flag -> {model: (kind, default)} for each PIPELINES model that reads it."""
    readers: dict[str, dict[str, tuple]] = {}
    for model, pipeline in PIPELINES.items():
        for _, flag, kind, default in pipeline.options:
            readers.setdefault(flag, {})[model] = (kind, default)
    return readers


_FLAG_READERS = _flag_readers()


def _reject_other_models_flags(args, model_kind: str) -> None:
    """A command-line flag that only other models read is an error; config-file
    keys are not checked, so one file can serve every model."""
    for flag, readers in _FLAG_READERS.items():
        if model_kind not in readers and getattr(args, flag.replace("-", "_")) is not None:
            raise DataError(f"--{flag} is read only by --model {', '.join(readers)}, "
                            f"not by --model {model_kind}")


def cmd_train(args) -> None:
    model_kind = _resolve(args, "model")
    _reject_other_models_flags(args, model_kind)
    corpus_path = _resolve(args, "corpus")
    split_cfg = SplitConfig(test_fraction=_resolve(args, "test-fraction"),
                            seed=_resolve(args, "seed"))
    pipeline = PIPELINES[model_kind]
    run_config = {
        "command": "train",
        "corpus": str(corpus_path),
        "model": model_kind,
        "seed": split_cfg.seed,
        "test_fraction": split_cfg.test_fraction,
        "version": __version__,
    }
    for key, flag, _, default in pipeline.options:
        run_config[key] = _resolve(args, flag, default)
    train_set, _ = split(load_corpus(corpus_path).labeled_only(), split_cfg)
    run_config["train_ids_sha256"] = _ids_digest(train_set)
    artifacts, outputs = pipeline.fit(run_config, train_set.documents, _binary_labels(train_set))
    for name, text in artifacts.items():
        _write(args, name, text)
    record = json.dumps(dict(run_config, **outputs), sort_keys=True, ensure_ascii=False, indent=2)
    _write(args, "run.json", record + "\n")
    log.info("trained %s model into %s", model_kind, args.resolved["out"])


# ------------------------------------------------------------- evaluate


# run.json keys that evaluate, features and predict read, with their kinds
_RUN_KEYS = {"model": str, "seed": int, "test_fraction": float}


def _ids_digest(corpus: LabeledCorpus) -> str:
    """sha256 of the sorted document ids as a JSON list, which no id can make ambiguous."""
    ids = json.dumps(sorted(doc.id for doc in corpus.documents))
    return hashlib.sha256(ids.encode("ascii")).hexdigest()


def _load_run(model_dir: Path) -> tuple[dict, SplitConfig]:
    run_path = model_dir / "run.json"
    if not run_path.exists():
        raise DataError(f"{model_dir}: missing run.json (not a training output dir?)")
    return parse_file(run_path, _run_from_text)


def _run_from_text(text: str) -> tuple[dict, SplitConfig]:
    run = json_object(text)
    for key, kind in _RUN_KEYS.items():
        if key not in run:
            raise DataError(f"missing key {key!r}")
        if type(run[key]) not in _JSON_TYPES[kind]:
            expected = " or ".join(t.__name__ for t in _JSON_TYPES[kind])
            raise DataError(f"key {key!r} must be {expected}, got {run[key]!r}")
    if run["model"] not in PIPELINES:
        raise DataError(f"unknown model {run['model']!r}")
    return run, SplitConfig(test_fraction=run["test_fraction"], seed=run["seed"])


def cmd_evaluate(args) -> None:
    model_dir = Path(_resolve(args, "model-dir"))
    corpus_path = _resolve(args, "corpus")
    run, split_cfg = _load_run(model_dir)
    train_set, test_set = split(load_corpus(corpus_path).labeled_only(), split_cfg)
    # a reordered, grown or other corpus splits differently: its "held-out"
    # documents may be ones the model trained on
    if "train_ids_sha256" not in run:
        raise DataError(f"{model_dir / 'run.json'}: missing key 'train_ids_sha256', so the "
                        f"training split of --corpus {corpus_path} cannot be checked")
    if run["train_ids_sha256"] != _ids_digest(train_set):
        raise DataError(f"{model_dir / 'run.json'}: the model was not trained on the "
                        f"training split of --corpus {corpus_path}")
    pred = PIPELINES[run["model"]].predict(model_dir, test_set.documents)
    gold = [d.label for d in test_set.documents]
    report = evaluate(_int_labels_to_enum(pred), gold)
    text = report_to_text(report)
    print(text, end="")
    _write(args, "report.txt", text)
    _write(args, "report.json", report_to_json(report))


# ------------------------------------------------------------- features


def cmd_features(args) -> None:
    model_dir = Path(_resolve(args, "model-dir"))
    k = _resolve(args, "k")
    run, _ = _load_run(model_dir)
    if run["model"] != "nb":
        raise DataError(
            f"feature rankings need a Naive Bayes model, run dir has {run['model']!r}"
        )
    vocab, model = _load_vectorizer_run(model_dir, load_nb)
    for score, suffix in (("log_ratio", ""), ("log_prob", "_logprob")):
        fake, real = top_informative_features(model, vocab, k, score=score)
        _write(args, f"features_fake{suffix}.tsv", ranking_to_tsv(fake))
        _write(args, f"features_real{suffix}.tsv", ranking_to_tsv(real))


# -------------------------------------------------------------- predict


def cmd_predict(args) -> None:
    corpus_path = _resolve(args, "corpus")
    model_dir = Path(_resolve(args, "model-dir"))
    run, _ = _load_run(model_dir)
    corpus = load_corpus(corpus_path)
    pred = PIPELINES[run["model"]].predict(model_dir, corpus.documents)
    _write(args, "predictions.jsonl", (
        json.dumps({"id": doc.id, "label": label.value}, ensure_ascii=False) + "\n"
        for doc, label in zip(corpus.documents, _int_labels_to_enum(pred))))


# ----------------------------------------------------------------- main


def _opt(flag: str, kind, default, text: str) -> _Option:
    """A row whose help ends with its default."""
    if default is None:
        text += " (required)"
    elif default is not False and default != "":
        text += f" (default {default})"
    return _Option(flag, kind, default, text)


def _model_options() -> tuple:
    """One train row per PIPELINES flag, added once however many models read it;
    its help names each model's default, which cmd_train passes to _resolve."""
    rows = []
    for flag, readers in _FLAG_READERS.items():
        uses: dict[str, list[str]] = {}
        for model, (_, default) in readers.items():
            use = "required" if default is None else f"default {default}"
            uses.setdefault(use, []).append(model)
        kind = next(iter(readers.values()))[0]
        rows.append(_Option(flag, kind, None, "; ".join(
            f"{', '.join(models)}: {use}" for use, models in uses.items())))
    return tuple(rows)


_CORPUS = _opt("corpus", _input_file, None, "corpus file (CSV if named *.csv, else JSONL)")
_MEASURES = _opt("measures", _input_file, None, "measures CSV from the measure subcommand")
_MODEL_DIR = _opt("model-dir", _run_dir, None, "directory written by train")
_OUT = _opt("out", str, "out", "output directory")

# subcommand -> (function, help, option rows besides --config and --out)
_COMMANDS = {
    "clean": (cmd_clean, "normalize text and drop stop phrases", (
        _CORPUS, _opt("stop-phrases", _input_file, "", "stop-phrase list file"),
        _opt("keep-diacritics", bool, False, "keep Arabic diacritics"),
        _opt("keep-latin", bool, False, "keep Latin letters"),
        _opt("keep-special", bool, False, "keep special characters"))),
    "boilerplate": (cmd_boilerplate, "n-gram dictionaries and top candidates", (
        _CORPUS, _opt("fraction", float, 0.1, "top fraction to keep"))),
    "measure": (cmd_measure, "per-article stylometric measures CSV", (
        _CORPUS, _opt("cliches", _input_file, None, "cliche lexicon file"),
        _opt("emotions", _input_file, None, "emotion lexicon file"),
        _opt("tagged", _input_file, "", "CoNLL-like surface<TAB>pos file"))),
    "ttest": (cmd_ttest, "two-sample t-test per measure", (
        _MEASURES, _opt("measure", ("J", "S", "fpp", "all"), "all", "measure column"),
        _opt("variant", ("pooled", "welch"), "pooled", "t-test variant"),
        # fpp may carry NaN for verbless documents, so omit is the working default
        _opt("nan-policy", ("propagate", "omit"), "omit", "NaN handling"))),
    "plot-data": (cmd_plot_data, "density CSVs for measure distributions", (
        _MEASURES, _opt("bins", int, 50, "histogram bins"))),
    "train": (cmd_train, "fit a model on the train split", (
        _CORPUS, _opt("model", tuple(PIPELINES), None, "model to fit"),
        _opt("test-fraction", float, 0.2, "held-out share of each class"),
        _opt("seed", int, 42, "seed of the split and of the model")) + _model_options()),
    "evaluate": (cmd_evaluate, "score the held-out split", (_MODEL_DIR, _CORPUS)),
    "features": (cmd_features, "most informative NB features", (
        _MODEL_DIR, _opt("k", int, 30, "entries per ranking"))),
    "predict": (cmd_predict, "label an unlabeled corpus", (_MODEL_DIR, _CORPUS)),
}


def build_parser() -> _Parser:
    parser = _Parser(prog="satira", description=__doc__)
    parser.add_argument("--version", action="version", version=f"satira {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, text, rows) in _COMMANDS.items():
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", help="JSON config file keyed by flag name; flags override it")
        rows += (_OUT,)
        for opt in rows:
            kwargs = ({"action": "store_true", "default": None} if opt.kind is bool
                      else {"choices": opt.kind} if isinstance(opt.kind, tuple)
                      else {"type": opt.kind} if opt.kind in (int, float) else {})
            p.add_argument(f"--{opt.flag}", help=opt.help, **kwargs)
        p.set_defaults(func=func, options={opt.flag: opt for opt in rows})
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
        args.file_config = load_json(args.config) if args.config else {}
        args.resolved = {}
        _resolve(args, "out")
        args.header = None  # built by the command's first _write
        args.func(args)
        return 0
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (SatiraError, ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        log.debug("traceback", exc_info=True)
        return 2
    except MemoryError as exc:
        print(f"error: {args.command} ran out of memory" + (f": {exc}" if str(exc) else ""),
              file=sys.stderr)
        log.debug("traceback", exc_info=True)
        return 2


if __name__ == "__main__":
    sys.exit(main())
