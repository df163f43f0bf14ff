import ast
import dataclasses
import hashlib
import itertools
import json
import math
import re
import shutil
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from satira import (DataError, Label, SplitConfig, __version__, cli, load_corpus,
                    ngram_frequency, preprocess, save_corpus, split, top_fraction, vectorize)
from satira.cli import _COMMANDS, _FLAG_READERS, PIPELINES, main
from satira.fileio import base64_rows, load_json
from satira.models.boosted_trees import gbt_from_text, gbt_to_text, load_gbt
from satira.models.convnet import cnn_from_text, cnn_to_text
from satira.models.embeddings import _token_index_from_text, token_index_to_text
from satira.models.naive_bayes import nb_from_text, nb_to_text
from satira.vectorize import vocabulary_from_text, vocabulary_to_text
from tests.conftest import synthetic_corpus, write_embedding_file
from tests.test_check_set import load_script
from tests.test_preprocess import reference_counts, reference_tsv


@pytest.fixture
def corpus_file(tmp_path):
    corpus = synthetic_corpus(50, np.random.default_rng(13))
    path = tmp_path / "corpus.jsonl"
    save_corpus(corpus, path)
    return path


def run(*argv) -> int:
    return main([str(a) for a in argv])


# small per-kind hyperparameters so every model trains in well under a second
MODEL_FLAGS = {
    "nb": (),
    "gbt": ("--rounds", 2),
    "cnn": ("--embed-dim", 16, "--filters", 8, "--kernel", 3, "--max-seq-len", 16,
            "--epochs", 2),
}


def train(corpus_file, kind, out, *flags) -> int:
    flags = MODEL_FLAGS[kind] + flags
    if kind == "cnn":
        tokens = sorted({t for d in load_corpus(corpus_file) for t in d.tokens})
        vectors = write_embedding_file(out.parent / "vec.txt", tokens, dim=16, seed=3)
        flags += ("--embeddings", vectors)
    return run("train", "--corpus", corpus_file, "--model", kind, *flags, "--out", out)


def evaluate_with_edited_run(corpus_file, tmp_path, capsys, edit):
    """Train nb, replace its run.json body by ``edit(record)``, check that
    evaluate exits 2 without a traceback; returns the run.json path and stderr."""
    model_dir = tmp_path / "run"
    assert train(corpus_file, "nb", model_dir) == 0
    path = model_dir / "run.json"
    header = [l for l in path.read_text(encoding="utf-8").splitlines() if l.startswith("#")]
    path.write_text("\n".join(header) + "\n" + edit(load_json(path)), encoding="utf-8")
    capsys.readouterr()
    assert run("evaluate", "--corpus", corpus_file, "--model-dir", model_dir,
               "--out", tmp_path / "eval") == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    return path, err


def header_hash(path) -> str:
    lines = path.read_text(encoding="utf-8").splitlines()
    return next(l for l in lines if l.startswith("# config-hash "))


def header_lines(path) -> list[str]:
    lines = path.read_text(encoding="utf-8").splitlines()
    return lines[:next(i for i, l in enumerate(lines) if not l.startswith("#"))]


def body(path) -> str:
    """The text of an output after its metadata lines."""
    return path.read_text(encoding="utf-8").split("\n", len(header_lines(path)))[-1]


def header_inputs(path) -> set[str]:
    return {l for l in header_lines(path) if l.startswith("# input ")}


def checksum(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()[:16]


class TestUsageErrors:
    def test_unknown_subcommand_exits_1(self, capsys):
        assert run("frobnicate") == 1
        assert "usage error" in capsys.readouterr().err

    def test_unknown_flag_exits_1(self, capsys):
        assert run("clean", "--bogus") == 1

    def test_missing_required_option_exits_1(self, tmp_path, capsys):
        assert run("clean", "--out", tmp_path / "o") == 1
        assert "--corpus" in capsys.readouterr().err

    def test_version_exits_0(self):
        assert run("--version") == 0

    def test_help_exits_0(self):
        assert run("--help") == 0

    # a subcommand has no flag for an option it does not read
    @pytest.mark.parametrize(
        "argv",
        [(cmd, "--seed", 7) for cmd in ("clean", "boilerplate", "measure", "ttest", "plot-data",
                                         "evaluate", "features", "predict")]
        + [(cmd, "--segmented") for cmd in ("clean", "boilerplate", "measure", "ttest",
                                             "plot-data", "train", "evaluate", "features",
                                             "predict")]
        + [(cmd, "--corpus", "x") for cmd in ("ttest", "plot-data", "features")]
        + [("clean", "--no-collapse-whitespace")],
        ids=lambda argv: " ".join(map(str, argv)),
    )
    def test_flag_the_subcommand_does_not_read_exits_1(self, capsys, argv):
        assert run(*argv) == 1
        assert f"unrecognized arguments: {argv[1]}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "model, flag, value, readers",
        [("nb", "--epochs", 3, "cnn"), ("nb", "--learning-rate", 0.1, "gbt, cnn"),
         ("nb", "--rounds", 5, "gbt"), ("gbt", "--embeddings", "v.txt", "cnn"),
         ("gbt", "--alpha", 0.5, "nb"), ("cnn", "--weighting", "tfidf", "nb, gbt")],
    )
    def test_flag_of_another_model_exits_2(self, corpus_file, tmp_path, capsys, model, flag,
                                           value, readers):
        assert run("train", "--corpus", corpus_file, "--model", model, flag, value,
                   "--out", tmp_path / "o") == 2
        err = capsys.readouterr().err
        assert f"error: {flag} is read only by --model {readers}, not by --model {model}" in err
        assert not (tmp_path / "o").exists()

    def test_config_key_of_another_model_is_ignored(self, corpus_file, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"epochs": 3, "rounds": 5, "learning-rate": 0.5}),
                          encoding="utf-8")
        assert run("train", "--config", config, "--corpus", corpus_file, "--model", "nb",
                   "--out", tmp_path / "o") == 0
        assert "epochs" not in load_json(tmp_path / "o" / "run.json")

    def test_bad_choice_exits_1(self, corpus_file, tmp_path, capsys):
        assert run("train", "--corpus", corpus_file, "--model", "nb", "--weighting", "bogus",
                   "--out", tmp_path / "o") == 1
        assert "--weighting: invalid choice: 'bogus'" in capsys.readouterr().err


class TestClean:
    def test_writes_cleaned_jsonl_with_header(self, tmp_path):
        raw = tmp_path / "raw.jsonl"
        raw.write_text(
            '{"id":"a","text":"خاص للحدود قالَ الناطق!","label":"fake"}\n',
            encoding="utf-8",
        )
        stops = tmp_path / "stops.txt"
        stops.write_text("خاص للحدود\n", encoding="utf-8")
        out = tmp_path / "out"
        assert run("clean", "--corpus", raw, "--stop-phrases", stops, "--out", out) == 0
        text = (out / "cleaned.jsonl").read_text(encoding="utf-8")
        assert text.startswith("# satira")
        record = json.loads([l for l in text.splitlines() if not l.startswith("#")][0])
        assert record["text"] == "قال الناطق"

    def test_keep_latin_alone_keeps_latin_letters(self, tmp_path):
        raw = tmp_path / "raw.jsonl"
        raw.write_text('{"id":"a","text":"قالَ  abc! الناطق","label":"fake"}\n',
                       encoding="utf-8")
        assert run("clean", "--corpus", raw, "--keep-latin", "--out", tmp_path / "o") == 0
        (record,) = load_corpus(tmp_path / "o" / "cleaned.jsonl")
        assert record.text == "قال abc الناطق"

    def test_data_error_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{broken\n", encoding="utf-8")
        assert run("clean", "--corpus", bad, "--out", tmp_path / "o") == 2
        assert "line 1" in capsys.readouterr().err

    def test_text_that_is_not_a_string_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"id":"a","text":"x"}\n{"id":"b","text":null}\n', encoding="utf-8")
        assert run("clean", "--corpus", bad, "--out", tmp_path / "o") == 2
        assert "line 2: 'text' must be a string, got null" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


class TestBoilerplate:
    def test_writes_dictionaries_and_candidates(self, corpus_file, tmp_path):
        out = tmp_path / "out"
        assert run("boilerplate", "--corpus", corpus_file, "--out", out) == 0
        for n in (1, 2, 3):
            assert (out / f"ngrams_{n}.tsv").exists()
            assert (out / f"candidates_{n}.tsv").exists()
        body = [
            l
            for l in (out / "ngrams_1.tsv").read_text(encoding="utf-8").splitlines()
            if l and not l.startswith("#")
        ]
        ngram, count = body[0].split("\t")
        assert int(count) >= 1

    @pytest.mark.parametrize("fraction", [0.05, 0.5, 1.0])
    def test_ranks_each_n_once_and_cuts_the_candidates_from_it(self, corpus_file, tmp_path,
                                                             fraction):
        ranking, calls = vectorize._Windows.ranking, []

        def counting(win, where, n, totals, stop):
            calls.append(n)
            return ranking(win, where, n, totals, stop)

        out = tmp_path / "out"
        with mock.patch.object(vectorize._Windows, "ranking", counting):
            assert run("boilerplate", "--corpus", corpus_file, f"--fraction={fraction}",
                       "--out", out) == 0
        assert calls == [1, 2, 3]
        corpus = load_corpus(corpus_file)
        for n in (1, 2, 3):
            top = top_fraction(ngram_frequency(corpus, n), fraction)
            assert body(out / f"candidates_{n}.tsv") == "".join(f"{k}\t{c}\n" for k, c in top)
            assert body(out / f"ngrams_{n}.tsv").startswith(body(out / f"candidates_{n}.tsv"))

    def test_streams_each_ranking_a_chunk_at_a_time(self, corpus_file, tmp_path):
        write, bodies = cli._write, {}

        def recording(args, name, body):
            bodies[name] = body if isinstance(body, str) else list(body)
            return write(args, name, bodies[name])

        out = tmp_path / "out"
        with mock.patch.object(preprocess, "_CHUNK", 2), mock.patch.object(cli, "_write",
                                                                           recording):
            assert run("boilerplate", "--corpus", corpus_file, "--out", out) == 0
        corpus = load_corpus(corpus_file)
        for n in (1, 2, 3):
            chunks = bodies[f"ngrams_{n}.tsv"]
            assert isinstance(chunks, list) and len(chunks) > 1
            assert all(chunk.count("\n") <= 2 for chunk in chunks)
            path = out / f"ngrams_{n}.tsv"
            written = path.read_bytes().split(b"\n", len(header_lines(path)))[-1]
            assert written == reference_tsv(reference_counts(corpus, n)).encode("utf-8")
            top = top_fraction(ngram_frequency(corpus, n), 0.1)
            assert body(out / f"candidates_{n}.tsv") == "".join(f"{k}\t{c}\n" for k, c in top)

    def test_failing_mid_stream_leaves_no_partial_output(self, corpus_file, tmp_path, capsys):
        tsv, calls, out = preprocess.NgramFrequency.tsv, [], tmp_path / "out"

        def failing(freq, order):
            # the second formatting of n = 2 is the rest of ngrams_2.tsv, after the candidates
            chunks = tsv(freq, order)
            calls.append(freq.n)
            yield from itertools.islice(chunks, 1)
            if calls == [1, 1, 2, 2]:
                assert (out / "ngrams_2.tsv.tmp").is_file()
                raise MemoryError
            yield from chunks

        with mock.patch.object(preprocess, "_CHUNK", 2), mock.patch.object(
                preprocess.NgramFrequency, "tsv", failing):
            assert run("boilerplate", "--corpus", corpus_file, "--out", out) == 2
        assert capsys.readouterr().err == "error: boilerplate ran out of memory\n"
        assert sorted(p.name for p in out.iterdir()) == ["candidates_1.tsv", "ngrams_1.tsv"]

    @pytest.mark.parametrize("fraction", ["0", "1.5", "nan", "-1"])
    def test_bad_fraction_exits_2_before_writing(self, corpus_file, tmp_path, capsys, fraction):
        out = tmp_path / "out"
        out.mkdir()
        assert run("boilerplate", "--corpus", corpus_file, f"--fraction={fraction}", "--out", out) == 2
        assert "fraction must be in (0, 1]" in capsys.readouterr().err
        assert list(out.iterdir()) == []


class TestMeasureTtestPlot:
    def make_measures(self, tmp_path, corpus_file):
        cliches = tmp_path / "cliches.txt"
        cliches.write_text("fake000\nfake001 fake002\n", encoding="utf-8")
        emotions = tmp_path / "emotions.txt"
        emotions.write_text("fake003\nreal003\n", encoding="utf-8")
        out = tmp_path / "m"
        code = run(
            "measure", "--corpus", corpus_file,
            "--cliches", cliches, "--emotions", emotions, "--out", out,
        )
        assert code == 0
        return out / "measures.csv"

    def test_measure_then_ttest(self, corpus_file, tmp_path, capsys):
        measures = self.make_measures(tmp_path, corpus_file)
        out = tmp_path / "t"
        assert run("ttest", "--measures", measures, "--out", out) == 0
        printed = capsys.readouterr().out
        assert "measure=J" in printed and "measure=S" in printed
        assert (out / "ttest.txt").exists()

    def test_ttest_identical_columns(self, tmp_path, capsys):
        rows = ["doc_id,label,J,S,fpp_ratio"]
        values = [0.1, 0.2, 0.3, 0.4]
        for i, v in enumerate(values):
            rows.append(f"f{i},fake,{v},{v},")
            rows.append(f"r{i},real,{v},{v},")
        measures = tmp_path / "measures.csv"
        measures.write_text("".join(r + "\n" for r in rows), encoding="utf-8")
        code = run(
            "ttest", "--measures", measures, "--measure", "J", "--out", tmp_path / "t"
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "statistic=0.0" in printed
        assert "p_value=1.0" in printed

    @pytest.mark.parametrize(
        "row, message",
        [("r9,faek,0.1,0.2,", "line 6: unknown label 'faek'; expected 'fake' or 'real'"),
         ("r9,real,x,0.2,", "line 6: could not convert string to float: 'x'"),
         ("r9,real,1.5,0.2,", "line 6: measure 1.5 outside [0, 1]"),
         ("r9,real,inf,0.2,", "line 6: measure inf outside [0, 1]"),
         ("r9,real,0.1,nan,", "line 6: measure nan outside [0, 1]"),
         ("r9,real,0.1,0.2,-3", "line 6: verb ratio -3.0 outside [0, 1]")],
        ids=["label", "float", "J-above-1", "J-inf", "S-nan", "fpp-negative"],
    )
    def test_ttest_rejects_bad_measure_row(self, tmp_path, capsys, row, message):
        rows = ["# satira 0.1.0", "doc_id,label,J,S,fpp_ratio",
                "f0,fake,0.1,0.1,", "f1,fake,0.2,0.3,", "r0,real,0.3,0.2,", row]
        measures = tmp_path / "measures.csv"
        measures.write_text("".join(r + "\n" for r in rows), encoding="utf-8")
        assert run("ttest", "--measures", measures, "--out", tmp_path / "t") == 2
        assert f"{measures}: {message}" in capsys.readouterr().err

    def test_measure_rejects_id_the_csv_cannot_hold(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text('{"id": "a,1", "text": "x y", "label": "fake"}\n'
                          '{"id": "b", "text": "x z", "label": "real"}\n', encoding="utf-8")
        lexicon = tmp_path / "lexicon.txt"
        lexicon.write_text("x\n", encoding="utf-8")
        out = tmp_path / "m"
        assert run("measure", "--corpus", corpus, "--cliches", lexicon,
                   "--emotions", lexicon, "--out", out) == 2
        assert "document id 'a,1' holds a comma" in capsys.readouterr().err
        assert not (out / "measures.csv").exists()

    def test_ttest_reads_hash_id_after_the_header(self, tmp_path, capsys):
        rows = ["# satira 0.1.0", "doc_id,label,J,S,fpp_ratio", "#a,fake,0.1,0.1,",
                "f1,fake,0.2,0.3,", "f2,fake,0.3,0.3,", "r0,real,0.3,0.2,", "r1,real,0.4,0.2,"]
        measures = tmp_path / "measures.csv"
        measures.write_text("".join(r + "\n" for r in rows), encoding="utf-8")
        assert run("ttest", "--measures", measures, "--measure", "J",
                   "--out", tmp_path / "t") == 0
        assert "n_fake=3 n_real=2" in capsys.readouterr().out

    def test_plot_data_rejects_out_of_range_measure(self, tmp_path, capsys):
        measures = tmp_path / "measures.csv"
        measures.write_text("doc_id,label,J,S,fpp_ratio\nf0,fake,1.5,0.1,\n", encoding="utf-8")
        assert run("plot-data", "--measures", measures, "--out", tmp_path / "p") == 2
        assert f"{measures}: line 2: measure 1.5 outside [0, 1]" in capsys.readouterr().err

    @pytest.mark.parametrize("record, message", [
        ('{"id": "u", "text": "x y"}', "{corpus}: no labeled documents to measure"),
        ('{"id": "d0", "text": " ", "label": "fake"}',
         "document 'd0' has no tokens; score undefined"),
    ], ids=["unlabeled", "no-tokens"])
    def test_measure_refuses_a_corpus_it_cannot_measure(self, tmp_path, capsys, record, message):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(record + "\n", encoding="utf-8")
        lexicon = tmp_path / "lexicon.txt"
        lexicon.write_text("x\n", encoding="utf-8")
        out = tmp_path / "m"
        assert run("measure", "--corpus", corpus, "--cliches", lexicon,
                   "--emotions", lexicon, "--out", out) == 2
        assert capsys.readouterr().err == f"error: {message.format(corpus=corpus)}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["ttest", "plot-data"])
    def test_measures_without_data_rows_exit_2_naming_the_file(self, tmp_path, capsys, command):
        measures = tmp_path / "measures.csv"
        measures.write_text("# satira 0.1.0\ndoc_id,label,J,S,fpp_ratio\n\n", encoding="utf-8")
        out = tmp_path / "o"
        assert run(command, "--measures", measures, "--out", out) == 2
        assert f"error: {measures}: measures CSV has no data rows" in capsys.readouterr().err
        assert not out.exists()

    def test_plot_data_densities(self, corpus_file, tmp_path):
        measures = self.make_measures(tmp_path, corpus_file)
        out = tmp_path / "p"
        assert run("plot-data", "--measures", measures, "--bins", 5, "--out", out) == 0
        body = (out / "density_J_fake.csv").read_text(encoding="utf-8")
        data_lines = [l for l in body.splitlines() if l and not l.startswith("#")]
        assert data_lines[0] == "bin_left,bin_right,density"
        assert len(data_lines) == 6

    def test_plot_data_failing_before_its_first_write_leaves_no_out(self, corpus_file, tmp_path,
                                                                    capsys):
        measures = self.make_measures(tmp_path, corpus_file)
        out = tmp_path / "p"
        assert run("plot-data", "--measures", measures, "--bins", 0, "--out", out) == 2
        assert "Traceback" not in capsys.readouterr().err
        assert not out.exists()


class TestTrainEvaluatePredict:
    def test_nb_end_to_end_perfect_on_separable(self, corpus_file, tmp_path, capsys):
        model_dir = tmp_path / "run"
        code = run(
            "train", "--corpus", corpus_file, "--model", "nb",
            "--weighting", "count", "--out", model_dir,
        )
        assert code == 0
        assert (model_dir / "model.txt").exists()
        assert (model_dir / "vocabulary.txt").exists()
        out = tmp_path / "eval"
        code = run(
            "evaluate", "--corpus", corpus_file, "--model-dir", model_dir, "--out", out
        )
        assert code == 0
        report = load_json(out / "report.json")
        assert report["accuracy"] == 1.0

    def test_gbt_end_to_end(self, corpus_file, tmp_path):
        model_dir = tmp_path / "run"
        code = run(
            "train", "--corpus", corpus_file, "--model", "gbt", "--out", model_dir,
        )
        assert code == 0
        out = tmp_path / "eval"
        assert run("evaluate", "--corpus", corpus_file, "--model-dir", model_dir,
                   "--out", out) == 0
        report = load_json(out / "report.json")
        # tiny 50-per-class pipeline check; the >=99% bound runs at
        # acceptance scale in test_acceptance
        assert report["accuracy"] >= 0.9

    @pytest.mark.parametrize("char", ["\t", "\n"])
    def test_char_train_refuses_a_tab_or_newline_naming_corpus_and_document(
            self, tmp_path, capsys, char):
        # such a corpus used to fit, then stop at writing vocabulary.txt with an
        # error that named neither the corpus nor the document
        corpus = synthetic_corpus(20, np.random.default_rng(5))
        docs = list(corpus.documents)
        for i in (3, 7, 25):
            docs[i] = dataclasses.replace(docs[i], text=docs[i].text.replace(" ", char, 1))
        path = tmp_path / "corpus.jsonl"
        save_corpus(type(corpus)(tuple(docs)), path)
        train_ids = {d.id for d in split(load_corpus(path).labeled_only(), SplitConfig())[0]
                     .documents}
        first = next(docs[i].id for i in (3, 7, 25) if docs[i].id in train_ids)
        capsys.readouterr()
        out = tmp_path / "char"
        assert train(path, "nb", out, "--analyzer", "char", "--ngram", "1,3") == 2
        err = capsys.readouterr().err
        assert f"error: {path}: training document {first!r} holds a tab or a newline" in err
        assert "satira clean" in err and "Traceback" not in err and not out.exists()
        assert train(path, "nb", tmp_path / "word") == 0

    def test_cnn_end_to_end_small(self, corpus_file, tmp_path):
        corpus = synthetic_corpus(50, np.random.default_rng(13))
        tokens = sorted({t for d in corpus for t in d.tokens})
        vectors = write_embedding_file(tmp_path / "vec.txt", tokens, dim=16, seed=3)
        model_dir = tmp_path / "run"
        code = run(
            "train", "--corpus", corpus_file, "--model", "cnn",
            "--embeddings", vectors, "--embed-dim", 16,
            "--filters", 8, "--kernel", 3, "--max-seq-len", 16,
            "--epochs", 8, "--learning-rate", 0.01, "--out", model_dir,
        )
        assert code == 0
        out = tmp_path / "eval"
        assert run("evaluate", "--corpus", corpus_file, "--model-dir", model_dir,
                   "--out", out) == 0
        report = load_json(out / "report.json")
        assert report["accuracy"] >= 0.9

    def test_cnn_train_refuses_non_finite_vectors(self, corpus_file, tmp_path, capsys):
        tokens = sorted({t for d in load_corpus(corpus_file) for t in d.tokens})
        vectors = write_embedding_file(tmp_path / "vec.txt", tokens, dim=16, seed=3)
        lines = vectors.read_text(encoding="utf-8").split("\n")
        lines[5] = lines[5].rsplit(" ", 1)[0] + " nan"
        vectors.write_text("\n".join(lines), encoding="utf-8")
        out = tmp_path / "run"
        assert run("train", "--corpus", corpus_file, "--model", "cnn", *MODEL_FLAGS["cnn"],
                   "--embeddings", vectors, "--out", out) == 2
        assert f"{vectors}: line 6: vector values must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_features_subcommand(self, corpus_file, tmp_path):
        model_dir = tmp_path / "run"
        run("train", "--corpus", corpus_file, "--model", "nb", "--out", model_dir)
        out = tmp_path / "feat"
        assert run("features", "--model-dir", model_dir, "--k", 5, "--out", out) == 0
        for name in ("features_fake.tsv", "features_real.tsv",
                     "features_fake_logprob.tsv", "features_real_logprob.tsv"):
            assert (out / name).exists()
        body = [
            l for l in (out / "features_fake.tsv").read_text(encoding="utf-8").splitlines()
            if l and not l.startswith("#")
        ]
        assert len(body) == 5
        assert body[0].split("\t")[1].startswith("fake")

    def test_features_rejects_non_nb(self, corpus_file, tmp_path, capsys):
        model_dir = tmp_path / "run"
        run("train", "--corpus", corpus_file, "--model", "gbt", "--rounds", 2,
            "--out", model_dir)
        assert run("features", "--model-dir", model_dir, "--out", tmp_path / "f") == 2

    def test_predict_labels_unlabeled_corpus(self, corpus_file, tmp_path):
        model_dir = tmp_path / "run"
        run("train", "--corpus", corpus_file, "--model", "nb", "--out", model_dir)
        unlabeled = tmp_path / "new.jsonl"
        unlabeled.write_text(
            '{"id":"n1","text":"fake001 fake002 fake003"}\n'
            '{"id":"n2","text":"real001 real002 real003"}\n',
            encoding="utf-8",
        )
        out = tmp_path / "pred"
        assert run("predict", "--corpus", unlabeled, "--model-dir", model_dir,
                   "--out", out) == 0
        lines = [
            json.loads(l)
            for l in (out / "predictions.jsonl").read_text(encoding="utf-8").splitlines()
            if not l.startswith("#")
        ]
        assert lines[0] == {"id": "n1", "label": "fake"}
        assert lines[1] == {"id": "n2", "label": "real"}

    def test_train_failing_before_its_first_write_leaves_no_out(self, corpus_file, tmp_path,
                                                                 capsys):
        missing = tmp_path / "missing.txt"
        out = tmp_path / "run"
        assert run("train", "--corpus", corpus_file, "--model", "cnn", "--embeddings", missing,
                   "--out", out) == 2
        assert f"error: {missing}: [Errno 2]" in capsys.readouterr().err
        assert not out.exists()

    def test_gbt_deeper_than_the_recursion_limit_trains(self, tmp_path, capsys):
        # "w" counted 1..1500 times with alternating labels: a chain of ~1500 splits,
        # whose recursive growth ended in a RecursionError traceback
        corpus = tmp_path / "deep.jsonl"
        corpus.write_text("".join(json.dumps({"id": f"d{i}", "text": "w " * (i + 1) + "x",
                                              "label": ("fake", "real")[i % 2]}) + "\n"
                                  for i in range(1500)), encoding="utf-8")
        out = tmp_path / "o"
        assert run("train", "--corpus", corpus, "--model", "gbt", "--rounds", 1, "--depth", 5000,
                   "--max-df", 1, "--test-fraction", 0.0001, "--out", out) == 0
        (tree,) = load_gbt(out / "model.txt").trees
        assert tree.depth() > 1000

    def test_zero_reg_lambda_exits_2(self, corpus_file, tmp_path, capsys):
        assert train(corpus_file, "gbt", tmp_path / "run", "--reg-lambda", 0) == 2
        assert "error: reg_lambda must be finite and > 0, got 0.0" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value, name", [
        ("--kernel", 0, "kernel_size"), ("--kernel", -1, "kernel_size"),
        ("--filters", 0, "n_filters"), ("--filters", -1, "n_filters")])
    def test_cnn_shape_below_one_exits_2_naming_it(self, corpus_file, tmp_path, capsys, flag,
                                                   value, name):
        out = tmp_path / "run"
        assert train(corpus_file, "cnn", out, flag, value) == 2
        err = capsys.readouterr().err
        assert f"error: {name} must be >= 1, got {value}" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["nb", "gbt", "cnn"])
    def test_negative_seed_exits_2_for_every_model(self, corpus_file, tmp_path, capsys, kind):
        out = tmp_path / "run"
        assert train(corpus_file, kind, out, "--seed=-1") == 2
        assert capsys.readouterr().err == "error: seed must be non-negative, got -1\n"
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["nb", "gbt", "cnn"])
    def test_one_class_corpus_exits_2_for_every_model(self, corpus_file, tmp_path, capsys, kind):
        fake = tmp_path / "fake.jsonl"
        corpus = load_corpus(corpus_file)
        save_corpus(corpus.with_documents([d for d in corpus if d.label is Label.FAKE]), fake)
        out = tmp_path / "run"
        assert train(fake, kind, out) == 2
        assert "error: class 'real' has 0 document(s)" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["nb", "cnn"])
    def test_predict_empty_corpus_writes_no_predictions(self, corpus_file, tmp_path, kind):
        model_dir = tmp_path / "run"
        assert train(corpus_file, kind, model_dir) == 0
        empty = tmp_path / "empty.jsonl"
        empty.write_text("", encoding="utf-8")
        out = tmp_path / "pred"
        assert run("predict", "--corpus", empty, "--model-dir", model_dir, "--out", out) == 0
        lines = (out / "predictions.jsonl").read_text(encoding="utf-8").splitlines()
        assert lines and all(l.startswith("#") for l in lines)

    @pytest.mark.parametrize("key", ["model", "seed", "test_fraction"])
    def test_run_json_missing_key_exits_2(self, corpus_file, tmp_path, capsys, key):
        path, err = evaluate_with_edited_run(
            corpus_file, tmp_path, capsys,
            lambda record: json.dumps({k: v for k, v in record.items() if k != key}))
        assert f"{path}: missing key {key!r}" in err

    @pytest.mark.parametrize(
        "key, value",
        [("model", 3), ("seed", "x"), ("seed", True), ("seed", 7.0), ("test_fraction", "0.2")],
    )
    def test_run_json_wrong_type_exits_2(self, corpus_file, tmp_path, capsys, key, value):
        path, err = evaluate_with_edited_run(
            corpus_file, tmp_path, capsys, lambda record: json.dumps(dict(record, **{key: value})))
        assert f"{path}: key {key!r} must be" in err

    @pytest.mark.parametrize("value", [1.5, 0])
    def test_run_json_test_fraction_out_of_range_exits_2(self, corpus_file, tmp_path, capsys,
                                                          value):
        path, err = evaluate_with_edited_run(
            corpus_file, tmp_path, capsys,
            lambda record: json.dumps(dict(record, test_fraction=value)))
        assert f"{path}: test_fraction must lie strictly between 0 and 1" in err

    def test_run_json_negative_seed_exits_2(self, corpus_file, tmp_path, capsys):
        path, err = evaluate_with_edited_run(
            corpus_file, tmp_path, capsys, lambda record: json.dumps(dict(record, seed=-1)))
        assert f"{path}: seed must be non-negative, got -1" in err

    def test_run_json_with_segmented_key_still_loads(self, corpus_file, tmp_path):
        model_dir = tmp_path / "run"
        assert train(corpus_file, "nb", model_dir) == 0
        path = model_dir / "run.json"
        path.write_text(path.read_text(encoding="utf-8").replace(
            '  "seed"', '  "segmented": false,\n  "seed"'), encoding="utf-8")
        assert load_json(path)["segmented"] is False
        assert run("evaluate", "--corpus", corpus_file, "--model-dir", model_dir,
                   "--out", tmp_path / "eval") == 0

    def test_run_json_with_stratified_key_still_loads(self, corpus_file, tmp_path):
        model_dir = tmp_path / "run"
        assert train(corpus_file, "nb", model_dir) == 0
        path = model_dir / "run.json"
        assert "stratified" not in load_json(path)
        path.write_text(path.read_text(encoding="utf-8").replace(
            '  "seed"', '  "stratified": true,\n  "seed"'), encoding="utf-8")
        assert load_json(path)["stratified"] is True
        assert run("evaluate", "--corpus", corpus_file, "--model-dir", model_dir,
                   "--out", tmp_path / "eval") == 0

    @pytest.mark.parametrize("body", ["3", "{"])
    def test_run_json_not_an_object_exits_2(self, corpus_file, tmp_path, capsys, body):
        path, err = evaluate_with_edited_run(corpus_file, tmp_path, capsys, lambda record: body)
        assert f"{path}: " in err

    def test_predict_missing_text_exits_2_with_line(self, corpus_file, tmp_path, capsys):
        model_dir = tmp_path / "run"
        run("train", "--corpus", corpus_file, "--model", "nb", "--out", model_dir)
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"id":"x1","text":"ok"}\n{"id":"x2"}\n', encoding="utf-8")
        assert run("predict", "--corpus", bad, "--model-dir", model_dir,
                   "--out", tmp_path / "p") == 2
        assert "line 2" in capsys.readouterr().err

    # corruption -> (pattern, replacement), made once
    NON_FINITE = {
        "leaf-nan": (r"(?m)^(\d+\tleaf\t)\S+$", r"\g<1>nan"),
        "threshold-inf": (r"(?m)^(\d+\tsplit\t\d+\t)[^\t]+", r"\g<1>inf"),
        "row-nan": (r"(?m)^0\t.*$", "0\tnan\tnan"),
        "prior-nan": (r"(?m)^prior\t.*$", "prior\tnan\tnan"),
        "alpha-nan": (r"alpha=\S+", "alpha=nan"),
    }

    @pytest.mark.parametrize(
        "kind, filename, corruption",
        [("nb", "model.txt", "cut"), ("gbt", "model.txt", "cut"), ("cnn", "model.txt", "cut"),
         ("cnn", "token_index.txt", "tag"), ("nb", "vocabulary.txt", "key"),
         ("nb", "model.txt", "byte"), ("cnn", "token_index.txt", "cut"),
         ("cnn", "model.txt", "vocab"), ("cnn", "model.txt", "pad-row"),
         ("gbt", "model.txt", "leaf-nan"), ("gbt", "model.txt", "threshold-inf"),
         ("nb", "model.txt", "row-nan"), ("nb", "model.txt", "prior-nan"),
         ("nb", "model.txt", "alpha-nan")],
        ids=["nb-model.txt", "gbt-model.txt", "cnn-model.txt", "cnn-token_index.txt",
             "nb-vocabulary.txt", "nb-model.txt-not-utf8", "cnn-token_index.txt-cut",
             "cnn-model.txt-huge-vocab", "cnn-model.txt-nonzero-pad-row",
             "gbt-model.txt-nan-leaf", "gbt-model.txt-inf-threshold", "nb-model.txt-nan-row",
             "nb-model.txt-nan-prior", "nb-model.txt-nan-alpha"],
    )
    def test_corrupt_artifact_exits_2(self, corpus_file, tmp_path, capsys, kind, filename,
                                      corruption):
        model_dir = tmp_path / "run"
        assert train(corpus_file, kind, model_dir) == 0
        path = model_dir / filename
        data = path.read_bytes()
        lines = data.decode("utf-8").splitlines(keepends=True)
        if corruption == "cut":
            corrupted = "".join(lines[:-5])  # cut the tail
        elif corruption == "key":
            corrupted = re.sub(r" n_docs=\d+", "", "".join(lines))  # drop a header key
            assert corrupted != "".join(lines)
        elif corruption == "vocab":  # more embedding rows than any file could hold
            corrupted = re.sub(r"(?m)( vocab=|^embedding )\d+", r"\g<1>1000000000000",
                               "".join(lines))
            assert corrupted.count("1000000000000") == 2
        elif corruption == "pad-row":  # padding/OOV would no longer embed to zero
            corrupted, count = re.subn(r"(?m)^(embedding \d+ (\d+)\n)0$",
                                       lambda m: m[1] + next(base64_rows(np.ones(int(m[2])))),
                                       "".join(lines))
            assert count == 1
        elif corruption in self.NON_FINITE:  # a value the fit never writes
            corrupted, count = re.subn(*self.NON_FINITE[corruption], "".join(lines), count=1)
            assert count == 1
        elif corruption == "tag":  # wrong tag, on its line after the CLI's metadata
            corrupted, count = re.subn(r"(?m)^# satira-token-index v1$",
                                       "# satira-token-index v0", "".join(lines))
            assert count == 1 and not lines[0].startswith("# satira-token-index")
        else:
            corrupted = data[: len(data) // 2] + b"\xff" + data[len(data) // 2:]  # not UTF-8
        path.write_bytes(corrupted if isinstance(corrupted, bytes) else corrupted.encode("utf-8"))
        capsys.readouterr()
        assert run("evaluate", "--corpus", corpus_file, "--model-dir", model_dir,
                   "--out", tmp_path / "eval") == 2
        err = capsys.readouterr().err
        assert str(path) in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("kind, command", [
        ("nb", "evaluate"), ("gbt", "evaluate"), ("nb", "predict"), ("gbt", "predict"),
        ("nb", "features")])
    def test_vocabulary_cut_at_a_line_exits_2_naming_it(self, corpus_file, tmp_path, capsys,
                                                        kind, command):
        model_dir = tmp_path / "run"
        assert train(corpus_file, kind, model_dir) == 0
        path = model_dir / "vocabulary.txt"
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        path.write_text("".join(lines[:-1]), encoding="utf-8")
        n_features = len(vocabulary_from_text("".join(lines)))
        corpus = () if command == "features" else ("--corpus", corpus_file)
        capsys.readouterr()
        assert run(command, *corpus, "--model-dir", model_dir, "--out", tmp_path / "o") == 2
        err = capsys.readouterr().err
        assert f"error: {path}: {n_features - 1} features, but the model has {n_features}" in err

    @pytest.mark.parametrize("idf", ["nan", "inf", "-5.0", "0.5"])
    def test_vocabulary_idf_that_fit_never_writes_exits_2(self, corpus_file, tmp_path, capsys,
                                                          idf):
        # such a vocabulary used to load, and evaluate scored on its weights; the
        # flags are the check set's TF-IDF char run (nbc)
        model_dir = tmp_path / "run"
        flags = ("--weighting", "tfidf", "--analyzer", "char", "--ngram", "2,4")
        assert train(corpus_file, "nb", model_dir, *flags) == 0
        path = model_dir / "vocabulary.txt"
        lines = path.read_text(encoding="utf-8").split("\n")
        row = next(i for i, line in enumerate(lines) if not line.startswith("#"))
        lines[row] = lines[row].rsplit("\t", 1)[0] + "\t" + idf
        path.write_text("\n".join(lines), encoding="utf-8")
        capsys.readouterr()
        for command in ("evaluate", "predict"):
            out = tmp_path / command
            assert run(command, "--corpus", corpus_file, "--model-dir", model_dir,
                       "--out", out) == 2
            err = capsys.readouterr().err
            message = f"idf must be finite and >= 1, got {float(idf)!r}"
            assert f"error: {path}: line {row + 1}: {message}" in err
            assert "Traceback" not in err and not out.exists()

    @pytest.mark.parametrize("kind, filename, key, value, message", [
        ("gbt", "model.txt", "n_rounds", "0", "n_rounds must be >= 1, got 0"),
        ("gbt", "model.txt", "max_depth", "-1", "max_depth must be >= 0, got -1"),
        ("gbt", "model.txt", "learning_rate", "nan", "learning_rate must be finite and > 0"),
        ("gbt", "model.txt", "learning_rate", "-0.5", "learning_rate must be finite and > 0"),
        ("gbt", "model.txt", "reg_lambda", "-1.0", "reg_lambda must be finite and > 0"),
        ("gbt", "model.txt", "base_score", "inf", "base_score must be finite, got inf"),
        ("cnn", "model.txt", "max_len", "2", "max_sequence_length 2 must be >= kernel_size 3"),
        ("gbt", "model.txt", "n_features", "-1", "header n_features=-1 must be >= 0"),
        ("nb", "model.txt", "n_features", "-1", "header n_features=-1 must be >= 0"),
        ("nb", "vocabulary.txt", "n_docs", "0", "header n_docs=0 must be >= 1"),
    ])
    def test_impossible_header_value_exits_2_naming_the_file(
            self, corpus_file, tmp_path, capsys, kind, filename, key, value, message):
        model_dir = tmp_path / "run"
        assert train(corpus_file, kind, model_dir) == 0
        path = model_dir / filename
        text, count = re.subn(rf" {key}=\S+", f" {key}={value}", path.read_text(encoding="utf-8"))
        assert count == 1
        path.write_text(text, encoding="utf-8")
        capsys.readouterr()
        assert run("evaluate", "--corpus", corpus_file, "--model-dir", model_dir,
                   "--out", tmp_path / "eval") == 2
        err = capsys.readouterr().err
        assert f"error: {path}: {message}" in err
        assert "Traceback" not in err


# one case per outside input: (file name, file text, argv given the bad file, the corpus
# fixture and a good lexicon, what stderr holds after "<bad file>: ", with {corpus} for
# the corpus fixture's path)
BAD_INPUTS = {
    "jsonl-corpus": (
        "c.jsonl", '# satira 0.1.0\n{"id":"a","text":"x","label":"fake"}\n{broken\n',
        lambda bad, corpus, lex: ("clean", "--corpus", bad), "line 3: malformed JSON record"),
    "csv-corpus": (
        "c.csv", 'id,text,label\n"a","one\ntwo\nthree",fake\nb,y,bogus\n',
        lambda bad, corpus, lex: ("clean", "--corpus", bad), "line 5: unknown label 'bogus'"),
    "stop-phrases-long": (
        "stops.txt", "a\nb c d e\n",
        lambda bad, corpus, lex: ("clean", "--corpus", corpus, "--stop-phrases", bad),
        "phrase 'b c d e' must have 1 to 3 tokens"),
    "stop-phrases-duplicate": (
        "stops.txt", "a\n# comment\na\n",
        lambda bad, corpus, lex: ("clean", "--corpus", corpus, "--stop-phrases", bad),
        "duplicate phrase 'a'"),
    "lexicon-empty": (
        "cliches.txt", "# no phrase\n\n",
        lambda bad, corpus, lex: ("measure", "--corpus", corpus, "--cliches", bad,
                                  "--emotions", lex),
        "lexicon 'cliches' is empty"),
    "lexicon-long": (
        "emotions.txt", "a b c d\n",
        lambda bad, corpus, lex: ("measure", "--corpus", corpus, "--cliches", lex,
                                  "--emotions", bad),
        "lexicon phrase 'a b c d' must have 1 to 3 tokens"),
    "tagged": (
        "tags.txt", "# tagger output\nنروي\tVERB\n\nno-tab-here\n",
        lambda bad, corpus, lex: ("measure", "--corpus", corpus, "--cliches", lex,
                                  "--emotions", lex, "--tagged", bad),
        "line 4: expected surface<TAB>pos"),
    "tagged-count": (
        "tags.txt", "نروي\tVERB\n",
        lambda bad, corpus, lex: ("measure", "--corpus", corpus, "--cliches", lex,
                                  "--emotions", lex, "--tagged", bad),
        "tagged input has 1 documents, corpus {corpus} has 100 labeled documents"),
    "measures": (
        "measures.csv", "# satira 0.1.0\ndoc_id,label,J,S,fpp_ratio\nf0,fake,0.1,0.1,\nr0,real\n",
        lambda bad, corpus, lex: ("ttest", "--measures", bad), "line 4: expected 5 fields"),
    "embeddings": (
        "vec.txt", "2 2\nfake000 0.1 0.2\nfake001 0.1\n",
        lambda bad, corpus, lex: ("train", "--corpus", corpus, "--model", "cnn",
                                  "--embeddings", bad, "--embed-dim", 2),
        "line 3: expected token plus 2 values, got 1"),
    "run-json": (
        "run.json", '# satira 0.1.0\n# config-hash 0\n{\n  "model": "nb",\n  "seed": 42,,\n}\n',
        lambda bad, corpus, lex: ("evaluate", "--model-dir", bad.parent, "--corpus", corpus),
        "line 5: Expecting property name"),
    "config": (
        "config.json", '{\n  "seed": 7,\n  "model": nb\n}\n',
        lambda bad, corpus, lex: ("train", "--config", bad, "--corpus", corpus),
        "line 3: Expecting value"),
}


@pytest.mark.parametrize("case", BAD_INPUTS)
def test_bad_input_exits_2_naming_file_and_line(corpus_file, tmp_path, capsys, case):
    name, text, argv, expected = BAD_INPUTS[case]
    lex = tmp_path / "lex.txt"
    lex.write_text("fake000\n", encoding="utf-8")
    bad = tmp_path / "bad" / name
    bad.parent.mkdir()
    bad.write_text(text, encoding="utf-8")
    assert run(*argv(bad, corpus_file, lex), "--out", tmp_path / "o") == 2
    err = capsys.readouterr().err
    assert f"{bad}: {expected.format(corpus=corpus_file)}" in err
    assert "Traceback" not in err


# argv with every input missing, and a config file's keys: each case leaves one
# option missing or mistyped, which must be reported before any input is read
OPTION_BEFORE_INPUT = {
    "clean": (("clean", "--corpus", "{missing}"), {"keep-latin": 1}),
    "clean-out": (("clean", "--corpus", "{missing}"), {"out": 3}),
    "boilerplate": (("boilerplate", "--corpus", "{missing}"), {"fraction": "0.1"}),
    "measure": (("measure", "--corpus", "{missing}", "--cliches", "{missing}"), {}),
    "measure-tagged": (("measure", "--corpus", "{missing}", "--cliches", "{missing}",
                        "--emotions", "{missing}"), {"tagged": 1}),
    "ttest": (("ttest", "--measures", "{missing}"), {"measure": "all "}),
    "plot-data": (("plot-data", "--measures", "{missing}"), {"bins": 5.0}),
    "train-cnn": (("train", "--corpus", "{missing}", "--model", "cnn"), {}),
    "train-nb": (("train", "--corpus", "{missing}", "--model", "nb"), {"max-features": 20.7}),
    "evaluate": (("evaluate", "--model-dir", "{missing}"), {}),
    "features": (("features", "--model-dir", "{missing}"), {"k": 2.5}),
    "predict": (("predict", "--model-dir", "{missing}"), {}),
}


@pytest.mark.parametrize("case", OPTION_BEFORE_INPUT)
def test_options_are_resolved_before_any_input_is_read(tmp_path, capsys, case):
    # each command used to read its inputs first, and report the missing file
    argv, values = OPTION_BEFORE_INPUT[case]
    config = tmp_path / "config.json"
    config.write_text(json.dumps(values), encoding="utf-8")
    missing = tmp_path / "missing"
    out = tmp_path / "o"
    argv = [str(a).format(missing=missing) for a in argv]
    status = run(*argv, "--config", config, *(() if "out" in values else ("--out", out)))
    err = capsys.readouterr().err
    if values:
        (key,) = values
        assert status == 2 and f"{config}: key {key!r} must be " in err
    else:
        assert status == 1 and "usage error: missing required option --" in err
    assert str(missing) not in err
    assert not out.exists()


@pytest.mark.parametrize("command, target, error", [
    ("plot-data", "density_histogram", MemoryError("Unable to allocate 1.00 TiB")),
    ("train", "nb_fit", MemoryError()),
])
def test_memory_error_exits_2_naming_the_subcommand(corpus_file, tmp_path, capsys, command,
                                                    target, error):
    measures = TestMeasureTtestPlot().make_measures(tmp_path, corpus_file)
    inputs = {"plot-data": ("--measures", measures),
              "train": ("--corpus", corpus_file, "--model", "nb")}
    out = tmp_path / "o"
    with mock.patch(f"satira.cli.{target}", side_effect=error):
        assert run(command, *inputs[command], "--out", out) == 2
    suffix = f": {error}" if str(error) else ""
    assert capsys.readouterr().err == f"error: {command} ran out of memory{suffix}\n"
    assert not out.exists()


class TestMetadataHeaders:
    @pytest.mark.parametrize("kind", ["nb", "gbt", "cnn"])
    def test_every_artifact_starts_with_metadata(self, corpus_file, tmp_path, kind):
        model_dir = tmp_path / "run"
        assert train(corpus_file, kind, model_dir) == 0
        out = tmp_path / "eval"
        assert run("evaluate", "--corpus", corpus_file, "--model-dir", model_dir,
                   "--out", out) == 0
        artifacts = list(model_dir.iterdir()) + list(out.iterdir())
        assert len(artifacts) >= 5
        for path in artifacts:
            lines = path.read_text(encoding="utf-8").splitlines()
            comment_block = []
            for line in lines:
                if not line.startswith("#"):
                    break
                comment_block.append(line)
            joined = "\n".join(comment_block)
            assert "# satira " in joined or any(
                l.startswith("# satira-") for l in comment_block
            ), f"{path.name} lacks a tool header"
            assert any("config-hash" in l for l in comment_block), (
                f"{path.name} lacks a config hash"
            )

    def test_scoring_hash_names_command_and_corpus(self, corpus_file, tmp_path):
        model_dir = tmp_path / "run"
        assert train(corpus_file, "nb", model_dir) == 0
        other = tmp_path / "other.jsonl"
        save_corpus(synthetic_corpus(5, np.random.default_rng(1)), other)
        assert run("evaluate", "--corpus", corpus_file, "--model-dir", model_dir,
                   "--out", tmp_path / "eval") == 0
        for name, corpus in (("pred", corpus_file), ("pred_other", other)):
            assert run("predict", "--corpus", corpus, "--model-dir", model_dir,
                       "--out", tmp_path / name) == 0
        evaluated = header_hash(tmp_path / "eval" / "report.txt")
        predicted = header_hash(tmp_path / "pred" / "predictions.jsonl")
        assert evaluated != predicted
        assert predicted != header_hash(tmp_path / "pred_other" / "predictions.jsonl")


# each subcommand's base options; a value naming an entry of the `inputs` fixture is that file
CORPUS = {"corpus": "corpus"}
MEASURE = {"corpus": "corpus", "cliches": "lexicon", "emotions": "lexicon"}
MEASURES = {"measures": "measures"}
NB = {"corpus": "corpus", "model": "nb"}
GBT = dict(NB, model="gbt", rounds=2)
CNN = dict(NB, model="cnn", embeddings="vectors", **{
    "embed-dim": 16, "filters": 4, "kernel": 3, "max-seq-len": 12, "epochs": 1})
RUN = {"model-dir": "run"}
SCORE = {"model-dir": "run", "corpus": "corpus"}

# (subcommand, flag) -> (base options, two values of the flag); True and False are a switch
# on and off, and each "-copy" input holds the same bytes as its original
HASHED = {
    ("clean", "corpus"): (CORPUS, "corpus", "corpus-copy"),
    ("clean", "stop-phrases"): (CORPUS, "stops", "stops-copy"),
    ("clean", "keep-diacritics"): (CORPUS, False, True),
    ("clean", "keep-latin"): (CORPUS, False, True),
    ("clean", "keep-special"): (CORPUS, False, True),
    ("boilerplate", "corpus"): (CORPUS, "corpus", "corpus-copy"),
    ("boilerplate", "fraction"): (CORPUS, 0.1, 0.2),
    ("measure", "corpus"): (MEASURE, "corpus", "corpus-copy"),
    ("measure", "cliches"): (MEASURE, "lexicon", "lexicon-copy"),
    ("measure", "emotions"): (MEASURE, "lexicon", "lexicon-copy"),
    ("measure", "tagged"): (MEASURE, "tagged", "tagged-copy"),
    ("ttest", "measures"): (MEASURES, "measures", "measures-copy"),
    ("ttest", "measure"): (MEASURES, "J", "all"),
    ("ttest", "variant"): (MEASURES, "pooled", "welch"),
    ("ttest", "nan-policy"): (MEASURES, "omit", "propagate"),
    ("plot-data", "measures"): (MEASURES, "measures", "measures-copy"),
    ("plot-data", "bins"): (MEASURES, 5, 6),
    ("train", "corpus"): (NB, "corpus", "corpus-copy"),
    ("train", "model"): (NB, "nb", "gbt"),
    ("train", "test-fraction"): (NB, 0.2, 0.3),
    ("train", "seed"): (NB, 1, 2),
    ("train", "weighting"): (NB, "count", "tfidf"),
    ("train", "analyzer"): (NB, "word", "char"),
    ("train", "ngram"): (NB, "1,1", "1,2"),
    ("train", "max-features"): (NB, 10, 20),
    ("train", "max-df"): (NB, 0.7, 0.8),
    ("train", "alpha"): (NB, 1.0, 0.5),
    ("train", "rounds"): (GBT, 1, 2),
    ("train", "learning-rate"): (GBT, 0.1, 0.2),
    ("train", "depth"): (GBT, 2, 3),
    ("train", "reg-lambda"): (GBT, 1.0, 2.0),
    ("train", "embeddings"): (CNN, "vectors", "vectors-copy"),
    ("train", "embed-dim"): (CNN, 16, 8),
    ("train", "filters"): (CNN, 4, 5),
    ("train", "kernel"): (CNN, 3, 2),
    ("train", "max-seq-len"): (CNN, 12, 16),
    ("train", "epochs"): (CNN, 1, 2),
    ("train", "batch-size"): (CNN, 10, 5),
    ("evaluate", "model-dir"): (SCORE, "run", "run-copy"),
    ("evaluate", "corpus"): (SCORE, "corpus", "corpus-copy"),
    ("features", "model-dir"): (RUN, "run", "run-copy"),
    ("features", "k"): (RUN, 5, 6),
    ("predict", "model-dir"): (SCORE, "run", "run-copy"),
    ("predict", "corpus"): (SCORE, "corpus", "corpus-copy"),
}

# subcommand -> one of the files it writes
OUTPUT = {"clean": "cleaned.jsonl", "boilerplate": "ngrams_1.tsv", "measure": "measures.csv",
          "ttest": "ttest.txt", "plot-data": "density_J_fake.csv", "train": "run.json",
          "evaluate": "report.txt", "features": "features_fake.tsv",
          "predict": "predictions.jsonl"}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory) -> dict:
    """name -> an input file (or, for "run", a trained nb run directory) of each kind,
    and under "<name>-copy" a copy with the same bytes."""
    root = tmp_path_factory.mktemp("inputs")
    corpus = synthetic_corpus(10, np.random.default_rng(5))
    files = {"corpus": root / "corpus.jsonl", "lexicon": root / "lexicon.txt",
             "stops": root / "stops.txt", "tagged": root / "tagged.txt",
             "measures": root / "measures.csv", "vectors": root / "vectors.txt",
             "run": root / "run"}
    save_corpus(corpus, files["corpus"])
    files["lexicon"].write_text("fake000\nreal003\n", encoding="utf-8")
    files["stops"].write_text("fake001\n", encoding="utf-8")
    files["tagged"].write_text("نروي\tVERB\n\n" * len(corpus), encoding="utf-8")
    rows = [f"{label[0]}{i},{label},{0.1 * i + 0.5 * j},{0.05 * i},{0.2 * i}"
            for j, label in enumerate(("fake", "real")) for i in range(1, 5)]
    files["measures"].write_text("doc_id,label,J,S,fpp_ratio\n" + "".join(r + "\n" for r in rows),
                                 encoding="utf-8")
    write_embedding_file(files["vectors"], sorted({t for d in corpus for t in d.tokens}), dim=16)
    assert run("train", "--corpus", files["corpus"], "--model", "nb", "--out", files["run"]) == 0
    for name, path in list(files.items()):
        copy = path.with_name(f"{path.stem}-copy{path.suffix}")
        (shutil.copytree if path.is_dir() else shutil.copyfile)(path, copy)
        files[f"{name}-copy"] = copy
    return files


def run_options(command: str, options: dict, out) -> int:
    argv = [command, "--out", out]
    for flag, value in options.items():
        if value is not False:
            argv += [f"--{flag}"] if value is True else [f"--{flag}", value]
    return run(*argv)


class TestHeaderBuilder:
    @pytest.mark.parametrize("command, options", [
        ("clean", dict(CORPUS, **{"stop-phrases": "stops"})), ("boilerplate", CORPUS),
        ("measure", dict(MEASURE, tagged="tagged")), ("ttest", MEASURES),
        ("plot-data", MEASURES), ("train", NB), ("train", GBT), ("train", CNN),
        ("evaluate", SCORE), ("features", RUN), ("predict", SCORE)],
        ids=["clean", "boilerplate", "measure", "ttest", "plot-data", "train-nb", "train-gbt",
             "train-cnn", "evaluate", "features", "predict"])
    def test_every_output_starts_with_the_tool_line(self, inputs, tmp_path, command, options):
        options = {f: inputs.get(v, v) if isinstance(v, str) else v for f, v in options.items()}
        out = tmp_path / "out"
        assert run_options(command, options, out) == 0
        written = sorted(out.iterdir())
        assert OUTPUT[command] in {path.name for path in written}
        for path in written:
            assert path.read_bytes().startswith(f"# satira {__version__}\n".encode()), path.name

    def test_every_option_row_has_a_case(self):
        rows = {(command, opt.flag) for command, (_, _, opts) in _COMMANDS.items() for opt in opts}
        assert rows == set(HASHED)

    @pytest.mark.parametrize("command, flag", HASHED)
    def test_each_option_changes_the_config_hash(self, inputs, tmp_path, command, flag):
        base, *values = HASHED[command, flag]
        hashes = []
        for i, value in enumerate(values):
            options = {f: inputs.get(v, v) if isinstance(v, str) else v
                       for f, v in dict(base, **{flag: value}).items()}
            if flag == "embed-dim":  # each run needs vectors of its own dimension at one path
                tokens = sorted({t for d in load_corpus(inputs["corpus"]) for t in d.tokens})
                options["embeddings"] = write_embedding_file(tmp_path / "vec.txt", tokens,
                                                             dim=value)
            out = tmp_path / str(i)
            assert run_options(command, options, out) == 0
            # one line per file read, naming its flag; a run directory's is its run.json
            assert header_inputs(out / OUTPUT[command]) == {
                f"# input {f} sha256:{checksum(p / 'run.json' if p.is_dir() else p)}"
                for f, p in options.items() if isinstance(p, Path)}
            hashes.append(header_hash(out / OUTPUT[command]))
        assert hashes[0] != hashes[1]


    def test_boilerplate_header_changes_with_corpus_contents(self, tmp_path):
        corpus = tmp_path / "corpus.jsonl"
        headers = []
        for seed in (1, 2):
            save_corpus(synthetic_corpus(5, np.random.default_rng(seed)), corpus)
            assert run("boilerplate", "--corpus", corpus, "--out", tmp_path / str(seed)) == 0
            headers.append(header_lines(tmp_path / str(seed) / "ngrams_1.tsv"))
        assert headers[0] != headers[1]

    def test_features_header_changes_with_model_retrained_in_place(self, corpus_file, tmp_path):
        model_dir = tmp_path / "run"
        headers = []
        for alpha in (1.0, 0.5):
            assert train(corpus_file, "nb", model_dir, "--alpha", alpha) == 0
            out = tmp_path / f"feat{alpha}"
            assert run("features", "--model-dir", model_dir, "--out", out) == 0
            headers.append(header_lines(out / "features_fake.tsv"))
        assert headers[0] != headers[1]


def option_values() -> list[tuple[str, str, str, object]]:
    """(subcommand, model, flag, value) of every int option at -1, 0 and 1 and every
    float option also at NaN and +-inf; a train flag once per model that reads it."""
    values = {int: (-1, 0, 1), float: (-1.0, 0.0, 1.0, math.nan, math.inf, -math.inf)}
    return [(command, model, opt.flag, value)
            for command, (_, _, rows) in _COMMANDS.items() for opt in rows
            if opt.kind in values
            for model in (_FLAG_READERS.get(opt.flag, PIPELINES) if command == "train" else "-")
            for value in values[opt.kind]]


TRAIN_BASE = {"nb": NB, "gbt": GBT, "cnn": CNN}


@pytest.mark.parametrize("command, model, flag, value", option_values())
def test_every_number_option_value_exits_cleanly(inputs, tmp_path, capsys, command, model,
                                                 flag, value):
    base = TRAIN_BASE[model] if command == "train" else HASHED[command, flag][0]
    argv = [command, "--out", tmp_path / "out", f"--{flag}={value}"]
    for f, v in base.items():
        if f != flag:
            argv += [f"--{f}", inputs.get(v, v) if isinstance(v, str) else v]
    code = run(*argv)
    captured = capsys.readouterr()
    assert code in (0, 1, 2)
    assert "Traceback" not in captured.out + captured.err
    if command == "train" and code == 0:
        assert run("evaluate", "--model-dir", tmp_path / "out", "--corpus", inputs["corpus"],
                   "--out", tmp_path / "eval") == 0


def test_cli_imports_no_private_satira_name():
    """The CLI is a client of the library: it reads no underscore-prefixed name of it."""
    def private(name):
        return any(part.startswith("_") and not part.endswith("__") for part in name.split("."))

    found = []
    for node in ast.walk(ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("satira")):
            module = "." * node.level + (node.module or "")
            found += [f"{module} {alias.name}" for alias in node.names
                      if private(module) or private(alias.name)]
        elif isinstance(node, ast.Import):
            found += [alias.name for alias in node.names
                      if alias.name.startswith("satira") and private(alias.name)]
    assert found == []


class TestReproducibility:
    @pytest.mark.parametrize("kind", ["nb", "gbt", "cnn"])
    def test_identical_runs_are_byte_identical(self, corpus_file, tmp_path, kind):
        outs = []
        for name in ("one", "two"):
            model_dir = tmp_path / name
            assert train(corpus_file, kind, model_dir, "--seed", 7) == 0
            outs.append(model_dir)
        filenames = sorted(p.name for p in outs[0].iterdir())
        assert filenames == sorted(p.name for p in outs[1].iterdir())
        assert "model.txt" in filenames and "run.json" in filenames
        for filename in filenames:
            assert (outs[0] / filename).read_bytes() == (outs[1] / filename).read_bytes()

    def test_config_file_with_flag_override(self, corpus_file, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps({"corpus": str(corpus_file), "model": "nb", "seed": 3}),
            encoding="utf-8",
        )
        out1 = tmp_path / "fromfile"
        assert run("train", "--config", config, "--out", out1) == 0
        run1 = load_json(out1 / "run.json")
        assert run1["seed"] == 3
        out2 = tmp_path / "override"
        assert run("train", "--config", config, "--seed", 11, "--out", out2) == 0
        run2 = load_json(out2 / "run.json")
        assert run2["seed"] == 11


class TestConfigFile:
    @staticmethod
    def config(tmp_path, **values):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(values), encoding="utf-8")
        return path

    @pytest.mark.parametrize(
        "switch", ["keep-diacritics", "keep-latin", "keep-special"])
    def test_clean_switch_from_config_acts_as_the_flag(self, tmp_path, switch):
        raw = tmp_path / "raw.jsonl"
        raw.write_text('{"id":"a","text":"قالَ  abc! الناطق","label":"fake"}\n',
                       encoding="utf-8")
        config = self.config(tmp_path, **{switch: True})
        outputs = []
        for name, flags in (("flag", (f"--{switch}",)), ("config", ("--config", config)),
                            ("neither", ())):
            assert run("clean", "--corpus", raw, *flags, "--out", tmp_path / name) == 0
            outputs.append((tmp_path / name / "cleaned.jsonl").read_bytes())
        assert outputs[0] == outputs[1] != outputs[2]

    def test_ttest_measure_from_config_acts_as_the_flag(self, tmp_path, capsys):
        rows = ["doc_id,label,J,S,fpp_ratio", "f0,fake,0.1,0.1,", "f1,fake,0.2,0.3,",
                "r0,real,0.3,0.2,", "r1,real,0.4,0.1,"]
        measures = tmp_path / "measures.csv"
        measures.write_text("".join(r + "\n" for r in rows), encoding="utf-8")
        config = self.config(tmp_path, measure="S")
        outputs = []
        for name, flags in (("flag", ("--measure", "S")), ("config", ("--config", config)),
                            ("neither", ())):
            assert run("ttest", "--measures", measures, *flags, "--out", tmp_path / name) == 0
            outputs.append((tmp_path / name / "ttest.txt").read_bytes())
        assert outputs[0] == outputs[1] != outputs[2]
        assert b"measure=J" not in outputs[1]

    @pytest.mark.parametrize(
        "command, key, value",
        [("train", "seed", 7.9), ("train", "seed", True),
         ("train", "max-features", 20.7), ("train", "test-fraction", "0.2"),
         ("train", "model", "svm"), ("train", "weighting", "bogus"), ("train", "ngram", [1.5, 2]),
         ("train", "corpus", 3), ("clean", "keep-latin", 1), ("ttest", "measure", "all "),
         ("plot-data", "bins", 5.0)],
    )
    def test_wrong_type_exits_2(self, corpus_file, tmp_path, capsys, command, key, value):
        measures = tmp_path / "m.csv"
        measures.write_text("doc_id,label,J,S,fpp_ratio\nf0,fake,0.1,0.1,\n", encoding="utf-8")
        values = {"corpus": str(corpus_file), "model": "nb", "measures": str(measures)}
        config = self.config(tmp_path, **dict(values, **{key: value}))
        assert run(command, "--config", config, "--out", tmp_path / "o") == 2
        err = capsys.readouterr().err
        assert f"{config}: key {key!r} must be " in err
        assert "Traceback" not in err

    def test_json_numbers_and_lists_accepted(self, corpus_file, tmp_path):
        config = self.config(tmp_path, corpus=str(corpus_file), model="nb", ngram=[1, 2],
                             **{"max-df": 1, "unread-key": None})
        assert run("train", "--config", config, "--out", tmp_path / "o") == 0
        record = load_json(tmp_path / "o" / "run.json")
        assert (record["ngram"], record["max_df"]) == ([1, 2], 1.0)
        assert type(record["max_df"]) is float


class TestTextRoundTrip:
    """Every trained artifact is a fixed point of its text codec."""

    CODECS = {
        "nb/model.txt": (nb_to_text, nb_from_text),
        "gbt/model.txt": (gbt_to_text, gbt_from_text),
        "cnn/model.txt": (cnn_to_text, cnn_from_text),
        "cnn/token_index.txt": (token_index_to_text, _token_index_from_text),
        "nb/vocabulary.txt": (vocabulary_to_text, vocabulary_from_text),
    }

    @pytest.mark.parametrize(
        "kind, filename, flags",
        [("nb", "model.txt", ()), ("nb", "vocabulary.txt", ()),
         ("nb", "vocabulary.txt", ("--weighting", "tfidf", "--analyzer", "char", "--ngram", "2,4")),
         ("gbt", "model.txt", ()), ("cnn", "model.txt", ()), ("cnn", "token_index.txt", ())],
        ids=["nb-model", "nb-vocabulary", "nb-tfidf-char-vocabulary", "gbt-model", "cnn-model",
             "cnn-token-index"],
    )
    def test_to_text_inverts_from_text(self, corpus_file, tmp_path, kind, filename, flags):
        model_dir = tmp_path / "run"
        assert train(corpus_file, kind, model_dir, *flags) == 0
        lines = (model_dir / filename).read_bytes().decode("utf-8").split("\n")
        # the CLI writes its metadata lines first; the artifact's own text follows them
        assert lines[0].startswith("# satira ") and lines[1].startswith("# config-hash ")
        assert lines[2] == f"# input corpus sha256:{checksum(corpus_file)}"
        expected = "\n".join(l for l in lines[2:] if not l.startswith("# input "))
        to_text, from_text = self.CODECS[f"{kind}/{filename}"]
        # a str joins to itself; the CNN's text comes a piece at a time
        assert "".join(to_text(from_text(expected))) == expected


class TestFormatTagLine:
    """An artifact loads with its format tag after the CLI's metadata lines, as
    the CLI writes it, and with the tag on line 1, as files were laid out
    before; a file whose leading comment block holds no tag is refused."""

    @pytest.mark.parametrize("artifact", list(TestTextRoundTrip.CODECS))
    def test_tag_on_any_line_of_the_comment_block(self, corpus_file, tmp_path, artifact):
        kind, filename = artifact.split("/")
        assert train(corpus_file, kind, tmp_path / "run") == 0
        lines = (tmp_path / "run" / filename).read_text(encoding="utf-8").splitlines(keepends=True)
        to_text, from_text = TestTextRoundTrip.CODECS[artifact]
        at = next(i for i, line in enumerate(lines) if line.startswith("# satira-"))
        tag, rest = lines[at], lines[:at] + lines[at + 1:]
        assert lines[0].startswith("# satira ") and at >= 3  # the CLI's lines come first
        written = "".join(to_text(from_text("".join(lines))))
        assert "".join(to_text(from_text(tag + "".join(rest)))) == written
        refused = f"unsupported file (expected header '{tag.strip()}')"
        with pytest.raises(DataError, match=re.escape(refused)):
            from_text("".join(rest))
        # the tag after the first body row is not in the leading comment block
        body = next(i for i, line in enumerate(rest) if not line.startswith("#") or "\t" in line)
        with pytest.raises(DataError, match=re.escape(refused)):
            from_text("".join(rest[:body + 1] + [tag] + rest[body + 1:]))


END = "unexpected line after the last declared entry"


class TestArtifactFaultExits2:
    """A fault in a trained artifact makes evaluate and predict exit 2, naming the
    file and the faulty line, never with a traceback."""

    # artifact -> messages for a blank line after the first body row, and at the end
    BLANK = {
        "nb/vocabulary.txt": ("feature row: expected 4 fields, got 1",) * 2,
        "nb/model.txt": ("feature index 0: expected 3 fields, got 1", END),
        "gbt/model.txt": ("expected node 0, got ''", END),
        "cnn/token_index.txt": ("token row: expected 2 fields, got 1",) * 2,
        "cnn/model.txt": ("embedding row: expected 16 floats (128 bytes), got 0 bytes", END),
    }

    def refused(self, corpus_file, tmp_path, capsys, artifact, edit, message):
        """Train, replace the artifact's lines by ``edit(lines)``, which returns the
        number of the line at fault, and check that evaluate and predict refuse it."""
        kind, filename = artifact.split("/")
        model_dir = tmp_path / "run"
        assert train(corpus_file, kind, model_dir) == 0
        path = model_dir / filename
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        line = edit(lines)
        path.write_text("".join(lines), encoding="utf-8")
        for command in ("evaluate", "predict"):
            capsys.readouterr()
            assert run(command, "--corpus", corpus_file, "--model-dir", model_dir,
                       "--out", tmp_path / command) == 2
            err = capsys.readouterr().err
            assert f"error: {path}: line {line}: {message}\n" in err
            assert "Traceback" not in err

    @pytest.mark.parametrize("at_end", [False, True], ids=["inside", "at-end"])
    @pytest.mark.parametrize("artifact", list(BLANK))
    def test_blank_line(self, corpus_file, tmp_path, capsys, artifact, at_end):
        # no writer emits a blank line; one used to be skipped
        def edit(lines):
            first = next(i for i, l in enumerate(lines) if not l.startswith("#") or "\t" in l)
            at = len(lines) if at_end else first + 1
            lines.insert(at, "\n")
            return at + 1

        self.refused(corpus_file, tmp_path, capsys, artifact, edit,
                     self.BLANK[artifact][at_end])

    def test_gbt_tree_without_nodes(self, corpus_file, tmp_path, capsys):
        def edit(lines):
            at = next(i for i, l in enumerate(lines) if l.startswith("tree 1 "))
            lines[at] = "tree 1 0\n"
            return at + 1

        self.refused(corpus_file, tmp_path, capsys, "gbt/model.txt", edit, "tree 1 has no nodes")

    def test_vocabulary_df_beyond_int64(self, corpus_file, tmp_path, capsys):
        # used to exit 2 with "Python int too large to convert to C long" alone
        def edit(lines):
            at = next(i for i, l in enumerate(lines) if not l.startswith("#"))
            feature, col, _, idf = lines[at].split("\t")
            lines[at] = "\t".join([feature, col, "99999999999999999999", idf])
            return at + 1

        self.refused(corpus_file, tmp_path, capsys, "nb/vocabulary.txt", edit,
                     "df 99999999999999999999 of 80 documents exceeds max_df=0.7")


class TestEvaluateScoresHeldOutDocuments:
    """``evaluate`` refuses a corpus whose training split is not the one the
    model trained on, since its "held-out" documents may have been trained on;
    ``predict`` and ``features`` read no split."""

    # body sha256 (check_set.body_digest) of the reports of each model trained on the
    # corpus_file fixture and evaluated on it, as written before run.json recorded the split
    REPORTS = {
        "nb": ("574cf4d22d0b00411b5ccf88a07d5753717dd8dae296bd862efddf0e78911778",
               "17b8626f45c3f8f0255c95bf1b9f3818ae4bfaffb7e80d16953d103d206a6a69"),
        "gbt": ("eb546a949a998e263f5005e44caeacd5b8636fd1c57dac5e761eccb5b1b505b3",
                "3664bc45a736692e7920d66c9f104a3de55100d1e78b653d259f9cf9f3ec7907"),
        "cnn": ("73bc2e297028e1c3416758b3dee0b727651039f073aa36131d3f2899688004b3",
                "2983fc2356340f4b819cafeea59a1dba71553f116566bee3546bf749a06480fc"),
    }

    @pytest.mark.parametrize("kind", list(REPORTS))
    def test_reports_on_the_training_corpus_are_unchanged(self, corpus_file, tmp_path, kind):
        body_digest = load_script("check_set").body_digest
        assert train(corpus_file, kind, tmp_path / "run") == 0
        assert run("evaluate", "--corpus", corpus_file, "--model-dir", tmp_path / "run",
                   "--out", tmp_path / "eval") == 0
        assert tuple(body_digest((tmp_path / "eval" / name).read_bytes())
                     for name in ("report.txt", "report.json")) == self.REPORTS[kind]

    def test_run_json_records_the_sorted_training_ids(self, corpus_file, tmp_path):
        assert train(corpus_file, "nb", tmp_path / "run") == 0
        train_set, _ = split(load_corpus(corpus_file).labeled_only(), SplitConfig(0.2, 42))
        ids = json.dumps(sorted(doc.id for doc in train_set)).encode("ascii")
        record = load_json(tmp_path / "run" / "run.json")
        assert record["train_ids_sha256"] == hashlib.sha256(ids).hexdigest()

    def test_a_reordered_corpus_exits_2_with_no_report(self, corpus_file, tmp_path, capsys):
        model_dir = tmp_path / "run"
        assert train(corpus_file, "nb", model_dir) == 0
        reordered = tmp_path / "reordered.jsonl"
        lines = corpus_file.read_text(encoding="utf-8").splitlines(keepends=True)
        reordered.write_text("".join(reversed(lines)), encoding="utf-8")
        # the reordered corpus's held-out split holds documents the model trained on
        cfg = SplitConfig(0.2, 42)
        trained_on = {doc.id for doc in split(load_corpus(corpus_file), cfg)[0]}
        assert trained_on & {doc.id for doc in split(load_corpus(reordered), cfg)[1]}
        capsys.readouterr()
        assert run("evaluate", "--corpus", reordered, "--model-dir", model_dir,
                   "--out", tmp_path / "eval") == 2
        err = capsys.readouterr().err
        assert f"error: {model_dir / 'run.json'}: " in err and f"--corpus {reordered}" in err
        assert "Traceback" not in err and not (tmp_path / "eval").exists()
        for command, corpus in (("predict", ("--corpus", reordered)), ("features", ())):
            assert run(command, *corpus, "--model-dir", model_dir,
                       "--out", tmp_path / command) == 0

    def test_run_json_without_the_key_exits_2(self, corpus_file, tmp_path, capsys):
        path, err = evaluate_with_edited_run(corpus_file, tmp_path, capsys, lambda record: (
            json.dumps({k: v for k, v in record.items() if k != "train_ids_sha256"})))
        assert f"{path}: missing key 'train_ids_sha256'" in err
        assert f"--corpus {corpus_file}" in err and not (tmp_path / "eval").exists()
        for command, corpus in (("predict", ("--corpus", corpus_file)), ("features", ())):
            assert run(command, *corpus, "--model-dir", path.parent,
                       "--out", tmp_path / command) == 0
